"""Numerical laboratory for the discrete alloy-type Anderson model."""

from .errors import (AlloyMSAError, AnalysisFailure, CapacityError, FitError,
                     GeometryError, ParameterError, ResonantEnergyError,
                     ScheduleError, SolverError)
from .genfun import (LeadingIndexData, companion_radius, find_leading_index,
                     genfun_derivative, positivity_certificate, tail_bound)
from .lattice import (Box, BoxOperator, Configuration, DisorderModel,
                      PolynomialPiece, SingleSitePotential, assemble_potential,
                      make_box, restrict_hamiltonian, uniform_density)
from .msa import (MSAParameters, ScaleSchedule, estimate_singularity_probability,
                  scale_schedule, uniform_regularity_test,
                  uniform_regularity_verdicts, validate_parameters)
from .resonance import estimate_resonance_probabilities, perturbation_radius
from .spectral import SpectrumResult, count_eigenvalues_in, decay_fit, eigensolve
from .initial_scale import (admissible_lengths, large_disorder_probe,
                            lifshitz_probe)
from .wegner import (WegnerBoundReport, estimate_partial_expectation,
                     wegner_bound, wegner_constant_chain)

__version__ = "0.1.0"
