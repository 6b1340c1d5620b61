"""Numerical laboratory for the discrete alloy-type Anderson model."""

from .errors import (AlloyMSAError, AnalysisFailure, CapacityError,
                     ContractViolation, FitError, GeometryError,
                     ParameterError, ResonantEnergyError, ScheduleError,
                     SolverError, TempleInapplicableError)
from .genfun import (LeadingIndexData, companion_radius, find_leading_index,
                     genfun_derivative, nexp_check, positivity_certificate,
                     tail_bound)
from .lattice import (DIRICHLET, NEUMANN, Box, BoxOperator, Configuration,
                      DisorderModel, PolynomialPiece, SingleSitePotential,
                      assemble_potential, density_bv_norm, exact_potential,
                      free_operator, make_box, restrict_hamiltonian,
                      sample_configuration, truncated_exponential_potential,
                      uniform_density)
from .msa import (MSAParameters, ScaleSchedule, estimate_singularity_probability,
                  nonresonance_test, regularity_test, scale_schedule,
                  uniform_regularity_test, uniform_regularity_verdicts,
                  validate_parameters)
from .resonance import (SpectrumBracket, classify_resonance,
                        estimate_resonance_probabilities,
                        estimate_resonance_probability, perturbation_radius,
                        spectrum_bracket)
from .spectral import (SpectrumResult, boundary_reconstruct,
                       count_eigenvalues_in, decay_fit, eigensolve,
                       greens_function, resolvent_identity_residual)
from .initial_scale import (LifshitzParameters, admissible_lengths,
                            large_disorder_probe, lifshitz_probe, neumann_gap,
                            small_coupling_implication, temple_lower_bound)
from .wegner import (WegnerBoundReport, estimate_partial_expectation,
                     exponent_fit, wegner_bound, wegner_constant_chain)

__version__ = "0.1.0"
