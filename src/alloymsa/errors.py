"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: contract violations exit with 2,
parameter/precondition problems with 3, capacity problems with 4.
"""


class AlloyMSAError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ParameterError(AlloyMSAError):
    """Invalid argument or violated operation precondition."""

    exit_code = 3


class CapacityError(AlloyMSAError):
    """Box size exceeds the configured point cap."""

    exit_code = 4


class AnalysisFailure(AlloyMSAError):
    """Leading-index search exhausted its shell cap without a certified hit."""

    exit_code = 3


class ResonantEnergyError(AlloyMSAError):
    """Requested energy is numerically indistinguishable from an eigenvalue."""

    exit_code = 3


class GeometryError(ParameterError):
    """Enlarged boxes overlap; independence assumptions would be broken."""


class ScheduleError(AlloyMSAError):
    """Scale recursion violated one of its asserted bounds."""


class FitError(AlloyMSAError):
    """Too little usable data for a least-squares fit."""

    exit_code = 3


class SolverError(AlloyMSAError):
    """Eigensolver or linear solver did not meet its residual contract."""
