"""Exception hierarchy for the impact-hedger library."""


class ImpactHedgerError(Exception):
    """Base class for every library-specific error."""


class InvalidArgument(ImpactHedgerError, ValueError):
    """An argument violates a documented precondition."""


class ModeConflict(ImpactHedgerError):
    """State-dependent coefficients requested on a recombining lattice."""


class NumericOverflow(ImpactHedgerError):
    """A backward or forward sweep produced NaN/Inf values.

    Carries the lattice level at which the blow-up was detected.
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class StepSizeViolation(ImpactHedgerError):
    """A backward sweep, the (zeta, M) pair included, broke the monotone-scheme
    guard |g_z| * sqrt(dt) < 1, with the slope bound its caller gives.

    Carries the lattice level at which the guard tripped.
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class UnsupportedOperation(ImpactHedgerError):
    """The driver cannot provide the requested gradient information."""


class ContractViolation(ImpactHedgerError):
    """Caller invoked an operation outside its documented contract."""


class ExtrapolationRefused(ImpactHedgerError):
    """A position lookup fell outside the precomputed y-grid hull."""


class RootNotFound(ImpactHedgerError):
    """Bracketed root search exhausted its expansion budget.

    The last bracket tried is carried for diagnostics.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class InversionUnavailable(ImpactHedgerError):
    """The position curve is not monotone, so it cannot be inverted."""


class ImageViolation(ImpactHedgerError):
    """A target integrand value lies outside the attainable image."""


class DomainError(ImpactHedgerError, ValueError):
    """Input outside the mathematical domain of the function."""


class ConcavityViolation(ImpactHedgerError):
    """The value surface lost strict concavity in wealth."""


class ControlBracketExhausted(ImpactHedgerError):
    """The control maximizer landed on the search-interval boundary."""


class InverseDomainError(ImpactHedgerError):
    """A marginal-utility value lies outside the range of U'."""
