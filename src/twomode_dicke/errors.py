"""Exception hierarchy shared across the package."""


class TwoModeDickeError(Exception):
    """Base class for all package-specific errors."""


class NonSymmetricError(TwoModeDickeError):
    """Input matrix violates the symmetry tolerance or has a non-finite entry."""


class NonPositiveDefiniteError(TwoModeDickeError):
    """Matrix expected to be positive definite has a nonpositive eigenvalue."""


class NearSingularError(TwoModeDickeError):
    """A symplectic eigenvalue sits below the gap floor; the result would diverge."""


class NumericalFailureError(TwoModeDickeError):
    """An eigensolver did not converge or returned inconsistent output."""


class NotThreeModeError(TwoModeDickeError):
    """Operation requires a three-mode (6x6) covariance matrix."""


class NonPhysicalError(TwoModeDickeError):
    """Covariance matrix violates the uncertainty relation beyond rounding."""


class NotPureError(TwoModeDickeError):
    """Operation requires a pure global state (det 2C = 1)."""


class GoldstoneLineError(TwoModeDickeError):
    """Degenerate couplings above the critical point; ground state is ambiguous."""


class BudgetExceededError(TwoModeDickeError):
    """Requested truncation exceeds the configured Hilbert-space budget."""
