"""Exception types shared across the package."""


class BlowupLabError(Exception):
    """Base class for all package errors."""


class DomainError(BlowupLabError):
    """An argument is outside the mathematical domain of the operation."""


class NonFiniteError(BlowupLabError):
    """A NaN or infinity appeared where a finite value is required."""


class StageSolveFailure(BlowupLabError):
    """Implicit stage equations did not converge."""


class Inconclusive(BlowupLabError):
    """Numerical run ended without reaching a decision."""
