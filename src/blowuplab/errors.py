"""Exception types shared across the package."""


class BlowupLabError(Exception):
    """Base class for all package errors."""


class DomainError(BlowupLabError):
    """An argument is outside the mathematical domain of the operation."""


class NonFiniteError(BlowupLabError):
    """A NaN or infinity appeared where a finite value is required."""


class StageSolveFailure(BlowupLabError):
    """Implicit stage equations did not converge."""


class FitFailure(BlowupLabError):
    """A run has no blow-up time to report: it did not end in blow-up, or no exact time exists."""


class BranchMismatch(BlowupLabError):
    """Closed-form family is inconsistent with the given coefficients."""


class NotACharacteristicRoot(BlowupLabError):
    """k does not solve 2k^2 + A k - B = 0."""


class NonUniformGrid(BlowupLabError):
    """A uniformly spaced grid is required."""


class InsufficientSamples(BlowupLabError):
    """Profile holds too few samples for finite differencing."""


class BlownUpTrajectory(BlowupLabError):
    """Operation requires a trajectory without blow-up."""


class Inconclusive(BlowupLabError):
    """Numerical run ended without reaching a decision."""
