"""Exception hierarchy shared across the package."""


class AoiLabError(Exception):
    """Base class for all package-specific failures."""


class EvaluationError(AoiLabError):
    """A numerical evaluation could not be completed."""


class QuadratureError(EvaluationError):
    """The quadrature scheme cannot represent the requested computation.

    phase, when set, is the index of the failing phase in a chain batch.
    """

    def __init__(self, message: str, phase: int | None = None):
        super().__init__(message)
        self.phase = phase


class CalibrationError(AoiLabError):
    """Parameter calibration failed to converge or the target is infeasible."""
