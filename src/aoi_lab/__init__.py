"""Transient age-of-information distributions for Gaussian-process delay
models: exact joint-tail evaluation, Monte-Carlo cross-validation,
moment calibration, stochastic-order checks, and figure-data export."""

__version__ = "1.0.0"

from .core import GenerationSchedule
from .errors import AoiLabError, CalibrationError, EvaluationError, QuadratureError
from .links import (
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    calibrate_marginal,
    lag_covariance,
    marginal_moments,
)
from .orthant import QuadratureSpec
from .outputs import (
    aoi_support,
    dominance_check,
    exact_ccdf_grid,
    heatmap,
    percentiles,
    write_ccdf_csv,
    write_heatmap_csv,
)
from .simulate import simulate_empirical_ccdf


def __getattr__(name):
    # RunConfig is resolved on first use, so that importing the package
    # does not import .cli: `python -m aoi_lab.cli` would then find the
    # module already loaded and warn.
    if name == "RunConfig":
        from .cli import RunConfig

        return RunConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The names README's quick start and the demos import, the error types and
# the version; every other public name is imported from its own module.
__all__ = [
    "__version__",
    # errors
    "AoiLabError",
    "CalibrationError",
    "EvaluationError",
    "QuadratureError",
    # core
    "GenerationSchedule",
    # links
    "CalibrationTarget",
    "CorrelationMode",
    "DelayModel",
    "LinkFunction",
    "calibrate_kappa",
    "calibrate_marginal",
    "lag_covariance",
    "marginal_moments",
    # orthant
    "QuadratureSpec",
    # outputs
    "aoi_support",
    "dominance_check",
    "exact_ccdf_grid",
    "heatmap",
    "percentiles",
    "write_ccdf_csv",
    "write_heatmap_csv",
    # simulate
    "simulate_empirical_ccdf",
    # cli
    "RunConfig",
]
