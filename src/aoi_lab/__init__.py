"""Transient age-of-information distributions for Gaussian-process delay
models: exact joint-tail evaluation, Monte-Carlo cross-validation,
moment calibration, stochastic-order checks, and figure-data export."""

__version__ = "1.0.0"

from .core import (
    CcdfGrid,
    GenerationSchedule,
    aoi_path_matrix,
    block_length,
    decompose_time,
)
from .errors import AoiLabError, CalibrationError, EvaluationError, QuadratureError
from .links import (
    CENSORED_NORMAL,
    SHIFTED_LOGNORMAL,
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    calibrate_marginal,
    g_apply,
    g_inverse,
    lag_covariance,
    marginal_moments,
)
from .orthant import (
    OuChain,
    QuadratureSpec,
    std_normal_tail,
)
from .outputs import (
    DEFAULT_LEVELS,
    AoiSupport,
    DominanceReport,
    HeatmapGrid,
    PercentileRow,
    TimeAverageEvaluator,
    aoi_support,
    ccdf_profile,
    ccdf_profiles,
    dominance_check,
    exact_ccdf_grid,
    heatmap,
    percentiles,
    write_ccdf_csv,
    write_heatmap_csv,
    write_meta_json,
    write_paths_csv,
    write_percentiles_csv,
    write_timeavg_csv,
)
from .simulate import (
    EmpiricalCcdf,
    sample_driver,
    simulate_empirical_ccdf,
)


def __getattr__(name):
    # RunConfig is resolved on first use, so that importing the package
    # does not import .cli: `python -m aoi_lab.cli` would then find the
    # module already loaded and warn.
    if name == "RunConfig":
        from .cli import RunConfig

        return RunConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # core
    "CcdfGrid",
    "GenerationSchedule",
    "aoi_path_matrix",
    "block_length",
    "decompose_time",
    # errors
    "AoiLabError",
    "CalibrationError",
    "EvaluationError",
    "QuadratureError",
    # links
    "CENSORED_NORMAL",
    "SHIFTED_LOGNORMAL",
    "CalibrationTarget",
    "CorrelationMode",
    "DelayModel",
    "LinkFunction",
    "calibrate_kappa",
    "calibrate_marginal",
    "g_apply",
    "g_inverse",
    "lag_covariance",
    "marginal_moments",
    # orthant
    "OuChain",
    "QuadratureSpec",
    "std_normal_tail",
    # outputs
    "DEFAULT_LEVELS",
    "AoiSupport",
    "DominanceReport",
    "HeatmapGrid",
    "PercentileRow",
    "TimeAverageEvaluator",
    "aoi_support",
    "ccdf_profile",
    "ccdf_profiles",
    "dominance_check",
    "exact_ccdf_grid",
    "heatmap",
    "percentiles",
    "write_ccdf_csv",
    "write_heatmap_csv",
    "write_meta_json",
    "write_paths_csv",
    "write_percentiles_csv",
    "write_timeavg_csv",
    # simulate
    "EmpiricalCcdf",
    "sample_driver",
    "simulate_empirical_ccdf",
    # cli
    "RunConfig",
]
