"""How delay correlation shapes the age distribution.

Two experiments:

1. Dominance ladder: with the marginal delay law held fixed, increasing
   the correlation of the delay sequence makes the age stochastically
   larger -- the CCDF grows pointwise from the independent limit through
   progressively slower OU drivers to the fully-frozen limit.

2. Percentile sweep: the effect is strong when samples are taken fast
   (tau small, so consecutive delays are highly correlated) and nearly
   vanishes when tau is large.
"""

import math

import numpy as np

from aoi_lab import (
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    GenerationSchedule,
    LinkFunction,
    QuadratureSpec,
    RunConfig,
    calibrate_marginal,
    dominance_check,
    exact_ccdf_grid,
    percentiles,
)

mu_hat, s_hat = calibrate_marginal(
    CalibrationTarget(mu=1.0, s=0.75, x_min=0.5), "shifted-lognormal"
)
link = LinkFunction("shifted-lognormal", 0.5, mu_hat, s_hat)

# 1. Dominance ladder at tau = 1.
schedule = GenerationSchedule(1.0)
ladder = [
    ("iid", CorrelationMode("iid")),
    ("ou kappa=1.0", CorrelationMode("ou", kappa=1.0)),
    ("ou kappa=0.1", CorrelationMode("ou", kappa=0.1)),
    ("frozen", CorrelationMode("frozen")),
]
t_grid = np.arange(0.25, 8.0, 0.25)
x_grid = np.arange(0.0, 6.0, 0.1)
# The rungs share link and schedule, so one sweep computes all their grids.
models = [DelayModel(link, corr, schedule) for _, corr in ladder]
grids = list(zip((name for name, _ in ladder), exact_ccdf_grid(models, t_grid, x_grid)))
print("Dominance ladder (CCDF must grow with correlation):")
for (lo_name, lo), (hi_name, hi) in zip(grids, grids[1:]):
    violation = dominance_check(lo, hi)
    print(f"  {lo_name:14s} <= {hi_name:14s}: "
          f"{'OK' if violation <= 1e-6 else 'VIOLATED'} "
          f"(max violation {violation:.1e})")

# 2. Median of the time-averaged age across (tau, c).
print("\nMedian time-averaged age by sampling interval and correlation:")
print(f"  {'tau':>5s} " + " ".join(f"{c!s:>8s}" for c in [0, 0.1, 1, 10, "inf"]))
spec = QuadratureSpec(m=256)
for tau in (0.1, 0.5, 2.0):
    row = []
    for c in (0.0, 0.1, 1.0, 10.0, math.inf):
        model = RunConfig("shifted-lognormal", x_min=0.5, mu=1.0, s=0.75, c=c, tau=tau).model()
        row.append(float(percentiles(model, (0.5,), spec)[0]))
    print(f"  {tau:5.1f} " + " ".join(f"{v:8.4f}" for v in row))
print("\nCorrelation barely matters at tau = 2.0 but dominates at tau = 0.1.")
