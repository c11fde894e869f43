"""Calibrating a delay model to observable statistics.

Given a target delay mean, standard deviation, left endpoint, and an
autocovariance time constant c (the lag at which the delay covariance
has decayed to 1/e of the variance), solve for the link parameters
(mu_hat, s_hat) and the OU rate kappa, then verify the round trip.
"""

import math

from aoi_lab import (
    CalibrationTarget,
    LinkFunction,
    calibrate_kappa,
    calibrate_marginal,
    lag_covariance,
    marginal_moments,
)

target = CalibrationTarget(mu=1.0, s=0.75, x_min=0.5)
c = 10.0

for kind in ("shifted-lognormal", "censored-normal"):
    mu_hat, s_hat = calibrate_marginal(target, kind)
    link = LinkFunction(kind, target.x_min, mu_hat, s_hat)
    kappa = calibrate_kappa(link, c)

    mean, sd = marginal_moments(link)
    ratio = lag_covariance(link, math.exp(-kappa * c)) / lag_covariance(
        link, 1.0
    )

    print(f"{kind}:")
    print(f"  mu_hat = {mu_hat:.6f}, s_hat = {s_hat:.6f}, kappa = {kappa:.6f}")
    print(f"  achieved mean {mean:.12f} (target {target.mu})")
    print(f"  achieved sd   {sd:.12f} (target {target.s})")
    print(f"  cov(c)/var    {ratio:.12f} (target 1/e = {math.exp(-1):.12f})")
    print()
