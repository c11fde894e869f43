"""Exact Monte-Carlo simulation of the delay model and empirical CCDFs.

The Gaussian driver is sampled exactly on the generation grid (the OU
one-step transition is available in closed form, so there is no
time-discretization error), mapped through the link function, and turned
into age sample paths.  Aggregated indicator fractions give an empirical
CCDF grid used to cross-validate the exact engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .core import CcdfGrid, aoi_path_matrix
from .links import DelayModel, g_apply


@dataclass(frozen=True)
class SimConfig:
    """Simulation experiment: model, horizon, paths, grids, seed."""

    model: DelayModel
    n_paths: int
    seed: int
    t_grid: Sequence[float]
    x_grid: Sequence[float]

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")

    @property
    def horizon(self) -> float:
        return float(np.max(self.t_grid))


@dataclass
class EmpiricalCcdf:
    """Empirical CCDF grid plus per-cell binomial standard errors and the
    count of still-infinite ages per observation time."""

    grid: CcdfGrid
    stderr: np.ndarray
    n_infinite: np.ndarray
    n_paths: int


def sample_ou_on_grid(
    kappa: float, tau: float, n: int, seed: int, n_paths: int = 1
) -> np.ndarray:
    """Stationary OU samples at times 0, tau, ..., (n-1)*tau, exact in
    distribution: Z_0 ~ N(0,1), Z_{i+1} = rho*Z_i + sqrt(1-rho^2)*xi_i.

    Returns shape (n_paths, n); deterministic given the seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    rho = math.exp(-kappa * tau)
    noise_scale = math.sqrt(1.0 - rho * rho)
    rng = np.random.Generator(np.random.Philox(seed))
    xi = rng.standard_normal((n_paths, n))
    z = np.empty((n_paths, n))
    z[:, 0] = xi[:, 0]
    for i in range(1, n):
        z[:, i] = rho * z[:, i - 1] + noise_scale * xi[:, i]
    return z


def sample_driver(model: DelayModel, n: int, seed: int, n_paths: int) -> np.ndarray:
    """Gaussian driver samples on the generation grid for any correlation mode."""
    mode = model.correlation
    if mode.kind == "ou":
        return sample_ou_on_grid(
            mode.kappa, model.schedule.tau, n, seed, n_paths=n_paths
        )
    rng = np.random.Generator(np.random.Philox(seed))
    if mode.kind == "iid":
        return rng.standard_normal((n_paths, n))
    # Frozen: every sample equals the time-zero state.
    z0 = rng.standard_normal((n_paths, 1))
    return np.broadcast_to(z0, (n_paths, n)).copy()


def sample_delay_paths(config: SimConfig) -> np.ndarray:
    """Delay sequences, shape (n_paths, n_packets) with packets up to the
    last generation instant inside the horizon."""
    model = config.model
    n_packets = int(math.floor(config.horizon / model.schedule.tau)) + 1
    z = sample_driver(model, n_packets, config.seed, config.n_paths)
    return g_apply(model.link, z)


def simulate_aoi_paths(config: SimConfig) -> np.ndarray:
    """Age values at the configured observation times, one row per path."""
    delays = sample_delay_paths(config)
    return aoi_path_matrix(delays, config.model.schedule, config.t_grid)


def simulate_empirical_ccdf(config: SimConfig) -> EmpiricalCcdf:
    """Empirical Pr(A_t > x) over the configured grid.

    Infinite ages (no packet arrived yet) exceed every finite threshold
    and are additionally counted per observation time.
    """
    ages = simulate_aoi_paths(config)
    t_grid = np.asarray(config.t_grid, dtype=float)
    x_grid = np.asarray(config.x_grid, dtype=float)
    exceed = ages[:, :, None] > x_grid[None, None, :]
    p = exceed.mean(axis=0)
    stderr = np.sqrt(p * (1.0 - p) / config.n_paths)
    n_infinite = np.isinf(ages).sum(axis=0)
    grid = CcdfGrid(
        t_values=t_grid,
        x_values=x_grid,
        p=p,
        kind="empirical",
    )
    return EmpiricalCcdf(
        grid=grid, stderr=stderr, n_infinite=n_infinite, n_paths=config.n_paths
    )
