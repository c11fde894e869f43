"""Exact Monte-Carlo simulation of the delay model and empirical CCDFs.

The Gaussian driver is sampled exactly on the generation grid (the OU
one-step transition is available in closed form, so there is no
time-discretization error), mapped through the link function, and turned
into arrival times.  The empirical CCDF grid used to cross-validate the
exact engine counts, per observation time, the paths whose age exceeds
each x.  The age at t is t - L*tau for the newest arrived packet L, so the
counts are read off the arrival lattice (core.exceedance_counts) without
building per-path ages.  The counts stream over chunks of paths drawn from
one Philox generator seeded with the configured seed, so memory does not
grow with the number of paths.  The same draw yields the ages of its first
paths on request; that is what the CLI saves as paths.csv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .core import CcdfGrid, aoi_path_matrix, exceedance_counts
from .links import DelayModel, g_apply

# Paths simulated at once by simulate_empirical_ccdf.  Memory is
# O(_CHUNK_PATHS * n_packets); the draws do not depend on it.
_CHUNK_PATHS = 1 << 16


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
    """Empirical CCDF grid plus per-cell binomial standard errors, the
    count of still-infinite ages per observation time, and the ages of the
    leading paths, one row per path."""

    grid: CcdfGrid
    stderr: np.ndarray
    n_infinite: np.ndarray
    n_paths: int
    ages: np.ndarray


def sample_driver(
    model: DelayModel, n: int, rng: np.random.Generator, n_paths: int
) -> np.ndarray:
    """Gaussian driver samples at the first n generation instants, shape
    (n_paths, n), exact in distribution: the stationary AR(1) chain
    Z_0 ~ N(0,1), Z_{i+1} = rho*Z_i + sqrt(1-rho^2)*xi_i, which at rho = 0
    is the raw N(0,1) draw bit for bit; at rho = 1, Z_0 repeated.

    Draws from and advances rng, so rows drawn in chunks from one Generator
    equal one draw of all rows.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rho = model.step_correlation()
    # One packet per row of a contiguous array; the result is its transpose.
    if rho == 1.0:
        z = np.empty((n, n_paths))
        z[:] = rng.standard_normal(n_paths)
        return z.T
    # The recursion runs in place down the rows of the draw's transpose.
    z = rng.standard_normal((n_paths, n)).T.copy()
    noise_scale = math.sqrt(1.0 - rho * rho)
    prev = np.empty(n_paths)
    for i in range(1, n):
        np.multiply(z[i - 1], rho, out=prev)
        z[i] *= noise_scale
        z[i] += prev
    return z.T


def _n_packets(config: SimConfig) -> int:
    """Packets up to the last generation instant inside the horizon."""
    return int(math.floor(config.horizon / config.model.schedule.tau)) + 1


def _chunk_counts(
    config: SimConfig,
    rng: np.random.Generator,
    size: int,
    x_grid: np.ndarray,
    saved: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """For size fresh paths: per observation time, the number of ages above
    each x and the number of infinite ages.  Ages are built only for the
    leading paths that saved holds; the chunk's arrays are freed on return,
    before the next chunk is drawn."""
    model = config.model
    delays = g_apply(model.link, sample_driver(model, _n_packets(config), rng, size))
    if len(saved):
        saved[:] = aoi_path_matrix(delays[: len(saved)], model.schedule, config.t_grid)
    return exceedance_counts(delays, model.schedule, config.t_grid, x_grid)


def simulate_empirical_ccdf(config: SimConfig, n_saved: int = 0) -> EmpiricalCcdf:
    """Empirical Pr(A_t > x) over the configured grid, and the ages of the
    first n_saved paths of the same draw.

    Each chunk of paths adds, per observation time, the number of its
    paths whose age exceeds each x, counted from the arrival lattice: the
    paths whose newest arrival is packet L have age t - L*tau, and an age
    equal to x does not count.  Paths with no arrival yet have infinite age,
    exceed every finite threshold and are additionally counted per
    observation time.  The counts are exact integers, so p equals the mean
    of the per-path indicators bit for bit.
    """
    if not 0 <= n_saved <= config.n_paths:
        raise ValueError(f"n_saved must lie in [0, {config.n_paths}], got {n_saved}")
    t_grid = np.asarray(config.t_grid, dtype=float)
    x_grid = np.asarray(config.x_grid, dtype=float)
    rng = np.random.Generator(np.random.Philox(config.seed))
    counts = np.zeros((t_grid.size, x_grid.size), dtype=np.int64)
    n_infinite = np.zeros(t_grid.size, dtype=np.int64)
    ages = np.empty((n_saved, t_grid.size))
    for start in range(0, config.n_paths, _CHUNK_PATHS):
        size = min(_CHUNK_PATHS, config.n_paths - start)
        above, infinite = _chunk_counts(
            config, rng, size, x_grid, ages[start : start + size]
        )
        counts += above
        n_infinite += infinite
    p = counts / config.n_paths
    stderr = np.sqrt(p * (1.0 - p) / config.n_paths)
    grid = CcdfGrid(
        t_values=t_grid,
        x_values=x_grid,
        p=p,
        kind="empirical",
    )
    return EmpiricalCcdf(
        grid=grid,
        stderr=stderr,
        n_infinite=n_infinite,
        n_paths=config.n_paths,
        ages=ages,
    )
