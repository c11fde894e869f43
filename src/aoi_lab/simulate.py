"""Exact Monte-Carlo simulation of the delay model and empirical CCDFs.

The Gaussian driver is sampled exactly on the generation grid (the OU
one-step transition is available in closed form, so there is no
time-discretization error), mapped through the link function, and turned
into arrival times.  The empirical CCDF grid used to cross-validate the
exact engine counts, per observation time, the paths whose age exceeds
each x.  The age at t is t - L*tau for the newest arrived packet L, so the
counts are read off the arrival lattice without building per-path ages:
each chunk of paths adds its arrival counts (core.arrival_counts), and the
ages above each x are tallied once from their sum (core.counts_above).
The saved ages (core.aoi_path_matrix) read the same arrival table.  The
chunks are drawn from one Philox generator seeded with the caller's seed,
and each holds about _CHUNK_FLOATS floats of draws, so memory grows
neither with the number of paths nor with the packets per path (a long
horizon or a fine tau).  The draw is path-major and becomes the delays in place, so the
bytes do not depend on the chunk size.  The same draw yields the ages of
its first paths on request; that is what the CLI saves as paths.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CcdfGrid, aoi_path_matrix, arrival_counts, counts_above, decompose_time
from .links import DelayModel, g_apply

# Draws held at once by simulate_empirical_ccdf: each chunk has
# max(_CHUNK_FLOATS // n_packets, 1) paths.  A chunk holds its delays, the
# counting kernel's arrival times and at most a boolean each, so at most
# about 17 * _CHUNK_FLOATS bytes; the draws do not depend on it.  Smaller
# budgets spend more time per path in numpy calls over short rows.
_CHUNK_FLOATS = 1 << 17


@dataclass
class EmpiricalCcdf:
    """Empirical CCDF grid plus per-cell binomial standard errors, the
    count of still-infinite ages per observation time, and the ages of the
    leading paths, one row per path."""

    grid: CcdfGrid
    stderr: np.ndarray
    n_infinite: np.ndarray
    ages: np.ndarray


def sample_driver(
    model: DelayModel,
    n: int,
    rng: np.random.Generator,
    n_paths: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gaussian driver samples at the first n generation instants, a
    C-ordered array of shape (n_paths, n), exact in distribution: the
    stationary AR(1) chain Z_0 ~ N(0,1), Z_{i+1} = rho*Z_i + sqrt(1-rho^2)*xi_i,
    which at rho = 0 is the raw N(0,1) draw bit for bit; at rho = 1, Z_0
    repeated.

    Draws from and advances rng, so rows drawn in chunks from one Generator
    equal one draw of all rows.  The recursion runs in place down the
    columns of the path-major draw, so the result is the only array of its
    size; it is out when given, a C-contiguous (n_paths, n) float array.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rho = model.step_correlation()
    if rho == 1.0:
        z = np.empty((n_paths, n)) if out is None else out
        z[:] = rng.standard_normal(n_paths)[:, None]
        return z
    z = rng.standard_normal((n_paths, n), out=out)
    z[:, 1:] *= math.sqrt(1.0 - rho * rho)
    prev = np.empty(n_paths)
    for i in range(1, n):
        np.multiply(z[:, i - 1], rho, out=prev)
        z[:, i] += prev
    return z


def _chunk_counts(
    model: DelayModel,
    t_grid: np.ndarray,
    rng: np.random.Generator,
    saved: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """core.arrival_counts of len(work) fresh paths, drawn into work, where
    the link maps them to delays in place.  Ages are built only for the
    leading paths that saved holds."""
    z = sample_driver(model, work.shape[1], rng, len(work), out=work)
    delays = g_apply(model.link, z, out=z)
    if len(saved):
        saved[:] = aoi_path_matrix(delays[: len(saved)], model.schedule, t_grid)
    return arrival_counts(delays, model.schedule, t_grid)


def simulate_empirical_ccdf(
    model: DelayModel,
    t_grid: Sequence[float],
    x_grid: Sequence[float],
    n_paths: int,
    seed: int,
    n_saved: int = 0,
) -> EmpiricalCcdf:
    """Empirical Pr(A_t > x) over the grid from n_paths paths drawn with
    seed, and the ages of the first n_saved paths of the same draw.

    Each chunk of paths adds its arrival counts; per observation time, the
    paths whose age exceeds each x are read from their sum on the arrival
    lattice: the paths whose newest arrival is packet L have age t - L*tau,
    and an age equal to x does not count.  Paths with no arrival yet have
    infinite age, exceed every finite threshold and are additionally
    counted per observation time.  The counts are exact integers, so p
    equals the mean of the per-path indicators bit for bit.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not 0 <= n_saved <= n_paths:
        raise ValueError(f"n_saved must lie in [0, {n_paths}], got {n_saved}")
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    # Every packet generated by the horizon.
    n_packets = decompose_time(t_grid.max(), model.schedule.tau)[0] + 1
    arrived = np.zeros((n_packets + 1, t_grid.size), dtype=np.int64)
    ages = np.empty((n_saved, t_grid.size))
    chunk = max(_CHUNK_FLOATS // n_packets, 1)
    # One buffer for every chunk's draw: arrays freed chunk by chunk went
    # back to the system and were faulted in again, 512 pages a chunk at
    # tau = 0.05 on README's config.
    work = np.empty((min(chunk, n_paths), n_packets))
    for start in range(0, n_paths, chunk):
        size = min(chunk, n_paths - start)
        arrived += _chunk_counts(model, t_grid, rng, ages[start : start + size], work[:size])
    counts, n_infinite = counts_above(arrived, n_paths, model.schedule, t_grid, x_grid)
    p = counts / n_paths
    stderr = np.sqrt(p * (1.0 - p) / n_paths)
    grid = CcdfGrid(t_values=t_grid, x_values=x_grid, p=p)
    return EmpiricalCcdf(grid=grid, stderr=stderr, n_infinite=n_infinite, ages=ages)
