"""Model-agnostic age-of-information machinery.

A source emits packet n at time n*tau; packet n reaches the monitor after
a delay D_n.  The age at time t is t minus the generation time of the
newest packet that has arrived.  Writing t = k*tau + phi (decompose_time,
for one time or a whole grid), the event {A_t > x} is {the n most recent
packets are all late}, with n = k + 1 - ages_above; its probability is a
plateau value of the phase profile computed in outputs.  This module holds
that bookkeeping, the CCDF grid container and the simulator's kernels,
which read one arrival table: per-path ages (aoi_path_matrix) and arrival
counts (arrival_counts, tallied above each x by counts_above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Relative slack used when snapping a phase that lands at tau - epsilon
# due to floating-point division.
_PHASE_RTOL = 1e-12

# Paths from which arrival_counts counts each (packet, grid time) cell with
# its own 1-D count_nonzero, which is several times faster per element than
# a row-wise count but costs about a microsecond a call.  Below it, one
# row-wise count per grid time covers every packet generated by then.  The
# two cross near 4096 paths (2-core VM, numpy 2.4).
_CELL_COUNT_PATHS = 4096


@dataclass(frozen=True)
class GenerationSchedule:
    """Constant inter-generation interval; packet n is generated at n*tau."""

    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")


def decompose_time(t, tau: float):
    """Split t into (k, phi) with t = k*tau + phi and 0 <= phi < tau: an int
    and a float for a scalar t, an integer and a float array for an array.

    Phases within a relative tolerance of the slot boundary are snapped to
    the boundary, since downstream branches are discontinuous there.
    """
    ts = np.asarray(t, dtype=float)
    bad = ~((ts >= 0) & (ts < np.inf))
    if bad.any():
        raise ValueError(f"t must be a finite non-negative number, got {ts[bad].flat[0]}")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a positive finite number, got {tau}")
    k = np.floor(ts / tau)
    if not np.all(k < 2.0**62):
        raise ValueError(f"t/tau must be below 2**62, got t={ts.max()} at tau={tau}")
    phi = ts - k * tau
    up = phi >= tau * (1.0 - _PHASE_RTOL)
    k = (k + up).astype(int)
    phi = np.where(up | (phi < 0.0), 0.0, phi)
    return (int(k), float(phi)) if ts.ndim == 0 else (k, phi)


def ages_above(t_grid, x_grid, tau: float) -> np.ndarray:
    """c[j, i] = #{L <= k_j : t_j - L*tau > x_i}, shape (len(t_grid),
    len(x_grid)): the packets generated by t_j whose age, in floats as
    aoi_path_matrix computes it, exceeds x_i (a tie does not).  The one
    lattice rule of both grids: the exact block length is k_j + 1 - c."""
    t = np.asarray(t_grid, dtype=float)[:, None]
    x = np.asarray(x_grid, dtype=float)
    nan = np.flatnonzero(np.isnan(x))
    if nan.size:
        raise ValueError(f"x_grid must not hold NaN, got one at index {nan[0]}")
    k = decompose_time(t, tau)[0]
    # The ages fall as L grows, so c is the first L whose age is at most x.
    # ceil((t - x)/tau) is within rounding of it; step it onto the ages.
    c = np.clip(np.ceil((t - x) / tau), 0, k + 1)
    while np.any(up := (c <= k) & (t - c * tau > x)):
        c += up
    while np.any(down := (c > 0) & (t - (c - 1) * tau <= x)):
        c -= down
    return c.astype(np.int64)


def _checked_paths(
    delays, schedule: GenerationSchedule, t_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delays as a 2-D float array, one row per path, t_grid as a float
    array and the slot k of each of its times, once the delays are finite
    and non-negative, t_grid ascends and the delays cover every packet
    generated by its last time."""
    delays = np.atleast_2d(np.asarray(delays, dtype=float))
    # One reduction pair, no boolean temporaries: a NaN fails both tests.
    if delays.size and not (delays.min() >= 0 and delays.max() < np.inf):
        raise ValueError("delays must be finite and non-negative")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be sorted ascending")
    n_packets = delays.shape[1]
    k = decompose_time(t_grid, schedule.tau)[0]
    if k.size and k[-1] >= n_packets:
        raise ValueError(f"delays cover {n_packets} packets but the horizon needs {k[-1] + 1}")
    return delays, t_grid, k


def _arrival_table(
    delays, schedule: GenerationSchedule, t_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrival table s, shape (n_packets, n_paths), t_grid as a float
    array and the first grid time that generates each packet, for delays
    that _checked_paths accepts.  s[i] is the least arrival time of packets
    i and later, so the newest packet arrived by t is #{i : s_i <= t} - 1.
    Far out, i*tau can round to at or below a t that decompose_time puts in
    slot i - 1, so an arrival moves up to the first grid time that has
    generated its packet."""
    delays, t_grid, k = _checked_paths(delays, schedule, t_grid)
    n_paths, n_packets = delays.shape
    first = np.searchsorted(k, np.arange(n_packets))
    generated = np.append(t_grid, np.inf)[first]
    # One row per packet, so the suffix minimum runs down contiguous rows.
    s = np.empty((n_packets, n_paths))
    np.add((np.arange(n_packets) * schedule.tau)[:, None], delays.T, out=s)
    np.maximum(s, generated[:, None], out=s)
    for i in range(n_packets - 2, -1, -1):
        np.minimum(s[i], s[i + 1], out=s[i])
    return s, t_grid, first


def aoi_path_matrix(
    delays: np.ndarray,
    schedule: GenerationSchedule,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Ages at the given observation times for a batch of delay sequences.

    delays has shape (n_paths, n_packets); the result has shape
    (n_paths, len(t_grid)) with +inf where no packet has arrived yet.
    Arrival ties (arrival time exactly t) count as arrived, and the ages
    are read off the arrival table.
    """
    s, t_grid, first = _arrival_table(delays, schedule, t_grid)
    rows = np.searchsorted(first, np.arange(t_grid.size), side="right")
    ages = np.empty((s.shape[1], t_grid.size))
    for j, (r, t) in enumerate(zip(rows, t_grid)):
        count = np.count_nonzero(s[:r] <= t, axis=0)
        ages[:, j] = np.where(count > 0, t - (count - 1) * schedule.tau, np.inf)
    return ages


def arrival_counts(
    delays: np.ndarray, schedule: GenerationSchedule, t_grid: Sequence[float]
) -> np.ndarray:
    """C[i, j] = #{paths : s_i <= t_j}, shape (n_packets + 1, len(t_grid)),
    over the arrival table s (row n_packets is 0).  The counts of chunks of
    paths add up to those of all of them.

    delays and the checks are aoi_path_matrix's.  Memory is one copy of
    delays, and with fewer than _CELL_COUNT_PATHS paths one boolean per
    delay.
    """
    s, t_grid, first = _arrival_table(delays, schedule, t_grid)
    n_packets, n_paths = s.shape
    # C[i, j] for the packets generated by t_j.
    arrived = np.zeros((n_packets + 1, t_grid.size), dtype=np.int64)
    if n_paths >= _CELL_COUNT_PATHS:
        hit = np.empty(n_paths, dtype=bool)
        for i, row in enumerate(s):
            for j in range(first[i], t_grid.size):
                arrived[i, j] = np.count_nonzero(np.less_equal(row, t_grid[j], out=hit))
    else:
        rows = np.searchsorted(first, np.arange(t_grid.size), side="right")
        hit = np.empty(s.shape, dtype=bool)
        for j, (r, t) in enumerate(zip(rows, t_grid)):
            arrived[:r, j] = np.count_nonzero(np.less_equal(s[:r], t, out=hit[:r]), axis=1)
    return arrived


def counts_above(
    arrived: np.ndarray,
    n_paths: int,
    schedule: GenerationSchedule,
    t_grid: Sequence[float],
    x_grid: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Per t, the paths of n_paths whose age exceeds each x, shape
    (len(t_grid), len(x_grid)), and the infinite ages, from their
    arrival_counts C: C[0, j] - C[c, j] paths have a finite age above x,
    with c from ages_above, and the infinite ages exceed every x but +inf."""
    c = ages_above(t_grid, x_grid, schedule.tau)
    n_infinite = n_paths - arrived[0]
    above = np.outer(n_infinite, np.asarray(x_grid, dtype=float) < np.inf)
    above += arrived[0][:, None] - np.take_along_axis(arrived.T, c, axis=1)
    return above, n_infinite


@dataclass
class CcdfGrid:
    """Pr(A_t > x) tabulated over a (t, x) grid."""

    t_values: np.ndarray
    x_values: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.t_values = np.asarray(self.t_values, dtype=float)
        self.x_values = np.asarray(self.x_values, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.p.shape != (self.t_values.size, self.x_values.size):
            raise ValueError("p must have shape (len(t_values), len(x_values))")
        if np.any(self.p < -1e-12) or np.any(self.p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        self.p = np.clip(self.p, 0.0, 1.0)
