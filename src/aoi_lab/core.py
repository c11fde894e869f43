"""Model-agnostic age-of-information machinery.

A source emits packet n at time n*tau; packet n reaches the monitor after
a delay D_n.  The age at time t is t minus the generation time of the
newest packet that has arrived.  Writing t = k*tau + phi, the event
{A_t > x} is {the n most recent packets are all late}, with n given by
block_length; its probability is a plateau value of the phase profile
computed in outputs.  This module holds that bookkeeping, the sample-path
age evaluation used by the simulator, and the CCDF grid container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Relative slack used when snapping a phase that lands at tau - epsilon
# due to floating-point division.
_PHASE_RTOL = 1e-12


@dataclass(frozen=True)
class GenerationSchedule:
    """Constant inter-generation interval; packet n is generated at n*tau."""

    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")


@dataclass(frozen=True)
class TimeDecomposition:
    """Index of the latest generated packet and the phase within the slot."""

    t: float
    k: int
    phi: float


def decompose_time(t: float, tau: float) -> TimeDecomposition:
    """Split t into (k, phi) with t = k*tau + phi and 0 <= phi < tau.

    Phases within a relative tolerance of the slot boundary are snapped to
    the boundary, since downstream branches are discontinuous there.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be a finite non-negative number, got {t}")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be a positive finite number, got {tau}")
    k = int(math.floor(t / tau))
    phi = t - k * tau
    if phi >= tau * (1.0 - _PHASE_RTOL):
        k += 1
        phi = 0.0
    elif phi < 0.0:
        phi = 0.0
    return TimeDecomposition(t=t, k=k, phi=phi)


def block_length(x, phi, tau: float, k=None):
    """Number n of most recent packets that must all be late for A > x at
    phase phi: 0 below the phase (the event is certain), otherwise
    floor((x - phi)/tau) + 1, capped at k + 1 (every packet generated by
    t = k*tau + phi) when k is given.  x, phi and k broadcast; scalars give
    an int, arrays an integer array."""
    x, phi = np.asarray(x, dtype=float), np.asarray(phi, dtype=float)
    n = np.where(x < phi, 0.0, np.floor((x - phi) / tau) + 1.0)
    if k is not None:
        n = np.minimum(n, np.asarray(k) + 1)
    if not np.all(np.isfinite(n)):
        raise ValueError("an infinite x needs the cap k")
    n = n.astype(int)
    return int(n) if n.ndim == 0 else n


def _checked_paths(
    delays, schedule: GenerationSchedule, t_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """delays as a 2-D float array, one row per path, and t_grid as a float
    array, once the delays are finite and non-negative, t_grid ascends and
    the delays cover every packet generated by its last time."""
    delays = np.atleast_2d(np.asarray(delays, dtype=float))
    # One reduction pair, no boolean temporaries: a NaN fails both tests.
    if delays.size and not (delays.min() >= 0 and delays.max() < np.inf):
        raise ValueError("delays must be finite and non-negative")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be sorted ascending")
    n_packets = delays.shape[1]
    k_max = decompose_time(float(t_grid[-1]), schedule.tau).k if t_grid.size else -1
    if k_max >= n_packets:
        raise ValueError(
            f"delays cover {n_packets} packets but the horizon needs {k_max + 1}"
        )
    return delays, t_grid


def aoi_path_matrix(
    delays: np.ndarray,
    schedule: GenerationSchedule,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Ages at the given observation times for a batch of delay sequences.

    delays has shape (n_paths, n_packets); the result has shape
    (n_paths, len(t_grid)) with +inf where no packet has arrived yet.
    Arrival ties (arrival time exactly t) count as arrived.
    """
    delays, t_grid = _checked_paths(delays, schedule, t_grid)
    tau = schedule.tau
    n_packets = delays.shape[1]
    beta = np.arange(n_packets) * tau + delays
    ages = np.empty((delays.shape[0], t_grid.size))
    for j, t in enumerate(t_grid):
        k = min(decompose_time(float(t), tau).k, n_packets - 1)
        arrived = beta[:, : k + 1] <= t
        any_arrived = arrived.any(axis=1)
        latest = k - np.argmax(arrived[:, ::-1], axis=1)
        ages[:, j] = np.where(any_arrived, t - latest * tau, np.inf)
    return ages


def exceedance_counts(
    delays: np.ndarray,
    schedule: GenerationSchedule,
    t_grid: Sequence[float],
    x_grid: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Per observation time, the number of paths whose age exceeds each x,
    shape (len(t_grid), len(x_grid)), and the number of infinite ages,
    shape (len(t_grid),): the column sums of aoi_path_matrix's ages > x and
    of its infinite ages, without building the ages.

    delays and the checks are aoi_path_matrix's.  The age at t is t - L*tau
    for the newest arrived packet L, so it takes one of a few lattice
    values: the counts are read off the arrival lattice.  With s_i the
    least arrival time of packets i and later, s_i is non-decreasing in i
    and L = #{i : s_i <= t} - 1.  So C[i, j] = #{paths : s_i <= t_j} gives
    C[L, j] - C[L + 1, j] paths of age t_j - L*tau, and the paths counted
    above x are those of the lattice ages above x.  The infinite ages
    exceed every x but +inf.  Memory is one copy of delays.
    """
    delays, t_grid = _checked_paths(delays, schedule, t_grid)
    x_grid = np.asarray(x_grid, dtype=float)
    tau = schedule.tau
    n_paths, n_packets = delays.shape
    gen = np.arange(n_packets) * tau
    # Packet i counts at t only once decompose_time puts i among the packets
    # generated by t, as in aoi_path_matrix.  Far out, i*tau can round to at
    # or below a t that decompose_time puts in slot i - 1; so the arrival
    # moves up to the first grid time that has generated the packet.
    k = np.array([decompose_time(float(t), tau).k for t in t_grid], dtype=int)
    first = np.searchsorted(k, np.arange(n_packets))
    generated = np.append(t_grid, np.inf)[first]
    # One row per packet, so the suffix minimum runs down contiguous rows.
    s = np.empty((n_packets, n_paths))
    np.add(gen[:, None], delays.T, out=s)
    np.maximum(s, generated[:, None], out=s)
    for i in range(n_packets - 2, -1, -1):
        np.minimum(s[i], s[i + 1], out=s[i])
    arrived = np.zeros((n_packets + 1, t_grid.size), dtype=np.int64)
    hit = np.empty(n_paths, dtype=bool)
    for i, row in enumerate(s):
        for j in range(first[i], t_grid.size):
            arrived[i, j] = np.count_nonzero(np.less_equal(row, t_grid[j], out=hit))
    n_infinite = n_paths - arrived[0]
    above = np.outer(n_infinite, x_grid < np.inf)
    for j, t in enumerate(t_grid):
        # The lattice ages t - L*tau in ascending order; n_above exceed x.
        n_above = n_packets - np.searchsorted(t - gen[::-1], x_grid, side="right")
        above[j] += arrived[0, j] - arrived[n_above, j]
    return above, n_infinite


@dataclass
class CcdfGrid:
    """Pr(A_t > x) tabulated over a (t, x) grid."""

    t_values: np.ndarray
    x_values: np.ndarray
    p: np.ndarray
    kind: str

    def __post_init__(self):
        self.t_values = np.asarray(self.t_values, dtype=float)
        self.x_values = np.asarray(self.x_values, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.kind not in ("exact", "empirical"):
            raise ValueError(f"kind must be 'exact' or 'empirical', got {self.kind!r}")
        if self.p.shape != (self.t_values.size, self.x_values.size):
            raise ValueError("p must have shape (len(t_values), len(x_values))")
        if np.any(self.p < -1e-12) or np.any(self.p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        self.p = np.clip(self.p, 0.0, 1.0)
