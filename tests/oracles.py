"""Test-only oracles for Gaussian orthant probabilities: the closed forms
of the independent and fully-frozen limits, a plain Monte-Carlo
estimator over the chain's covariance matrix as an independent
cross-check of the stagewise engine, the orthant probability of one
chain run coordinate by coordinate, the per-phase chain sweep that
the batched one replaced, the percentile bisection that false position
replaced, and the elementwise bisection over array brackets that the
scalar links._bisect replaced.  For the simulator: the per-path ages by
an argmax over the arrived packets, which the arrival table replaced,
the exceedance counts of a batch of paths from its arrival counts, and
the arrival-lattice counting kernel with one count per (packet, time)
cell, which core.arrival_counts keeps only for chunks of many paths."""

import math
from statistics import NormalDist

import numpy as np

from aoi_lab import orthant, outputs
from aoi_lab.errors import EvaluationError
from aoi_lab.core import _checked_paths, arrival_counts, counts_above, decompose_time
from aoi_lab.links import g_apply, g_inverse, marginal_moments
from aoi_lab.orthant import OuChain, QuadratureSpec, std_normal_tail


def orthant_iid(a) -> float:
    """Product-form tail probability for independent standard normals."""
    return float(np.prod(std_normal_tail(a)))


def orthant_frozen(a) -> float:
    """Tail probability when all coordinates are the same normal draw."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 1.0
    return float(std_normal_tail(np.max(a)))


def ou_covariance(rho: float, n: int) -> np.ndarray:
    """Covariance matrix rho**|i-j| of n consecutive samples of the chain."""
    lags = np.arange(n)
    return float(rho) ** np.abs(lags[:, None] - lags[None, :])


def mvn_orthant_mc(
    cov: np.ndarray,
    a,
    n_samples: int,
    seed: int,
    chunk: int = 1 << 17,
) -> tuple[float, float]:
    """Monte-Carlo estimate of Pr(Z > a componentwise) for Z ~ N(0, cov).

    Returns (estimate, binomial standard error).  Deterministic given the
    seed; the covariance may be singular (tolerance-clipped eigenfactor).
    """
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(cov, dtype=float)
    if a.shape != (sigma.shape[0],):
        raise ValueError("threshold vector length must match covariance size")
    w, v = np.linalg.eigh(sigma)
    if w.min() < -1e-8 * max(w.max(), 1.0):
        raise EvaluationError(
            f"covariance matrix is indefinite (min eigenvalue {w.min():.3e})"
        )
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    remaining = int(n_samples)
    while remaining > 0:
        k = min(chunk, remaining)
        z = rng.standard_normal((k, a.size)) @ factor.T
        hits += int(np.all(z > a, axis=1).sum())
        remaining -= k
    p = hits / n_samples
    return p, float(np.sqrt(p * (1.0 - p) / n_samples))


def ou_orthant(a, rho: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Pr(Z_i > a_i for all i) for the stationary AR(1) chain with one-step
    correlation rho in (0, 1).  Entries of -inf are vacuous."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 1.0
    chain = OuChain(rho, spec)
    for ai in a:
        chain.extend(ai)
    return float(chain.prob[0])


class PhaseChain:
    """One phase's chain, stage by stage: orthant.OuChain as it was before
    it took a batch axis, with the same stage rule, grids and banding, on
    its own truncation [-L, L]: a threshold of L or more ends the chain."""

    L = 8.0

    def __init__(self, rho: float, spec: QuadratureSpec = QuadratureSpec()):
        self.rho = float(rho)
        self.sd = float(np.sqrt(1.0 - rho * rho))
        self.spec = spec
        self.prob = 1.0
        self.n = 0
        self._nodes = self._weights = self._density = self._lo = None

    def extend(self, a: float) -> float:
        L = self.L
        lo_new = max(float(a), -L)
        self.n += 1
        if self.prob == 0.0 or a >= L:
            self.prob = 0.0
            return 0.0
        if self.n == 1:
            tail = float(std_normal_tail(a))
            self.prob = tail
            nodes, weights = self._grid([lo_new, L])
            density = orthant._std_normal_pdf(nodes) / tail
        else:
            breaks = [lo_new]
            edge = self.rho * self._lo
            if lo_new + 1e-9 < edge < L - 1e-9:
                breaks.append(edge)
            breaks.append(L)
            nodes, weights = self._grid(breaks)
            raw = self._propagate(nodes)
            tail = min(max(float(weights @ raw), 0.0), 1.0)
            self.prob *= tail
            if self.prob < orthant._TINY_PROB or tail == 0.0:
                self.prob = 0.0
                return 0.0
            density = raw / tail
        self._nodes, self._weights, self._density = nodes, weights, density
        self._lo = lo_new
        return self.prob

    def _grid(self, breaks):
        breaks = np.asarray(breaks, dtype=float)
        span = breaks[-1] - breaks[0]
        widths = span * self.rho / self.sd
        accurate = max(math.ceil(3.0 * widths), 40)
        n = max(math.ceil(2.0 * widths), min(self.spec.m, accurate))
        h = span * 20 / n
        counts = np.ceil(np.diff(breaks) / h).astype(int)
        edges = [np.linspace(lo, hi, k, endpoint=False)
                 for lo, hi, k in zip(breaks[:-1], breaks[1:], counts)]
        return orthant._panels(np.concatenate(edges + [breaks[-1:]]))

    def _propagate(self, targets):
        rho, sd = self.rho, self.sd
        centres = rho * self._nodes
        mass = self._weights * self._density
        starts = np.searchsorted(targets, np.arange(targets[0], targets[-1], 64.0 * sd))
        stops = np.append(starts[1:], targets.size)
        firsts = np.searchsorted(centres, targets[starts] - 9.0 * sd)
        lasts = np.searchsorted(centres, targets[stops - 1] + 9.0 * sd, "right")
        raw = np.empty(targets.size)
        for i0, i1, j0, j1 in zip(starts, stops, firsts, lasts):
            k = orthant._std_normal_pdf((targets[i0:i1, None] - centres[j0:j1]) / sd) / sd
            raw[i0:i1] = k @ mass[j0:j1]
        return raw


def phase_profile(model, phi: float, n_max: int, spec: QuadratureSpec) -> np.ndarray:
    """Q_phi[0..n_max] of one phase by its own PhaseChain sweep, with the
    engine's cut at a dead coordinate; rho in (0, 1)."""
    a = np.atleast_1d(g_inverse(model.link, np.arange(n_max) * model.schedule.tau + phi))
    q = np.zeros(n_max + 1)
    q[0] = 1.0
    dead = std_normal_tail(a) < 1e-15
    n_alive = int(np.argmax(dead)) if dead.any() else n_max
    chain = PhaseChain(model.step_correlation(), spec)
    for j in range(n_alive):
        q[j + 1] = chain.extend(float(a[j]))
    return q


def bisection_percentiles(model, levels, spec=QuadratureSpec(), x_ceiling=None, evaluator=None):
    """Percentiles of the time-averaged AoI law by one vectorized bisection
    over [0, hi], to adjacent floats, with outputs.percentiles' bracket
    start, doubling and +inf rule."""
    ev = evaluator or outputs.TimeAverageEvaluator(model, spec)
    tau = model.schedule.tau
    mean_delay, _ = marginal_moments(model.link)
    ceiling = x_ceiling if x_ceiling is not None else 50.0 * tau + 20.0 * mean_delay
    targets = 1.0 - np.asarray(levels, dtype=float)
    hi = min(tau + g_apply(model.link, NormalDist().inv_cdf(max(levels))), ceiling)
    while ev.value(hi) > targets.min() and hi < ceiling:
        hi = min(2.0 * hi, ceiling)
    roots = bisect(lambda x: targets - ev.value(x), np.zeros_like(targets), hi)
    return np.where(ev.value(hi) <= targets, roots, np.inf)


def bisect(f, lo, hi):
    """Least x in [lo, hi] with f(x) >= 0, to adjacent floats, for f
    non-decreasing with f(hi) >= 0; elementwise over array brackets."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    hi = np.where(f(lo) >= 0, lo, hi)
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return hi if hi.ndim else float(hi)
        up = f(mid) >= 0
        lo = np.where(inside & ~up, mid, lo)
        hi = np.where(inside & up, mid, hi)


def argmax_path_matrix(delays, schedule, t_grid):
    """core.aoi_path_matrix by an argmax over the packets generated by each
    t: the newest of them with arrival time at most t sets the age."""
    delays, t_grid, ks = _checked_paths(delays, schedule, t_grid)
    tau = schedule.tau
    n_packets = delays.shape[1]
    beta = np.arange(n_packets) * tau + delays
    ages = np.empty((delays.shape[0], t_grid.size))
    for j, (k, t) in enumerate(zip(np.minimum(ks, n_packets - 1).tolist(), t_grid)):
        arrived = beta[:, : k + 1] <= t
        any_arrived = arrived.any(axis=1)
        latest = k - np.argmax(arrived[:, ::-1], axis=1)
        ages[:, j] = np.where(any_arrived, t - latest * tau, np.inf)
    return ages


def exceedance_counts(delays, schedule, t_grid, x_grid):
    """Per observation time, the number of paths whose age exceeds each x,
    shape (len(t_grid), len(x_grid)), and the number of infinite ages,
    shape (len(t_grid),): the column sums of aoi_path_matrix's ages > x and
    of its infinite ages, by core.counts_above over core.arrival_counts,
    as the simulator counts them."""
    delays = np.atleast_2d(delays)
    arrived = arrival_counts(delays, schedule, t_grid)
    return counts_above(arrived, len(delays), schedule, t_grid, x_grid)


def cell_exceedance_counts(delays, schedule, t_grid, x_grid):
    """exceedance_counts with one count per (packet, grid time) cell:
    row i of the suffix minimum of the arrival times is counted at every
    grid time from the first that has generated packet i."""
    delays, t_grid, _ = _checked_paths(delays, schedule, t_grid)
    x_grid = np.asarray(x_grid, dtype=float)
    tau = schedule.tau
    n_paths, n_packets = delays.shape
    gen = np.arange(n_packets) * tau
    k = np.array([decompose_time(float(t), tau)[0] for t in t_grid], dtype=int)
    first = np.searchsorted(k, np.arange(n_packets))
    generated = np.append(t_grid, np.inf)[first]
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
        n_above = n_packets - np.searchsorted(t - gen[::-1], x_grid, side="right")
        above[j] += arrived[0, j] - arrived[n_above, j]
    return above, n_infinite
