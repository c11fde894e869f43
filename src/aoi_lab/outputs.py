"""Exact CCDF grids and derived reports (atoms, heat maps, time averages,
percentiles, dominance), plus CSV/JSON serialization.

The exact engine evaluates Pr(A_t > x) as a Gaussian joint-tail
probability of the threshold vector g_inverse(j*tau + phi), j = 0..n-1.
By stationarity (and time-reversibility of the Gauss-Markov chain) that
probability depends on (t, x) only through the phase phi_t and the block
length n, so the whole law of A_t at phase phi is the profile
Q_phi[0..n] from ccdf_profile, the single exact primitive every report
here reads.  Grid cells are grouped into phase classes and each class is
served by a single chain sweep whose prefixes yield every block length at
once.  The time average is the exact phase integral of the profiles:
Chebyshev interpolants of Q_phi[n] on phase pieces split at x_min mod tau,
integrated in closed form; percentiles invert it by bisection.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .core import CcdfGrid, block_length, decompose_time
from .errors import EvaluationError, QuadratureError
from .links import DelayModel, _bisect, g_apply, g_inverse, marginal_moments
from .orthant import OuChain, QuadratureSpec, std_normal_tail

# Joint tails are bounded by the smallest single-coordinate tail; once a
# threshold's own tail drops below this, the block probability is zero at
# double precision and no quadrature is attempted.
_TAIL_FLOOR = 1e-15

# Number of decimals of phi/tau used to identify a phase class.
_PHASE_DECIMALS = 10

# The time average's phase law.  Q_phi[n] is smooth in phi except at
# b = x_min mod tau, where a threshold leaves -inf.  [0, tau) is split at b,
# and right of b, where the lognormal link's Q has a flat, non-analytic
# endpoint, into _GRADE_LEVELS + 1 pieces whose widths shrink by
# _GRADE_RATIO toward b.  Each piece is sampled at _CHEB_DEGREE + 1
# first-kind Chebyshev points, which lie strictly inside it: Q jumps at b on
# a censored link and at the period boundary, and a node on a piece's end
# would read the far side of the jump.
_CHEB_DEGREE = 8
_GRADE_RATIO = 0.3
_GRADE_LEVELS = 2


def _phase_key(phi: float, tau: float) -> float:
    return round(phi / tau, _PHASE_DECIMALS)


def ccdf_profile(
    model: DelayModel,
    phi: float,
    n_max: int,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Plateau values Q[0..n_max] of the AoI CCDF at phase phi.

    Q[n] is the joint probability that the n most recent packets are all
    late, i.e. the Gaussian tail over thresholds g_inverse(j*tau + phi),
    j = 0..n-1; Q[0] = 1.  Computed in one chain sweep (thresholds in
    non-decreasing order, valid by time-reversibility), so every prefix
    length is a byproduct.
    """
    tau = model.schedule.tau
    args = np.arange(n_max) * tau + phi
    a = g_inverse(model.link, args) if n_max > 0 else np.empty(0)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    q = np.ones(n_max + 1)
    kind = model.correlation.kind
    if kind == "iid":
        q[1:] = np.cumprod(std_normal_tail(a))
        return q
    if kind == "frozen":
        # Thresholds are non-decreasing, so the running max is the last one.
        q[1:] = std_normal_tail(np.maximum.accumulate(a))
        return q
    rho = model.step_correlation()
    # Cut the sweep where a single coordinate already forces zero mass.
    dead = std_normal_tail(a) < _TAIL_FLOOR
    n_alive = int(np.argmax(dead)) if dead.any() else n_max
    if n_alive > 0 and np.max(a[:n_alive]) >= spec.L:
        grow = float(np.max(a[:n_alive])) + 4.0
        spec = QuadratureSpec(m=int(math.ceil(spec.m * grow / spec.L)), L=grow)
    chain = OuChain(rho, spec)
    for j in range(n_alive):
        q[j + 1] = chain.extend(float(a[j]))
    q[n_alive + 1 :] = 0.0
    return q


def _profiles(
    model: DelayModel,
    tasks: Sequence[tuple[float, int]],
    spec: QuadratureSpec,
    threads: int,
) -> list[np.ndarray]:
    """ccdf_profile at each (phi, n_max) in tasks, in order, on a pool of
    up to `threads` worker threads.  Outputs do not depend on `threads`:
    every profile is computed alone, by the same chain sweep."""

    def compute(task: tuple[float, int]) -> np.ndarray:
        phi, n_max = task
        try:
            return ccdf_profile(model, phi, n_max, spec)
        except QuadratureError as exc:
            raise QuadratureError(f"phase phi={phi}: {exc}") from exc

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(compute, tasks))
    return [compute(t) for t in tasks]


@dataclass(frozen=True)
class AoiSupport:
    """Finite support of A_t: candidate ages n*tau + phi_t plus infinity."""

    t: float
    atoms: np.ndarray
    masses: np.ndarray
    p_infinity: float
    j_star: int

    def __post_init__(self):
        if self.atoms.size and np.any(np.diff(self.atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")


def aoi_support(
    model: DelayModel, t: float, spec: QuadratureSpec | None = None
) -> AoiSupport:
    """Atom locations and masses of the (discrete + infinite) law of A_t.

    The plateau values c[n] = Pr(A_t > x) for x in ((n-1)*tau + phi,
    n*tau + phi) are the phase profile, so masses are differences of
    adjacent profile values and p_infinity (no packet arrived by t) is
    c[k+1].  The link's left endpoint x_min gates the smallest achievable
    age index j_star; an age of x_min itself is achievable.
    """
    spec = spec if spec is not None else QuadratureSpec()
    tau = model.schedule.tau
    dec = decompose_time(t, tau)
    k, phi = dec.k, dec.phi
    c = ccdf_profile(model, phi, k + 1, spec)
    x_min = model.link.x_min
    j_star = next((j for j in range(k + 1) if x_min <= j * tau + phi), k + 1)
    ns = np.arange(j_star, k + 1)
    return AoiSupport(
        t=t,
        atoms=ns * tau + phi,
        masses=np.clip(c[ns] - c[ns + 1], 0.0, None),
        p_infinity=float(c[k + 1]),
        j_star=j_star,
    )


def exact_ccdf_grid(
    model: DelayModel,
    t_grid: Sequence[float],
    x_grid: Sequence[float],
    spec: QuadratureSpec | None = None,
    threads: int = 1,
) -> CcdfGrid:
    """Exact Pr(A_t > x) over the grid, one chain sweep per phase class."""
    spec = spec if spec is not None else QuadratureSpec()
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0) or np.any(np.diff(x_grid) < 0):
        raise ValueError("grids must be sorted ascending")
    tau = model.schedule.tau
    decs = [decompose_time(float(t), tau) for t in t_grid]
    keys, cls = np.unique([_phase_key(d.phi, tau) for d in decs], return_inverse=True)
    k = np.array([d.k for d in decs], dtype=int)
    # Every cell's block length at its phase class, and each class's longest.
    n = block_length(x_grid, (keys[cls] * tau)[:, None], tau, k[:, None])
    n_max = np.zeros(keys.size, dtype=int)
    np.maximum.at(n_max, cls, n.max(axis=1, initial=0))
    tasks = [(float(key * tau), int(m)) for key, m in zip(keys, n_max)]
    table = np.zeros((keys.size, n_max.max(initial=0) + 1))
    for row, q in zip(table, _profiles(model, tasks, spec, threads)):
        row[: q.size] = q
    p = table[cls[:, None], n]
    return CcdfGrid(t_values=t_grid, x_values=x_grid, p=p, kind="exact")


@dataclass
class HeatmapGrid:
    """Per-cell mass Pr(A_t > x) - Pr(A_t > x + delta)."""

    t_values: np.ndarray
    x_values: np.ndarray
    mass: np.ndarray
    delta: float


def heatmap(grid: CcdfGrid, delta: float) -> HeatmapGrid:
    """Finite-difference mass of the CCDF grid at lag delta in x.

    The x grid must be uniform with delta an integer multiple of its step.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    x = grid.x_values
    if x.size < 2:
        raise ValueError("x grid too small for a heatmap")
    steps = np.diff(x)
    step = steps[0]
    if not np.allclose(steps, step, rtol=0, atol=1e-9 * max(step, 1.0)):
        raise ValueError("x grid must be uniformly spaced")
    lag = int(round(delta / step))
    if lag < 1 or abs(lag * step - delta) > 1e-9 * max(delta, 1.0):
        raise ValueError(
            f"delta={delta} is not a multiple of the x grid step {step}"
        )
    if lag >= x.size:
        raise ValueError("delta exceeds the x grid span")
    mass = grid.p[:, :-lag] - grid.p[:, lag:]
    if np.any(mass < -1e-12):
        raise EvaluationError("CCDF grid is not non-increasing in x")
    return HeatmapGrid(
        t_values=grid.t_values,
        x_values=x[:-lag],
        mass=np.clip(mass, 0.0, None),
        delta=delta,
    )


class TimeAverageEvaluator:
    """Time-averaged CCDF F_avg(x) = (1/tau) * integral over one period of
    Pr(A_t > x) dt, t in [x, x+tau].

    With x = j*tau + phi* and G_n(phi) the integral of Q_s[n] over s in
    [0, phi], F_avg(x) = (G_{j+1}(phi*) + G_j(tau) - G_j(phi*)) / tau.  G is
    the closed-form integral of the profiles' Chebyshev interpolants on the
    phase pieces, so F_avg is continuous in x.  The profiles are computed
    on up to `threads` worker threads; the values do not depend on it.
    """

    def __init__(
        self, model: DelayModel, spec: QuadratureSpec | None = None, threads: int = 1
    ):
        self.model = model
        self.spec = spec if spec is not None else QuadratureSpec()
        self.threads = threads
        tau = model.schedule.tau
        # decompose_time snaps b: 0.5 % 0.1 is 0.09999999999999998, not 0.
        b = decompose_time(model.link.x_min, tau).phi
        graded = b + (tau - b) * _GRADE_RATIO ** np.arange(_GRADE_LEVELS, -1, -1)
        self.edges = np.concatenate(([0.0, b] if b > 0 else [0.0], graded[:-1], [tau]))
        # Set by _grow: G per piece as Chebyshev coefficients (degree + 2,
        # piece, n), and G at each piece's left edge and at tau (piece, n).
        self._anti = self._base = np.zeros((0, 0))

    def _grow(self, n_max: int) -> None:
        """Profiles at every phase node up to block length n_max."""
        if self._base.shape[1] > n_max:
            return
        nodes = chebyshev.chebpts1(_CHEB_DEGREE + 1)
        pieces = list(zip(self.edges, self.edges[1:]))
        phases = np.concatenate([lo + 0.5 * (hi - lo) * (nodes + 1.0) for lo, hi in pieces])
        tasks = [(float(p), n_max) for p in phases]
        q = np.reshape(
            _profiles(self.model, tasks, self.spec, self.threads), (len(pieces), nodes.size, -1)
        )
        anti = []
        for (lo, hi), q_piece in zip(pieces, q):
            coef = chebyshev.chebfit(nodes, q_piece, _CHEB_DEGREE)
            anti.append(chebyshev.chebint(coef, lbnd=-1, scl=0.5 * (hi - lo)))
        self._anti = np.stack(anti, axis=1)
        totals = chebyshev.chebval(1.0, self._anti)
        self._base = np.vstack([np.zeros(n_max + 1), np.cumsum(totals, axis=0)])

    def _integral(self, phi: np.ndarray, n: np.ndarray) -> np.ndarray:
        """G_n(phi), elementwise."""
        piece = np.clip(np.searchsorted(self.edges, phi, side="right") - 1, 0, self.edges.size - 2)
        lo, hi = self.edges[piece], self.edges[piece + 1]
        t = 2.0 * (phi - lo) / (hi - lo) - 1.0
        return self._base[piece, n] + chebyshev.chebval(t, self._anti[:, piece, n], tensor=False)

    def value(self, x):
        """F_avg at x, a scalar or an array; the profiles grow once to the
        longest block the largest x needs."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs < 0):
            raise ValueError(f"x must be non-negative, got {x}")
        tau = self.model.schedule.tau
        j = np.floor(xs / tau).astype(int)
        phi = np.clip(xs - j * tau, 0.0, tau)
        self._grow(int(j.max()) + 1)
        out = (self._integral(phi, j + 1) + self._base[-1, j] - self._integral(phi, j)) / tau
        return float(out[0]) if np.ndim(x) == 0 else out


@dataclass
class PercentileRow:
    """Percentiles of the time-averaged AoI law for one model setting."""

    link: str
    c: float
    tau: float
    s: float
    levels: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        finite = [v for v in self.values if math.isfinite(v)]
        if any(b < a for a, b in zip(finite, finite[1:])):
            raise ValueError("percentile values must be non-decreasing in level")


DEFAULT_LEVELS = (0.10, 0.25, 0.50, 0.75, 0.90)


def percentiles(
    model: DelayModel,
    levels: Sequence[float] = DEFAULT_LEVELS,
    spec: QuadratureSpec | None = None,
    x_ceiling: float | None = None,
    evaluator: TimeAverageEvaluator | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Generalized inverses inf{x >= 0 : F_avg(x) <= 1 - p} for each level.

    F_avg falls continuously from F_avg(0) = 1, so one vectorized bisection
    finds every level, to adjacent floats, in one bracket [0, hi].  hi
    starts at tau plus the delay quantile q at the deepest level p, or at
    the search ceiling (default 50*tau + 20*mean delay) if that is lower.
    For x >= tau, A_t > x needs the packet generated in [t - x, t - x + tau)
    still in flight, so F_avg(tau + q) <= Pr(D > q) <= 1 - p under any
    correlation, and the profiles grow once.  Otherwise hi doubles up to
    the ceiling, and a level still above F_avg at the ceiling returns +inf:
    +inf means the percentile lies beyond it.  An evaluator built here
    computes its profiles on `threads` threads.
    """
    if any(not 0 < p < 1 for p in levels):
        raise ValueError("levels must lie strictly in (0, 1)")
    ev = evaluator or TimeAverageEvaluator(model, spec, threads)
    tau = model.schedule.tau
    mean_delay, _ = marginal_moments(model.link)
    ceiling = x_ceiling if x_ceiling is not None else 50.0 * tau + 20.0 * mean_delay
    targets = 1.0 - np.asarray(levels, dtype=float)
    hi = min(tau + g_apply(model.link, NormalDist().inv_cdf(max(levels))), ceiling)
    while ev.value(hi) > targets.min() and hi < ceiling:
        hi = min(2.0 * hi, ceiling)
    roots = _bisect(lambda x: targets - ev.value(x), np.zeros_like(targets), hi)
    return np.where(ev.value(hi) <= targets, roots, np.inf)


@dataclass
class DominanceReport:
    """Pointwise comparison of two CCDF grids (stochastic-order check)."""

    passed: bool
    max_violation: float
    worst_t: float
    worst_x: float
    tol: float


def dominance_check(
    grid_low: CcdfGrid, grid_high: CcdfGrid, tol: float = 1e-6
) -> DominanceReport:
    """Verify grid_low <= grid_high + tol cellwise (low = less correlated)."""
    if grid_low.p.shape != grid_high.p.shape or not (
        np.allclose(grid_low.t_values, grid_high.t_values)
        and np.allclose(grid_low.x_values, grid_high.x_values)
    ):
        raise ValueError("dominance check requires identical (t, x) grids")
    diff = grid_low.p - grid_high.p
    idx = np.unravel_index(np.argmax(diff), diff.shape)
    worst = float(diff[idx])
    return DominanceReport(
        passed=worst <= tol,
        max_violation=max(worst, 0.0),
        worst_t=float(grid_low.t_values[idx[0]]),
        worst_x=float(grid_low.x_values[idx[1]]),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Serialization.  All writes are atomic (temp file + rename).


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.12g}"


def _write_table(path: str, header: str, *columns) -> None:
    """CSV of a header line and one row per entry of the equally sized
    columns, each read in C order."""
    cells = [map(_fmt, np.ravel(c).tolist()) for c in columns]
    _atomic_write(path, "\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def write_ccdf_csv(grid: CcdfGrid, path: str, stderr: np.ndarray | None = None) -> None:
    t, x = np.meshgrid(grid.t_values, grid.x_values, indexing="ij")
    if stderr is None:
        _write_table(path, "t,x,ccdf", t, x, grid.p)
    else:
        _write_table(path, "t,x,ccdf,stderr", t, x, grid.p, stderr)


def write_heatmap_csv(hm: HeatmapGrid, path: str) -> None:
    t, x = np.meshgrid(hm.t_values, hm.x_values, indexing="ij")
    _write_table(path, "t,x,pmf", t, x, hm.mass)


def write_timeavg_csv(x_values: Sequence[float], values: Sequence[float], path: str) -> None:
    _write_table(path, "x,ccdf_avg", x_values, values)


def write_percentiles_csv(rows: Iterable[PercentileRow], path: str) -> None:
    rows = list(rows)
    levels = rows[0].levels if rows else DEFAULT_LEVELS
    cols = ",".join(f"p{int(round(100 * p))}" for p in levels)
    lines = [f"link,c,tau,s,{cols}"]
    for r in rows:
        vals = ",".join(_fmt(v) for v in r.values)
        lines.append(f"{r.link},{_fmt(r.c)},{_fmt(r.tau)},{_fmt(r.s)},{vals}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_meta_json(meta: dict, path: str) -> None:
    _atomic_write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
