"""Exact CCDF grids and derived reports (atoms, heat maps, time averages,
percentiles, dominance), plus CSV/JSON serialization.

The exact engine evaluates Pr(A_t > x) as a Gaussian joint-tail
probability of the threshold vector g_inverse(j*tau + phi), j = 0..n-1.
By stationarity (and time-reversibility of the Gauss-Markov chain) that
probability depends on (t, x) only through the phase phi_t and the block
length n, so the whole law of A_t at phase phi is the profile
Q_phi[0..n] from ccdf_profiles, the single exact primitive every report
here reads and its one batched entry: it cuts the phases into chunks,
runs them on the thread pool and sweeps each chunk's chain once, whose
prefixes yield every block length.  Each row carries its own model, so
models that share link and schedule share the sweep: a chain's rows carry
their own rho, and OuChain.rho is the batch's largest.  Grid cells share
one profile per phase class, and exact_ccdf_grid gives the grids of
several such models from one sweep.  The time average is the exact phase
integral of the profiles: Chebyshev interpolants of Q_phi[n] on phase
pieces split at x_min mod tau, integrated in closed form.  Percentiles
invert it by false position on those same pieces, to adjacent floats.

The reports are plain values: heatmap gives a CcdfGrid of masses,
dominance_check the largest violation as a float, and a percentiles.csv
row is the tuple (link, c, tau, s, values) at DEFAULT_LEVELS.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev

from .core import CcdfGrid, block_length, decompose_time
from .errors import EvaluationError, QuadratureError
from .links import DelayModel, _bisect, g_apply, g_inverse, marginal_moments
from .orthant import OuChain, QuadratureSpec, batch_size, std_normal_tail

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

# Each false-position step of the percentile solver also evaluates the
# bracket's midpoint, so every bracket at least halves, and the floats within
# 16 ulps of its point, so a point that close to the root ends the search.
_PROBE_ULPS = np.arange(-16.0, 17.0)


def _phase_key(phi: float, tau: float) -> float:
    return round(phi / tau, _PHASE_DECIMALS)


def ccdf_profiles(
    model: DelayModel | Sequence[DelayModel],
    phis: Sequence[float],
    n_max,
    spec: QuadratureSpec,
    threads: int = 1,
) -> np.ndarray:
    """Plateau values Q_phi[0..n_max] of the AoI CCDF at each phase phi,
    one row per phase, shape (P, max(n_max) + 1).

    Q_phi[n] is the joint probability that the n most recent packets are
    all late, i.e. the Gaussian tail over thresholds g_inverse(j*tau +
    phi), j = 0..n-1; Q_phi[0] = 1.  model is one model for every phase or
    one per phase, all with one link and schedule, and n_max one block
    length for every phase or one per phase; a row is 0 past its own.  A
    row at rho = 0 is a product of marginal tails, at rho = 1 the tail of
    the largest threshold.  The other rows are cut, in order, into chunks
    of orthant.batch_size phases at their largest rho, or of one where no
    full-span stage fits the node budget, so the first live phase's chain
    names the failure.  A chunk's phases advance in lockstep through one
    OuChain batch, each at its own rho (thresholds in non-decreasing order,
    valid by time-reversibility), which yields every prefix length as a
    byproduct, and those whose thresholds reach L in a batch of their own
    grown spec.  Up to `threads` worker threads run the chunks, which
    depend on the phases, their models and the spec alone, so outputs do
    not depend on `threads`.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    n_max = np.broadcast_to(np.asarray(n_max, dtype=int), phis.shape)
    models = [model] if isinstance(model, DelayModel) else list(model)
    if len(models) not in (1, phis.size):
        raise ValueError(f"expected 1 or {phis.size} models, got {len(models)}")
    if not models:
        return np.ones((0, 1))
    if len({(m.link, m.schedule) for m in models}) > 1:
        raise ValueError("the models of one batch must share link and schedule")
    link, schedule = models[0].link, models[0].schedule
    rho = np.broadcast_to([m.step_correlation() for m in models], phis.shape)
    width = int(n_max.max(initial=0))
    a = np.empty((phis.size, width))
    if width > 0:
        a[:] = g_inverse(link, np.arange(width) * schedule.tau + phis[:, None])
    # Past its own n_max a phase meets an impossible event.
    a[np.arange(width) >= n_max[:, None]] = np.inf
    q = np.ones((phis.size, width + 1))
    iid, frozen = rho == 0.0, rho == 1.0
    if iid.any():
        q[iid, 1:] = np.cumprod(std_normal_tail(a[iid]), axis=1)
    if frozen.any():
        # Thresholds are non-decreasing, so the running max is the last one.
        q[frozen, 1:] = std_normal_tail(np.maximum.accumulate(a[frozen], axis=1))
    chained = np.flatnonzero(~(iid | frozen))
    if not chained.size:
        return q
    a = a[chained]
    # Cut each sweep where a single coordinate already forces zero mass.
    a[np.logical_or.accumulate(std_normal_tail(a) < _TAIL_FLOOR, axis=1)] = np.inf
    n_alive = np.sum(a < np.inf, axis=1)
    top = np.max(a, axis=1, where=a < np.inf, initial=-np.inf)
    q[chained, 1:] = 0.0
    try:
        size = batch_size(rho[chained].max(), spec)
    except QuadratureError:
        size = 1

    def run(start: int) -> None:
        batches: dict[QuadratureSpec, list[int]] = {}
        for i, t in enumerate(top[start : start + size].tolist(), start):
            if t >= spec.L:
                grow = t + 4.0
                key = QuadratureSpec(m=int(math.ceil(spec.m * grow / spec.L)), L=grow)
            else:
                key = spec
            batches.setdefault(key, []).append(i)
        for batch_spec, idx in batches.items():
            rows = chained[idx]
            chain = OuChain(rho[rows], batch_spec)
            for j in range(int(n_alive[idx].max())):
                try:
                    q[rows, j + 1] = chain.extend(a[idx, j])
                except QuadratureError as exc:
                    phase = int(rows[exc.phase])
                    raise QuadratureError(f"phase phi={phis[phase]}: {exc}", phase) from exc

    starts = range(0, chained.size, size)
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    else:
        list(map(run, starts))
    return q


def ccdf_profile(
    model: DelayModel,
    phi: float,
    n_max: int,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Plateau values Q[0..n_max] of the AoI CCDF at phase phi: the
    ccdf_profiles batch of one."""
    return ccdf_profiles(model, [phi], n_max, spec)[0]


@dataclass(frozen=True)
class AoiSupport:
    """Finite support of A_t: candidate ages n*tau + phi_t plus infinity."""

    atoms: np.ndarray
    masses: np.ndarray
    p_infinity: float
    j_star: int

    def __post_init__(self):
        if self.atoms.size and np.any(np.diff(self.atoms) <= 0):
            raise ValueError("atoms must be strictly increasing")


def aoi_support(
    model: DelayModel, t: float, spec: QuadratureSpec = QuadratureSpec()
) -> AoiSupport:
    """Atom locations and masses of the (discrete + infinite) law of A_t.

    The plateau values c[n] = Pr(A_t > x) for x in ((n-1)*tau + phi,
    n*tau + phi) are the phase profile, so masses are differences of
    adjacent profile values and p_infinity (no packet arrived by t) is
    c[k+1].  The link's left endpoint x_min gates the smallest achievable
    age index j_star; an age of x_min itself is achievable.
    """
    tau = model.schedule.tau
    k, phi = decompose_time(t, tau)
    c = ccdf_profile(model, phi, k + 1, spec)
    x_min = model.link.x_min
    j_star = next((j for j in range(k + 1) if x_min <= j * tau + phi), k + 1)
    ns = np.arange(j_star, k + 1)
    return AoiSupport(
        atoms=ns * tau + phi,
        masses=np.clip(c[ns] - c[ns + 1], 0.0, None),
        p_infinity=float(c[k + 1]),
        j_star=j_star,
    )


def exact_ccdf_grid(
    model: DelayModel | Sequence[DelayModel],
    t_grid: Sequence[float],
    x_grid: Sequence[float],
    spec: QuadratureSpec = QuadratureSpec(),
    threads: int = 1,
) -> CcdfGrid | list[CcdfGrid]:
    """Exact Pr(A_t > x) over the grid, from one profile per phase class.

    Given a sequence of models that share link and schedule, the grid of
    each in order, every model's phase classes in one ccdf_profiles sweep.
    """
    models = [model] if isinstance(model, DelayModel) else list(model)
    if not models:
        raise ValueError("exact_ccdf_grid needs at least one model")
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    nan = np.flatnonzero(np.isnan(x_grid))
    if nan.size:
        raise ValueError(f"x_grid must not hold NaN, got one at index {nan[0]}")
    if np.any(np.diff(t_grid) < 0) or np.any(np.diff(x_grid) < 0):
        raise ValueError("grids must be sorted ascending")
    tau = models[0].schedule.tau
    k, phi = decompose_time(t_grid, tau)
    keys, cls = np.unique([_phase_key(p, tau) for p in phi.tolist()], return_inverse=True)
    # Every cell's block length at its phase class, and each class's longest.
    n = block_length(x_grid, (keys[cls] * tau)[:, None], tau, k[:, None])
    n_max = np.zeros(keys.size, dtype=int)
    np.maximum.at(n_max, cls, n.max(axis=1, initial=0))
    rows = [m for m in models for _ in range(keys.size)]
    table = ccdf_profiles(
        rows, np.tile(keys * tau, len(models)), np.tile(n_max, len(models)), spec, threads
    )
    table = table.reshape(len(models), keys.size, table.shape[1])
    # No age, not even the infinite one of a path with no arrival, exceeds +inf.
    grids = [
        CcdfGrid(t_grid, x_grid, np.where(x_grid < np.inf, q[cls[:, None], n], 0.0))
        for q in table
    ]
    return grids[0] if isinstance(model, DelayModel) else grids


def heatmap(grid: CcdfGrid, delta: float) -> CcdfGrid:
    """Finite-difference mass Pr(A_t > x) - Pr(A_t > x + delta) of the CCDF
    grid, as a grid over the x values that have a partner delta above.

    The x grid must be uniform with delta an integer multiple of its step.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    x = grid.x_values
    if x.size < 2:
        raise ValueError("x grid too small for a heatmap")
    steps = np.diff(x)
    step = steps[0]
    if not step > 0 or not np.allclose(steps, step, rtol=0, atol=1e-9 * max(step, 1.0)):
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
    return CcdfGrid(grid.t_values, x[:-lag], mass)


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
        self, model: DelayModel, spec: QuadratureSpec = QuadratureSpec(), threads: int = 1
    ):
        self.model = model
        self.spec = spec
        self.threads = threads
        tau = model.schedule.tau
        # decompose_time snaps b: 0.5 % 0.1 is 0.09999999999999998, not 0.
        b = decompose_time(model.link.x_min, tau)[1]
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
        q = np.reshape(
            ccdf_profiles(self.model, phases, n_max, self.spec, self.threads),
            (len(pieces), nodes.size, -1),
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
        if not np.all((xs >= 0) & (xs < np.inf)):
            raise ValueError(f"x must be finite and non-negative, got {x}")
        tau = self.model.schedule.tau
        j = np.floor(xs / tau).astype(int)
        phi = np.clip(xs - j * tau, 0.0, tau)
        self._grow(int(j.max()) + 1)
        out = (self._integral(phi, j + 1) + self._base[-1, j] - self._integral(phi, j)) / tau
        return float(out[0]) if np.ndim(x) == 0 else out


DEFAULT_LEVELS = (0.10, 0.25, 0.50, 0.75, 0.90)


def percentiles(
    model: DelayModel,
    levels: Sequence[float] = DEFAULT_LEVELS,
    spec: QuadratureSpec = QuadratureSpec(),
    x_ceiling: float | None = None,
    evaluator: TimeAverageEvaluator | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Generalized inverses inf{x >= 0 : F_avg(x) <= 1 - p} for each level.

    F_avg falls continuously from F_avg(0) = 1.  hi starts at tau plus the
    delay quantile q at the deepest level p, or at the search ceiling
    (default 50*tau + 20*mean delay) if that is lower: for x >= tau, A_t > x
    needs the packet generated in [t - x, t - x + tau) still in flight, so
    F_avg(tau + q) <= Pr(D > q) <= 1 - p under any correlation, and the
    profiles grow once.  Otherwise hi doubles up to the ceiling, and a level
    still above F_avg at the ceiling returns +inf: the percentile lies
    beyond it.  F_avg is one polynomial between the knots j*tau + e, e an
    edge of the phase pieces, so one evaluation at the knots below hi
    brackets each level.  Safeguarded false position shrinks all brackets
    together, keeping F_avg(lo) > 1 - p >= F_avg(hi), until hi is the float
    after lo.  A given evaluator must be the model's own; one built here
    computes its profiles on `threads` threads.
    """
    if any(not 0 < p < 1 for p in levels):
        raise ValueError("levels must lie strictly in (0, 1)")
    ev = evaluator if evaluator is not None else TimeAverageEvaluator(model, spec, threads)
    if ev.model != model:
        raise ValueError("the evaluator was built for another model")
    tau = model.schedule.tau
    mean_delay, _ = marginal_moments(model.link)
    ceiling = x_ceiling if x_ceiling is not None else 50.0 * tau + 20.0 * mean_delay
    targets = 1.0 - np.asarray(levels, dtype=float)
    z = _bisect(lambda z: 1.0 - max(levels) - std_normal_tail(z), -10.0, 10.0)
    hi = min(tau + g_apply(model.link, z), ceiling)
    while ev.value(hi) > targets.min() and hi < ceiling:
        hi = min(2.0 * hi, ceiling)
    knots = (np.arange(math.ceil(hi / tau))[:, None] * tau + ev.edges[:-1]).ravel()
    knots = np.append(knots[knots < hi], hi)
    f = ev.value(knots)
    # The first knot with F_avg <= 1 - p: 0 when F_avg(0) is already there,
    # and none (+inf) when F_avg(hi) is not.
    i = np.searchsorted(-f, -targets)
    out = np.where(i == 0, 0.0, np.inf)
    todo = (i > 0) & (i < knots.size)
    k, t = i[todo], targets[todo]
    lo, hi, g_lo, g_hi = knots[k - 1], knots[k], f[k - 1] - t, f[k] - t
    rows = np.arange(t.size)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            out[todo] = hi
            return out
        x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        near = np.clip(x[:, None] + _PROBE_ULPS * np.spacing(x)[:, None], lo[:, None], hi[:, None])
        pts = np.sort(np.column_stack([lo, mid, near, hi]), axis=1)
        g = ev.value(pts) - t[:, None]
        j = np.argmax(g <= 0, axis=1)
        lo, hi, g_lo, g_hi = pts[rows, j - 1], pts[rows, j], g[rows, j - 1], g[rows, j]


def dominance_check(grid_low: CcdfGrid, grid_high: CcdfGrid) -> float:
    """Largest excess of grid_low over grid_high over the cells (low = less
    correlated): 0.0 where grid_low <= grid_high everywhere or the grids are
    empty, and NaN where a cell is NaN."""
    if grid_low.p.shape != grid_high.p.shape or not (
        np.allclose(grid_low.t_values, grid_high.t_values)
        and np.allclose(grid_low.x_values, grid_high.x_values)
    ):
        raise ValueError("dominance check requires identical (t, x) grids")
    worst = float(np.max(grid_low.p - grid_high.p, initial=0.0))
    # A cell at -0.0 is no violation either.
    return 0.0 if worst == 0.0 else worst


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


# Every number of the CSV files: 12 significant digits, and inf, -inf and
# nan by name.
_FMT = "%.12g"


def _fmt(v: float) -> str:
    return _FMT % v


def _strings(values, end: str) -> np.ndarray:
    """_FMT of each value and `end`, in an object array of the values' shape.
    Each distinct bit pattern is formatted once, so -0.0 prints -0."""
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    fmt = _FMT + end
    strings = np.array([fmt % v for v in bits.view(float).tolist()], dtype=object)
    return strings[inverse].reshape(values.shape)


def _write_table(path: str, header: str, *columns) -> None:
    """CSV of a header line and one row per entry of the columns broadcast
    together, in C order.  Each distinct value of a column is formatted
    once, and the rows are one join of the table of those strings."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    table = np.empty((*shape, len(columns)), dtype=object)
    for k, c in enumerate(columns):
        table[..., k] = _strings(c, "," if k < len(columns) - 1 else "\n")
    _atomic_write(path, header + "\n" + "".join(table.ravel().tolist()))


def write_ccdf_csv(grid: CcdfGrid, path: str, stderr: np.ndarray | None = None) -> None:
    t = np.reshape(grid.t_values, (-1, 1))
    if stderr is None:
        _write_table(path, "t,x,ccdf", t, grid.x_values, grid.p)
    else:
        _write_table(path, "t,x,ccdf,stderr", t, grid.x_values, grid.p, stderr)


def write_paths_csv(ages: np.ndarray, t_values: Sequence[float], path: str) -> None:
    """One row per (path, t) of the ages, shape (n_paths, len(t_values))."""
    _write_table(path, "path,t,age", np.arange(len(ages))[:, None], t_values, ages)


def write_heatmap_csv(hm: CcdfGrid, path: str) -> None:
    """The heatmap's grid of masses, under the header t,x,pmf."""
    _write_table(path, "t,x,pmf", np.reshape(hm.t_values, (-1, 1)), hm.x_values, hm.p)


def write_timeavg_csv(x_values: Sequence[float], values: Sequence[float], path: str) -> None:
    _write_table(path, "x,ccdf_avg", x_values, values)


def write_percentiles_csv(rows: Iterable[tuple], path: str) -> None:
    """One line per row (link, c, tau, s, values), values at DEFAULT_LEVELS."""
    cols = ",".join(f"p{int(round(100 * p))}" for p in DEFAULT_LEVELS)
    lines = [f"link,c,tau,s,{cols}"]
    for link, c, tau, s, values in rows:
        vals = ",".join(_fmt(v) for v in values)
        lines.append(f"{link},{_fmt(c)},{_fmt(tau)},{_fmt(s)},{vals}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_meta_json(meta: dict, path: str) -> None:
    _atomic_write(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
