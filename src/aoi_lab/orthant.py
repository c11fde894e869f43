"""Gaussian tail (orthant) probabilities for stationary Gauss-Markov chains.

Computes Pr(Z_0 > a_0, ..., Z_{n-1} > a_{n-1}) for a zero-mean,
unit-variance stationary AR(1) chain with one-step correlation ``rho`` by
propagating the conditional density of the current state through the
transition kernel N(rho*u, 1 - rho^2), one truncated quadrature per stage.
One Nystrom rule (Atkinson 1997) serves every rho in (0, 1); see OuChain.
A chain carries a batch axis: the threshold sequences of P phases advance
through each stage together, on grids padded to one width, and the stage
kernel is built in blocks of rows shared by the batch, each reading a band
of nodes as wide as the widest phase's band, within one work array of
_WORK_FLOATS floats.  Each row carries its own rho, so chains of several
correlations share one sweep; OuChain.rho is the batch's largest.
Every quadrature, here and in the censored-normal lag integral of links,
applies one Gauss-Legendre rule of _PANEL_ORDER nodes on panels (_panels).
The limits rho = 0 and rho = 1 have closed forms, which
outputs.ccdf_profiles writes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Below this running probability the chain is treated as extinct.
_TINY_PROB = 1e-300

# Nodes of the one Gauss-Legendre rule, computed once, that every panel uses.
_PANEL_ORDER = 20
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)

# OuChain's stage rule: nodes per kernel width that resolve the kernel
# (a floor no m overrides), nodes per width that reach full accuracy, the
# fewest nodes of a stage, the node budget of a stage (rho ~ 1 - 1e-9 at
# L = 8), the kernel band half-width in sd (pdf(9)/pdf(0) = 2.6e-18), and
# the span of one block of targets in sd.
_NODES_PER_WIDTH = 2.0
_ACCURATE_PER_WIDTH = 3.0
_MIN_STAGE_NODES = 2 * _PANEL_ORDER
_MAX_STAGE_NODES = 1 << 19
_BAND = 9.0
_BLOCK_SPAN = 64.0

# Floats of one chain's kernel work array (512 kB).  A batch holds as many
# phases as give each one full-span kernel row in it (batch_size), and a
# stage builds its kernel in runs of rows that fit it.
_WORK_FLOATS = 1 << 16


def std_normal_tail(x):
    """Standard normal tail Phi_bar(x) = Pr(Z > x), accurate to ~1e-16.

    Accepts scalars or arrays; -inf maps to 1 and +inf to 0.
    """
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / _SQRT2), dtype=float)


def _std_normal_pdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal density at x, written into out if it is given."""
    out = np.square(x, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization controls for the stagewise tail recursion.

    m caps the nodes per stage, laid out in Gauss-Legendre panels of
    _PANEL_ORDER nodes.  OuChain sizes each stage from its kernel, and
    the 2 nodes per kernel width that resolve a narrow kernel override the
    cap; an m above the count of OuChain's accuracy rule changes nothing.
    L is the truncation half-width in standard-normal units.
    """

    m: int = 400
    L: float = 8.0

    def __post_init__(self):
        if self.m < 16:
            raise ValueError(f"m must be >= 16, got {self.m}")
        if not 4 <= self.L < math.inf:
            raise ValueError(f"L must be finite and >= 4, got {self.L}")


def _panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _PANEL_ORDER-point Gauss-Legendre rule on
    each panel between consecutive edges along the last axis, in panel
    order."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[..., None]
    nodes = edges[..., :-1, None] + half * (_GL_NODES + 1.0)
    shape = edges.shape[:-1] + (-1,)
    return nodes.reshape(shape), (half * _GL_WEIGHTS).reshape(shape)


class OuChain:
    """Stagewise evaluation of Pr(Z_0 > a_0, ..., Z_{n-1} > a_{n-1}) for a
    batch of P phases in lockstep.

    rho is one correlation for every phase or one per phase; the rho
    attribute is the largest, a float.

    Each call to extend() conditions every phase on one more event
    {Z_n > a_n} and returns the updated joint probabilities: one threshold
    per phase in, one probability per phase out.  A scalar threshold is a
    batch of one and gives a float back.  The conditional density of each
    phase's newest state given all its prior events is carried on
    _PANEL_ORDER-node Gauss-Legendre panels over [max(a_n, -L), L];
    thresholds of -inf are clamped to -L and contribute a factor that
    integrates to 1, and a threshold of +inf ends its phase at 0.  All
    state is (P, n): each phase's panels are padded up to the batch's
    widest grid with zero-width panels at L, whose nodes carry zero
    weight and so add nothing.  A phase at probability 0 stays at 0 and
    drops out of the arrays.

    Every stage, at every rho, takes the Nystrom update of _propagate.  In
    the previous state u its kernel has width sd/rho, and a stage grid
    gets the nodes its accuracy needs, read off its phase's width:
    _ACCURATE_PER_WIDTH per width, at least _MIN_STAGE_NODES, capped at
    spec.m.  The _NODES_PER_WIDTH nodes per width that resolve the kernel
    override the cap, and an m above the accuracy rule's count changes
    nothing.  A stage past _MAX_STAGE_NODES raises QuadratureError, whose
    `phase` is the index of the failing phase in the batch and whose
    message names that phase's rho.
    """

    def __init__(self, rho, spec: QuadratureSpec = QuadratureSpec()):
        rhos = np.atleast_1d(np.asarray(rho, dtype=float))
        if rhos.ndim != 1 or rhos.size == 0:
            raise ValueError("rho must be a scalar or a non-empty 1-D array")
        bad = np.flatnonzero(~(np.isfinite(rhos) & (0.0 < rhos) & (rhos < 1.0)))
        if bad.size:
            raise ValueError(f"rho must lie strictly in (0, 1), got {rhos[bad[0]]}")
        # The largest correlation needs the most nodes per stage.
        self.rho = float(rhos.max())
        self.spec = spec
        # Joint probability per phase, set by the first extend.
        self.prob: np.ndarray | None = None
        self.n = 0
        # State of the live phases (prob > 0) only, one row each: their
        # index in the batch, one-step correlations and conditional sds,
        # stage grids, densities and lower limits.  Before the first extend
        # the correlations are as given: one per phase or one for all.
        self._rows = np.zeros(0, dtype=int)
        self._rho = rhos
        self._sd = np.sqrt(1.0 - rhos * rhos)
        self._nodes: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._density: np.ndarray | None = None
        self._lo: np.ndarray | None = None
        # Flat work array for the stage kernel, reused by every stage and
        # grown only when a stage needs more room, up to about
        # _WORK_FLOATS.  Fresh megabyte-sized temporaries per stage cost
        # more in page faults than in arithmetic.
        self._work = np.empty(0)

    def extend(self, a):
        spec = self.spec
        thresholds = np.asarray(a, dtype=float)
        batch = np.atleast_1d(thresholds)
        if batch.ndim != 1:
            raise ValueError("thresholds must be a scalar or a 1-D array")
        if self.prob is None:
            if self._rho.size not in (1, batch.size):
                raise ValueError(f"expected {self._rho.size} thresholds, got {batch.size}")
            self.prob = np.ones(batch.size)
            self._rows = np.arange(batch.size)
            self._rho = np.broadcast_to(self._rho, batch.shape)
            self._sd = np.broadcast_to(self._sd, batch.shape)
        elif batch.size != self.prob.size:
            raise ValueError(f"expected {self.prob.size} thresholds, got {batch.size}")
        if np.isnan(batch).any():
            raise ValueError("threshold must not be NaN")
        over = np.flatnonzero((batch >= spec.L) & (batch < np.inf))
        if over.size:
            raise QuadratureError(
                f"threshold {batch[over[0]]} reaches truncation half-width "
                f"L={spec.L}; enlarge L",
                phase=int(over[0]),
            )
        self.n += 1
        a_live = batch[self._rows]
        finite = a_live < np.inf
        self._keep(finite)
        if self._rows.size:
            try:
                self._stage(a_live[finite])
            except QuadratureError as exc:
                exc.phase = int(self._rows[exc.phase])
                raise
        prob = self.prob.copy()
        return float(prob[0]) if thresholds.ndim == 0 else prob

    def _stage(self, a: np.ndarray) -> None:
        """Condition the live phases on {Z_n > a}, one threshold each."""
        L = self.spec.L
        lo_new = np.maximum(a, -L)
        if self.n == 1:
            tail = std_normal_tail(a)
            self.prob[self._rows] = tail
            born = tail >= _TINY_PROB
            self._keep(born)
            if not born.any():
                return
            lo_new, tail = lo_new[born], tail[born]
            nodes, weights = self._grid(np.stack([lo_new, np.full_like(lo_new, L)], axis=1))
            raw = _std_normal_pdf(nodes)
        else:
            edge = self._rho * self._lo
            inside = (lo_new + 1e-9 < edge) & (edge < L - 1e-9)
            breaks = np.stack(
                [lo_new, np.where(inside, edge, L), np.full_like(lo_new, L)], axis=1
            )
            nodes, weights = self._grid(breaks)
            raw = self._propagate(nodes, np.count_nonzero(weights, axis=1))
            tail = np.clip(np.matmul(weights[:, None, :], raw[:, :, None])[:, 0, 0], 0.0, 1.0)
            self.prob[self._rows] *= tail
        alive = (self.prob[self._rows] >= _TINY_PROB) & (tail != 0.0)
        self._nodes, self._weights, self._lo = nodes, weights, lo_new
        self._density = raw / np.where(alive, tail, 1.0)[:, None]
        self._keep(alive)

    def _keep(self, alive: np.ndarray) -> None:
        """Drop the live phases where alive is False, setting them to 0."""
        if alive.all():
            return
        self.prob[self._rows[~alive]] = 0.0
        self._rows, self._rho, self._sd = self._rows[alive], self._rho[alive], self._sd[alive]
        if self._nodes is not None:
            self._nodes, self._weights = self._nodes[alive], self._weights[alive]
            self._density, self._lo = self._density[alive], self._lo[alive]

    def _stage_nodes(self, span: np.ndarray) -> np.ndarray:
        """Nodes of a stage grid span wide, per live phase, in w =
        span*rho/sd kernel widths at the phase's own rho:
        max(2w, min(m, max(3w, _MIN_STAGE_NODES)))."""
        widths = np.asarray(span, dtype=float) * self._rho / self._sd
        n = np.ceil(_NODES_PER_WIDTH * widths)
        over = np.flatnonzero(n > _MAX_STAGE_NODES)
        if over.size:
            i = over[0]
            raise QuadratureError(
                f"rho={float(self._rho[i])!r} needs {int(n[i])} nodes per stage, over the "
                f"budget of {_MAX_STAGE_NODES}; use correlation.mode: frozen for this limit",
                phase=int(i),
            )
        accurate = np.maximum(np.ceil(_ACCURATE_PER_WIDTH * widths), _MIN_STAGE_NODES)
        return np.maximum(n, np.minimum(self.spec.m, accurate))

    def _grid(self, breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Panels over each row of breaks, shape (P, S + 1), for n =
        _stage_nodes(span) nodes: the panel width is h = span*_PANEL_ORDER/n,
        and each segment between breaks is cut into ceil(length/h) equal
        panels, so a segment thinner than h gets one panel and an empty one
        none.  Rows with fewer panels than the most are padded with
        zero-width panels at their last break."""
        breaks = np.asarray(breaks, dtype=float)
        span = breaks[:, -1] - breaks[:, 0]
        h = span * _PANEL_ORDER / self._stage_nodes(span)
        lengths = np.diff(breaks, axis=1)
        counts = np.ceil(lengths / h[:, None]).astype(int)
        ends = np.cumsum(counts, axis=1)
        # Panel k of a row is panel k - first of its segment seg; the
        # padding panels fall past the last segment.
        k = np.arange(ends[:, -1].max())
        seg = np.sum(k >= ends[:, :, None], axis=1)
        pad = seg == lengths.shape[1]
        seg[pad] = 0
        first = np.take_along_axis(ends - counts, seg, axis=1)
        step = np.take_along_axis(lengths / np.maximum(counts, 1), seg, axis=1)
        lo = np.take_along_axis(breaks, seg, axis=1)
        edges = np.where(pad, breaks[:, -1:], (k - first) * step + lo)
        return _panels(np.concatenate([edges, breaks[:, -1:]], axis=1))

    def _propagate(self, targets: np.ndarray, real: np.ndarray) -> np.ndarray:
        """Density of each phase's next state at its target nodes, shape
        (P, n), given the events accumulated so far (normalized over the
        whole real line): the Nystrom update k @ (weights * density), with
        the kernel k = _std_normal_pdf((targets[:, :, None] - rho *
        nodes[:, None, :]) / sd) / sd at each phase's own rho and sd.

        The targets are cut into blocks of rows shared by the whole batch,
        as many rows as the sparsest phase has in its first _BLOCK_SPAN sd.
        In each phase a block meets only the nodes whose centres rho*u lie
        within _BAND sd of its targets; the block reads the same number of
        nodes in every phase, the most any phase's band holds, so a phase
        may read a few nodes past its band.  A block's kernel is built in
        the work array by the formula's operations, in the same order, a
        run of rows at a time that fits _WORK_FLOATS.  A phase's targets
        past its first real[p] are the zero-width padding panels at L, which
        carry no weight: a run leaves out the phases it holds only padding
        of, and their density there is 0."""
        rho, sd = self._rho[:, None], self._sd[:, None]
        centres = rho * self._nodes
        mass = self._weights * self._density
        n_phases, n = targets.shape
        m = centres.shape[1]
        rows = np.min(np.sum(targets < targets[:, :1] + _BLOCK_SPAN * sd, axis=1))
        starts = np.arange(0, n, rows)
        stops = np.append(starts[1:], n)
        # The padding nodes at L carry no mass and stay out of every band.
        held = np.count_nonzero(self._weights, axis=1)[:, None]
        firsts = np.minimum(_search_rows(centres, targets[:, starts] - _BAND * sd, "left"), held)
        lasts = np.minimum(_search_rows(centres, targets[:, stops - 1] + _BAND * sd, "right"), held)
        bands = np.max(lasts - firsts, axis=0)
        raw = np.zeros((n_phases, n))
        # Flat index of each phase's first node, for one take per block.
        row_starts = (m * np.arange(n_phases))[:, None]
        for i0, i1, first, w in zip(starts, stops, firsts.T, bands):
            cols = row_starts + np.minimum(first, m - w)[:, None] + np.arange(w)
            c = centres.take(cols)
            mw = mass.take(cols)[:, :, None]
            run = max(_WORK_FLOATS // max(n_phases * w, 1), 1)
            for r0 in range(i0, i1, run):
                r1 = min(r0 + run, i1)
                live = np.flatnonzero(real > r0)
                p = slice(None) if live.size == n_phases else live
                size = live.size * (r1 - r0) * w
                if self._work.size < size:
                    self._work = np.empty(size)
                k = self._work[:size].reshape(live.size, r1 - r0, w)
                np.subtract(targets[p, r0:r1, None], c[p, None, :], out=k)
                k /= sd[p, :, None]
                _std_normal_pdf(k, out=k)
                k /= sd[p, :, None]
                raw[p, r0:r1] = np.matmul(k, mw[p])[:, :, 0]
        return raw


def _search_rows(a: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted of each row of v in the same row of a, whose rows
    ascend, in one call: row p of both is shifted by p times a stride wider
    than every row's range."""
    stride = 2.0 * max(np.abs(a).max(initial=0.0), np.abs(v).max(initial=0.0)) + 1.0
    shift = stride * np.arange(a.shape[0])[:, None]
    idx = np.searchsorted((a + shift).ravel(), (v + shift).ravel(), side)
    return idx.reshape(v.shape) - a.shape[1] * np.arange(a.shape[0])[:, None]


def nodes_per_stage(rho: float, spec: QuadratureSpec = QuadratureSpec()) -> int | None:
    """Nodes of OuChain's full-span stage [-L, L] at rho; None at rho 0 or
    1, whose closed forms run no chain."""
    if rho in (0.0, 1.0):
        return None
    chain = OuChain(rho, spec)
    return chain._grid(np.array([[-chain.spec.L, chain.spec.L]]))[0].shape[1]


def batch_size(rho: float, spec: QuadratureSpec = QuadratureSpec()) -> int:
    """Phases of one OuChain batch at rho in (0, 1): as many as give each
    one full-span kernel row within _WORK_FLOATS, and at least one."""
    return max(_WORK_FLOATS // nodes_per_stage(rho, spec), 1)
