"""Gaussian tail (orthant) probabilities for stationary Gauss-Markov chains.

Computes Pr(Z_0 > a_0, ..., Z_{n-1} > a_{n-1}) for a zero-mean,
unit-variance stationary AR(1) chain with one-step correlation ``rho`` by
propagating the conditional density of the current state through the
transition kernel N(rho*u, 1 - rho^2), one truncated quadrature per stage.
One Nystrom rule (Atkinson 1997) serves every rho in (0, 1); see OuChain.
Every quadrature, here and in the censored-normal lag integral of links,
applies one Gauss-Legendre rule of _PANEL_ORDER nodes on panels (_panels).
The limits rho = 0 and rho = 1 have closed forms, which
outputs.ccdf_profile writes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
        if not self.L >= 4:
            raise ValueError(f"L must be >= 4, got {self.L}")


def _panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _PANEL_ORDER-point Gauss-Legendre rule on
    each panel between consecutive edges, in panel order."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (_GL_NODES + 1.0)
    return nodes.ravel(), (half * _GL_WEIGHTS).ravel()


class OuChain:
    """Stagewise evaluation of Pr(Z_0 > a_0, ..., Z_{n-1} > a_{n-1}).

    Each call to extend() conditions on one more event {Z_n > a_n} and
    returns the updated joint probability.  The conditional density of the
    newest state given all prior events is carried on _PANEL_ORDER-node
    Gauss-Legendre panels over [max(a_n, -L), L]; thresholds of -inf are
    clamped to -L and contribute a factor that integrates to 1.

    Every stage, at every rho, takes the Nystrom update of _propagate.  In
    the previous state u its kernel has width sd/rho, and a stage grid
    gets the nodes its accuracy needs, read off that width:
    _ACCURATE_PER_WIDTH per width, at least _MIN_STAGE_NODES, capped at
    spec.m.  The _NODES_PER_WIDTH nodes per width that resolve the kernel
    override the cap, and an m above the accuracy rule's count changes
    nothing.  A stage past _MAX_STAGE_NODES raises QuadratureError.
    """

    def __init__(self, rho: float, spec: QuadratureSpec | None = None):
        if not (np.isfinite(rho) and 0.0 < rho < 1.0):
            raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
        self.rho = float(rho)
        self.sd = float(np.sqrt(1.0 - rho * rho))
        self.spec = spec if spec is not None else QuadratureSpec()
        self.prob = 1.0
        self.n = 0
        self._nodes: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._density: np.ndarray | None = None
        self._lo: float | None = None
        # Flat work array for the stage kernel, reused by every stage and
        # grown only when a stage needs more room.  Fresh megabyte-sized
        # temporaries per stage cost more in page faults than in arithmetic.
        self._work = np.empty(0)

    def extend(self, a: float) -> float:
        spec = self.spec
        if np.isnan(a):
            raise ValueError("threshold must not be NaN")
        if a >= spec.L:
            raise QuadratureError(
                f"threshold {a} reaches truncation half-width L={spec.L}; "
                "enlarge L"
            )
        lo_new = max(float(a), -spec.L)
        self.n += 1
        if self.prob == 0.0:
            return 0.0
        if self.n == 1:
            tail = float(std_normal_tail(a))
            self.prob = tail
            if tail < _TINY_PROB:
                self.prob = 0.0
                return 0.0
            nodes, weights = self._grid([lo_new, spec.L])
            density = _std_normal_pdf(nodes) / tail
        else:
            breaks = [lo_new]
            edge = self.rho * self._lo
            if lo_new + 1e-9 < edge < spec.L - 1e-9:
                breaks.append(edge)
            breaks.append(spec.L)
            nodes, weights = self._grid(breaks)
            raw = self._propagate(nodes)
            tail = float(weights @ raw)
            tail = min(max(tail, 0.0), 1.0)
            self.prob *= tail
            if self.prob < _TINY_PROB or tail == 0.0:
                self.prob = 0.0
                return 0.0
            density = raw / tail
        self._nodes, self._weights, self._density = nodes, weights, density
        self._lo = lo_new
        return self.prob

    def _stage_nodes(self, span: float) -> int:
        """Nodes of a stage grid span wide, in w = span*rho/sd kernel
        widths: max(2w, min(m, max(3w, _MIN_STAGE_NODES)))."""
        widths = span * self.rho / self.sd
        n = math.ceil(_NODES_PER_WIDTH * widths)
        if n > _MAX_STAGE_NODES:
            raise QuadratureError(
                f"rho={self.rho!r} needs {n} nodes per stage, over the budget of "
                f"{_MAX_STAGE_NODES}; use correlation.mode: frozen for this limit"
            )
        accurate = max(math.ceil(_ACCURATE_PER_WIDTH * widths), _MIN_STAGE_NODES)
        return max(n, min(self.spec.m, accurate))

    def _grid(self, breaks: Sequence[float]):
        """Panels over breaks for n = _stage_nodes(span) nodes: the panel
        width is h = span*_PANEL_ORDER/n, and each segment between breaks
        is cut into ceil(length/h) equal panels, so a segment thinner than
        h gets one panel."""
        breaks = np.asarray(breaks, dtype=float)
        span = breaks[-1] - breaks[0]
        h = span * _PANEL_ORDER / self._stage_nodes(span)
        counts = np.ceil(np.diff(breaks) / h).astype(int)
        edges = [np.linspace(lo, hi, k, endpoint=False)
                 for lo, hi, k in zip(breaks[:-1], breaks[1:], counts)]
        return _panels(np.concatenate(edges + [breaks[-1:]]))

    def _propagate(self, targets: np.ndarray) -> np.ndarray:
        """Density of the next state at the target nodes, given the events
        accumulated so far (normalized over the whole real line): the
        Nystrom update k @ (weights * density), with the kernel
        k = _std_normal_pdf((targets[:, None] - rho * nodes) / sd) / sd.

        Each block of targets _BLOCK_SPAN sd wide meets only the nodes
        whose centres rho*u lie within _BAND sd of it.  A block's kernel
        is built in the work array by the formula's operations, in the
        same order."""
        rho, sd = self.rho, self.sd
        centres = rho * self._nodes
        mass = self._weights * self._density
        starts = np.searchsorted(targets, np.arange(targets[0], targets[-1], _BLOCK_SPAN * sd))
        stops = np.append(starts[1:], targets.size)
        firsts = np.searchsorted(centres, targets[starts] - _BAND * sd)
        lasts = np.searchsorted(centres, targets[stops - 1] + _BAND * sd, "right")
        raw = np.empty(targets.size)
        for i0, i1, j0, j1 in zip(starts, stops, firsts, lasts):
            size = (i1 - i0) * (j1 - j0)
            if self._work.size < size:
                self._work = np.empty(size)
            k = self._work[:size].reshape(i1 - i0, j1 - j0)
            np.subtract(targets[i0:i1, None], centres[j0:j1], out=k)
            k /= sd
            _std_normal_pdf(k, out=k)
            k /= sd
            raw[i0:i1] = k @ mass[j0:j1]
        return raw


def nodes_per_stage(rho: float, spec: QuadratureSpec | None = None) -> int | None:
    """Nodes of OuChain's full-span stage [-L, L] at rho; None at rho 0 or
    1, whose closed forms run no chain."""
    if rho in (0.0, 1.0):
        return None
    chain = OuChain(rho, spec)
    return chain._grid([-chain.spec.L, chain.spec.L])[0].size


def ou_orthant(a, rho: float, spec: QuadratureSpec | None = None) -> float:
    """Pr(Z_i > a_i for all i) for the stationary AR(1) chain with one-step
    correlation rho in (0, 1).  Entries of -inf are vacuous."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 1.0
    chain = OuChain(rho, spec)
    for ai in a:
        chain.extend(float(ai))
    return chain.prob
