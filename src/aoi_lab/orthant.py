"""Gaussian tail (orthant) probabilities for stationary Gauss-Markov chains.

Computes Pr(Z_0 > a_0, ..., Z_{n-1} > a_{n-1}) for a zero-mean,
unit-variance stationary AR(1) chain with one-step correlation ``rho`` by
propagating the conditional density of the current state through the
transition kernel N(rho*u, 1 - rho^2), one truncated quadrature per stage.
One Nystrom rule (Atkinson 1997) serves every rho in (0, 1); see OuChain.
Closed forms cover the independent and fully-frozen limits, and a plain
Monte-Carlo estimator over the chain's covariance matrix serves as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvaluationError, QuadratureError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Below this running probability the chain is treated as extinct.
_TINY_PROB = 1e-300

# Minimum quadrature nodes assigned to any panel of a split grid.
_MIN_PANEL_NODES = 12

# OuChain's stage rule: nodes per kernel width, the node budget of a stage
# (rho ~ 1 - 1e-9 at L = 8), the kernel band half-width in sd (pdf(9)/pdf(0)
# = 2.6e-18), and the span of one block of targets in sd.
_NODES_PER_WIDTH = 2.0
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

    m is the fewest nodes per stage (OuChain adds nodes for narrow
    kernels), L the truncation half-width in standard-normal units.
    """

    m: int = 400
    L: float = 8.0

    def __post_init__(self):
        if self.m < 16:
            raise ValueError(f"m must be >= 16, got {self.m}")
        if not self.L >= 4:
            raise ValueError(f"L must be >= 4, got {self.L}")


_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


def _split_grid(breaks: Sequence[float], m: int):
    """Composite Gauss-Legendre grid over [breaks[0], breaks[-1]].

    Nodes are allocated to panels proportionally to panel length, with a
    floor so that thin panels (used to isolate near-discontinuities) stay
    resolved.
    """
    breaks = np.asarray(breaks, dtype=float)
    lengths = np.diff(breaks)
    counts = np.maximum(
        _MIN_PANEL_NODES, np.rint(m * lengths / lengths.sum()).astype(int)
    )
    nodes_parts, weight_parts = [], []
    for lo, hi, n in zip(breaks[:-1], breaks[1:], counts):
        x, w = _gauss_legendre(int(n))
        half = 0.5 * (hi - lo)
        nodes_parts.append(lo + half * (x + 1.0))
        weight_parts.append(half * w)
    return np.concatenate(nodes_parts), np.concatenate(weight_parts)


class OuChain:
    """Stagewise evaluation of Pr(Z_0 > a_0, ..., Z_{n-1} > a_{n-1}).

    Each call to extend() conditions on one more event {Z_n > a_n} and
    returns the updated joint probability.  The conditional density of the
    newest state given all prior events is carried on a panel-split
    Gauss-Legendre grid over [max(a_n, -L), L]; thresholds of -inf are
    clamped to -L and contribute a factor that integrates to 1.

    Every stage, at every rho, takes the Nystrom update of _propagate.  In
    the previous state u its kernel has width sd/rho, so a stage grid gets
    _NODES_PER_WIDTH nodes per width where spec.m nodes are too few.  A
    stage past _MAX_STAGE_NODES raises QuadratureError.
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

    def _grid(self, breaks: Sequence[float]):
        """Split grid over breaks with m nodes, or with _NODES_PER_WIDTH
        nodes per kernel width if that is more, in equal panels of at most
        about m nodes: _split_grid(breaks, m) whenever m nodes suffice."""
        m = self.spec.m
        n = math.ceil(_NODES_PER_WIDTH * (breaks[-1] - breaks[0]) * self.rho / self.sd)
        if n > _MAX_STAGE_NODES:
            raise QuadratureError(
                f"rho={self.rho!r} needs {n} nodes per stage, over the budget of "
                f"{_MAX_STAGE_NODES}; use correlation.mode: frozen for this limit"
            )
        panels = np.linspace(breaks[0], breaks[-1], math.ceil(n / m) + 1)[1:-1]
        return _split_grid(np.sort(np.concatenate((breaks, panels))), max(n, m))

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
