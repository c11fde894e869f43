"""Monotone link functions, the delay model, and moment calibration.

Delays are generated as X = g(Z) with Z a stationary standard Gaussian
process.  Two links are supported: a shifted lognormal
g(z) = x_min + exp(mu_hat + s_hat*z) and a censored normal
g(z) = max(x_min, mu_hat + s_hat*z).  Calibration matches the delay
marginal's mean and standard deviation to user targets and picks the OU
rate kappa so the delay autocovariance decays to 1/e at a given lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GenerationSchedule
from .errors import CalibrationError
from .orthant import _panels, std_normal_tail

SHIFTED_LOGNORMAL = "shifted-lognormal"
CENSORED_NORMAL = "censored-normal"

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _bisect(f, lo: float, hi: float) -> float:
    """Least x in [lo, hi] with f(x) >= 0, to adjacent floats, for f
    non-decreasing with f(hi) >= 0."""
    if f(lo) >= 0:
        return lo
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid


@dataclass(frozen=True)
class LinkFunction:
    """Monotone non-decreasing map from a standard normal to a delay."""

    kind: str
    x_min: float
    mu_hat: float
    s_hat: float

    def __post_init__(self):
        if self.kind not in (SHIFTED_LOGNORMAL, CENSORED_NORMAL):
            raise ValueError(f"unknown link kind {self.kind!r}")
        if not 0 <= self.x_min < math.inf:
            raise ValueError(f"x_min must be finite and non-negative, got {self.x_min}")
        if not math.isfinite(self.mu_hat):
            raise ValueError(f"mu_hat must be finite, got {self.mu_hat}")
        if not 0 < self.s_hat < math.inf:
            raise ValueError(f"s_hat must be finite and positive, got {self.s_hat}")
        # Finite moments also keep g_apply finite for |z| < 26, past any
        # standard-normal draw.
        try:
            moments = (*marginal_moments(self), lag_covariance(self, 1.0))
        except OverflowError:
            moments = (math.inf,)
        if not all(map(math.isfinite, moments)):
            raise OverflowError(
                f"link.mu_hat={self.mu_hat} and link.s_hat={self.s_hat} give delay "
                "moments that overflow a float"
            )


@dataclass(frozen=True)
class CorrelationMode:
    """Temporal dependence of the Gaussian driver: OU with rate kappa, or
    the degenerate i.i.d. / frozen limits.  c records the calibration time
    constant when kappa came from one."""

    kind: str
    kappa: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("ou", "iid", "frozen"):
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.kind == "ou":
            if self.kappa is None or not self.kappa > 0:
                raise ValueError("ou mode requires kappa > 0")
        elif self.kappa is not None:
            raise ValueError(f"{self.kind} mode takes no kappa")

    def time_constant(self, link: LinkFunction) -> float:
        """The time constant c: 0 in iid mode, inf in frozen mode, else the
        calibration's; a rate alone implies calibrate_kappa(link, 1) / kappa."""
        if self.kind != "ou":
            return 0.0 if self.kind == "iid" else math.inf
        return self.c if self.c is not None else calibrate_kappa(link, 1.0) / self.kappa

    def ladder(self) -> list[tuple[str, CorrelationMode]]:
        """Dominance ladder, correlation increasing left to right: iid,
        2kappa, kappa (this mode) and kappa/2 in ou mode, frozen."""
        ou = [] if self.kind != "ou" else [
            ("2kappa", CorrelationMode("ou", kappa=2 * self.kappa)), ("kappa", self),
            ("kappa/2", CorrelationMode("ou", kappa=self.kappa / 2))]
        return [("iid", CorrelationMode("iid")), *ou, ("frozen", CorrelationMode("frozen"))]


@dataclass(frozen=True)
class DelayModel:
    """Full generative description of the delay sequence."""

    link: LinkFunction
    correlation: CorrelationMode
    schedule: GenerationSchedule

    def step_correlation(self) -> float:
        """One-step correlation rho of the Gaussian driver on the generation
        grid: 0 in iid mode, 1 in frozen mode, exp(-kappa*tau) in ou mode."""
        corr = self.correlation
        if corr.kind == "ou":
            return math.exp(-corr.kappa * self.schedule.tau)
        return 0.0 if corr.kind == "iid" else 1.0


@dataclass(frozen=True)
class CalibrationTarget:
    """Requested delay marginal (mean, sd, left endpoint)."""

    mu: float
    s: float
    x_min: float

    def __post_init__(self):
        if not self.mu > self.x_min:
            raise ValueError(f"target mean {self.mu} must exceed x_min {self.x_min}")
        if not self.s > 0:
            raise ValueError(f"target sd must be positive, got {self.s}")


def g_apply(link: LinkFunction, z, out=None):
    """Delay value g(z); accepts scalars or arrays.  An array result is
    written into out when it is given, which may be z itself."""
    z = np.asarray(z, dtype=float)
    out = np.multiply(z, link.s_hat, out=np.empty_like(z) if out is None else out)
    out += link.mu_hat
    if link.kind == SHIFTED_LOGNORMAL:
        np.exp(out, out=out)
        out += link.x_min
    else:
        np.maximum(out, link.x_min, out=out)
    return float(out) if out.ndim == 0 else out


def g_inverse(link: LinkFunction, y):
    """Generalized inverse inf{z : g(z) > y}, so {g(Z) > y} = {Z > g_inverse(y)}.

    Returns -inf below the link's left endpoint.  Accepts scalars or arrays.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y must be non-negative")
    if link.kind == SHIFTED_LOGNORMAL:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                y <= link.x_min,
                -np.inf,
                (np.log(np.maximum(y - link.x_min, 1e-320)) - link.mu_hat) / link.s_hat,
            )
    else:
        out = np.where(y < link.x_min, -np.inf, (y - link.mu_hat) / link.s_hat)
    return float(out) if out.ndim == 0 else out


def _censored_h1(alpha: float) -> float:
    """E[(Z - alpha)^+] for standard normal Z."""
    return float(_phi(alpha) - alpha * std_normal_tail(alpha))


def _censored_h2sq(alpha: float) -> float:
    """Var[(Z - alpha)^+] for standard normal Z."""
    e2 = float((1.0 + alpha * alpha) * std_normal_tail(alpha) - alpha * _phi(alpha))
    h1 = _censored_h1(alpha)
    return max(e2 - h1 * h1, 0.0)


def marginal_moments(link: LinkFunction) -> tuple[float, float]:
    """(mean, sd) of the delay marginal g(Z), Z ~ N(0, 1)."""
    if link.kind == SHIFTED_LOGNORMAL:
        s2 = link.s_hat**2
        mean = link.x_min + math.exp(link.mu_hat + 0.5 * s2)
        var = (math.exp(s2) - 1.0) * math.exp(2.0 * link.mu_hat + s2)
    else:
        alpha = (link.x_min - link.mu_hat) / link.s_hat
        mean = link.x_min + link.s_hat * _censored_h1(alpha)
        var = link.s_hat**2 * _censored_h2sq(alpha)
    return mean, math.sqrt(var)


def calibrate_marginal(target: CalibrationTarget, kind: str) -> tuple[float, float]:
    """(mu_hat, s_hat) matching the target (mean, sd) exactly.

    The shifted lognormal has a closed form.  For the censored normal the
    coefficient of variation of the excess (X - x_min) depends on the
    censoring point alpha alone, so a single bracketed root-find in alpha
    suffices.
    """
    m = target.mu - target.x_min
    if kind == SHIFTED_LOGNORMAL:
        s_hat_sq = math.log1p((target.s / m) ** 2)
        s_hat = math.sqrt(s_hat_sq)
        mu_hat = math.log(m) - 0.5 * s_hat_sq
        return mu_hat, s_hat
    if kind != CENSORED_NORMAL:
        raise ValueError(f"unknown link kind {kind!r}")
    q_target = target.s / m

    def ratio_gap(alpha: float) -> float:
        # NaN where h1 underflows, so such an alpha never brackets the root.
        h1 = _censored_h1(alpha)
        return math.sqrt(_censored_h2sq(alpha)) / h1 - q_target if h1 > 0 else math.nan

    lo, hi = -5.0, 5.0
    for _ in range(20):
        if ratio_gap(lo) < 0:
            break
        lo *= 2.0
    for _ in range(20):
        if ratio_gap(hi) > 0:
            break
        hi *= 2.0
    if not (ratio_gap(lo) < 0 < ratio_gap(hi)):
        raise CalibrationError(
            f"censored-normal target (mu={target.mu}, s={target.s}, "
            f"x_min={target.x_min}) could not be bracketed"
        )
    alpha = _bisect(ratio_gap, lo, hi)
    s_hat = m / _censored_h1(alpha)
    mu_hat = target.x_min - s_hat * alpha
    return mu_hat, s_hat


def lag_covariance(link: LinkFunction, rho: float) -> float:
    """Cov[g(Z_0), g(Z_1)] for standard bivariate normal (Z_0, Z_1) with
    correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if link.kind == SHIFTED_LOGNORMAL:
        s2 = link.s_hat**2
        return math.exp(2.0 * link.mu_hat + s2) * math.expm1(s2 * rho)
    # Censored normal: cov = s_hat^2 * Cov[(Z0-alpha)^+, (Z1-alpha)^+].
    # The inner conditional expectation is closed-form, leaving one smooth
    # 1-D integral over the first coordinate.
    alpha = (link.x_min - link.mu_hat) / link.s_hat
    sbar_sq = 1.0 - rho * rho
    upper = max(alpha, 0.0) + 12.0
    if upper <= alpha:
        return 0.0
    # Ten equal Gauss-Legendre panels: 200 nodes.
    u, w = _panels(np.linspace(alpha, upper, 11))
    m = rho * u
    if sbar_sq < 1e-14:
        inner = np.maximum(m - alpha, 0.0)
    else:
        sbar = math.sqrt(sbar_sq)
        inner = (m - alpha) * std_normal_tail((alpha - m) / sbar) + sbar * _phi(
            (alpha - m) / sbar
        )
    e_cross = float(np.sum(w * (u - alpha) * _phi(u) * inner))
    h1 = _censored_h1(alpha)
    return link.s_hat**2 * (e_cross - h1 * h1)


def calibrate_kappa(link: LinkFunction, c: float) -> float:
    """OU rate kappa such that the delay autocovariance satisfies
    sigma(c)/sigma(0) = 1/e.  The ratio is strictly increasing in the
    Gaussian correlation, so the root in rho = exp(-kappa*c) is unique."""
    if not c > 0:
        raise CalibrationError(f"time constant must be positive, got {c}")
    var = lag_covariance(link, 1.0)
    if not var > 0:
        raise CalibrationError("link has zero marginal variance")
    target = math.exp(-1.0)

    def gap(rho: float) -> float:
        return lag_covariance(link, rho) / var - target

    lo, hi = 1e-12, 1.0 - 1e-12
    if not (gap(lo) < 0 < gap(hi)):
        raise CalibrationError("covariance-ratio equation could not be bracketed")
    rho_star = _bisect(gap, lo, hi)
    return -math.log(rho_star) / c
