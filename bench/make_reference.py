"""Generate ``reference.json``, the pinned accuracy references of the benchmark.

    PYTHONPATH=src python3 bench/make_reference.py

It takes about ten minutes on two cores and writes ``bench/reference.json``:

- ``ccdf``: the exact-readme CCDF grid at m = 1600.
- ``timeavg`` and ``percentiles``: the README model's time-averaged CCDF
  on the x grid and its percentiles.
- ``sweep``: the percentiles of the 15 sweep-c-tau rows.

The time average F(x) = (1/tau) * integral over the phase phi in [0, tau)
of Pr(A_phi > x) is split at phi = x mod tau, where the block length
jumps: F(x) = (1/tau) * (int_0^phi* Q_phi[j+1] + int_phi*^tau Q_phi[j]),
with j = floor(x / tau).  For fixed n the plateau value Q_phi[n] is smooth
in phi, apart from phi = x_min mod tau where a threshold leaves -inf, so
it is interpolated in phi on Chebyshev-Lobatto points on each side of
that point and every piece is integrated by Gauss-Legendre.  The
percentiles solve F(x) = 1 - p with brentq.  Independent and frozen rows
use their closed forms; OU rows use ``ccdf_profile`` at a fine m.

Every reference is computed at m and 2m (and on half of the phase points);
the largest difference is stored as ``err_estimate``.  A sample of cells
is checked against ``scipy.stats.multivariate_normal.cdf`` (Genz's
algorithm) so that the reference does not share a bug with ``OuChain``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from aoi_lab.cli import RunConfig
from aoi_lab.core import GenerationSchedule
from aoi_lab.links import (
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    calibrate_marginal,
)
from aoi_lab.orthant import QuadratureSpec
from aoi_lab.outputs import ccdf_profile, exact_ccdf_grid

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import LEVELS, README_CONFIG, SWEEP_C  # noqa: E402

# Criterion 7's extreme tau = 0.1 too, which the workload leaves out.
SWEEP_TAU = ("0.1", "0.5", "2.0")
CCDF_M = (1600, 3200)
TIMEAVG_M = (800, 1600)
SWEEP_MS = (512, 1024)
PHASE_INTERVALS = 128  # Lobatto points per phase piece, minus one
X_MAX_SWEEP = 4.0  # beyond every sweep row's p90
THREADS = 2
MVN_ABSEPS = 1e-9
MVN_TOL = 1e-6

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def thresholds(link: LinkFunction, tau: float, phi: float, n: int) -> np.ndarray:
    """Gaussian thresholds a_j with {D > j*tau + phi} = {Z > a_j}, j < n,
    written out for the shifted-lognormal link."""
    if link.kind != "shifted-lognormal":
        raise ValueError(f"thresholds are written out for shifted-lognormal, not {link.kind}")
    y = np.arange(n) * tau + phi - link.x_min
    z = (np.log(np.maximum(y, 1e-300)) - link.mu_hat) / link.s_hat
    return np.where(y > 0, z, -np.inf)


def profile_fn(model: DelayModel, m: int):
    """phi, n_max -> Q_phi[0..n_max] for the model."""
    kind = model.correlation.kind
    tau = model.schedule.tau

    def closed_form(phi: float, n_max: int) -> np.ndarray:
        tail = ndtr(-thresholds(model.link, tau, phi, n_max))
        q = np.ones(n_max + 1)
        # iid: product of marginal tails; frozen: the largest threshold.
        q[1:] = np.cumprod(tail) if kind == "iid" else np.minimum.accumulate(tail)
        return q

    if kind != "ou":
        return closed_form
    spec = QuadratureSpec(m=m)
    return lambda phi, n_max: ccdf_profile(model, phi, n_max, spec)


class PhaseLaw:
    """Q_phi[n] for phi in [0, tau], interpolated on Lobatto points on each
    smooth piece, and the time-averaged CCDF built from it.  A piece is
    (lo, hi, nodes, values) with values[k, n] = Q_nodes[k][n]."""

    def __init__(self, tau: float, n_max: int, pieces: list):
        self.tau, self.n_max, self.pieces = tau, n_max, pieces

    @classmethod
    def compute(cls, model: DelayModel, m: int, n_max: int) -> "PhaseLaw":
        tau = model.schedule.tau
        b = model.link.x_min - tau * math.floor(model.link.x_min / tau)
        breaks = [0.0, b, tau] if 1e-9 * tau < b < tau * (1 - 1e-9) else [0.0, tau]
        k = np.arange(PHASE_INTERVALS + 1)
        q = profile_fn(model, m)
        pieces = []
        with ThreadPoolExecutor(THREADS) as pool:
            for lo, hi in zip(breaks, breaks[1:]):
                nodes = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * k / PHASE_INTERVALS))
                values = np.array(list(pool.map(lambda p: q(float(p), n_max), nodes)))
                pieces.append((lo, hi, nodes, values))
        return cls(tau, n_max, pieces)

    def coarse(self) -> "PhaseLaw":
        """The same law on every second Lobatto point (half the degree)."""
        return PhaseLaw(
            self.tau, self.n_max, [(lo, hi, x[::2], v[::2]) for lo, hi, x, v in self.pieces]
        )

    def q(self, phi: float, n: int) -> float:
        for lo, hi, nodes, values in self.pieces:
            if lo <= phi <= hi:
                return float(_barycentric(nodes, values[:, n], np.array([phi]))[0])
        raise ValueError(phi)

    def _integral(self, a: float, b: float, n: int) -> float:
        """Integral of Q_phi[n] over [a, b] in phi."""
        total = 0.0
        for lo, hi, nodes, values in self.pieces:
            s, e = max(a, lo), min(b, hi)
            if e <= s:
                continue
            x, w = np.polynomial.legendre.leggauss(len(nodes))
            half = 0.5 * (e - s)
            total += half * float(w @ _barycentric(nodes, values[:, n], s + half * (x + 1.0)))
        return total

    def favg(self, x: float) -> float:
        j = int(math.floor(x / self.tau))
        if j + 1 > self.n_max:
            raise ValueError(f"x={x} needs plateau {j + 1} > n_max={self.n_max}")
        phi = x - j * self.tau
        return (self._integral(0.0, phi, j + 1) + self._integral(phi, self.tau, j)) / self.tau

    def percentiles(self, x_max: float) -> list[float]:
        out = []
        for p in LEVELS:
            target = 1.0 - p
            if not self.favg(x_max) < target:
                raise ValueError(f"p{p}: F({x_max}) >= {target}; raise x_max")
            root = brentq(lambda x: self.favg(x) - target, 0.0, x_max, xtol=1e-13, rtol=1e-15)
            out.append(root)
        return out


def _barycentric(nodes: np.ndarray, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Polynomial interpolation through Chebyshev-Lobatto nodes."""
    k = len(nodes) - 1
    w = (-1.0) ** np.arange(k + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = targets[:, None] - nodes[None, :]
    exact = diff == 0.0
    diff[exact] = 1.0
    c = w / diff
    out = (c @ values) / c.sum(axis=1)
    hit = exact.any(axis=1)
    out[hit] = values[np.argmax(exact[hit], axis=1)]
    return out


def readme_model() -> DelayModel:
    return RunConfig.from_dict(README_CONFIG).model()


def sweep_model(c: float, tau: float) -> DelayModel:
    cfg = README_CONFIG["link"]
    target = CalibrationTarget(mu=cfg["mu"], s=cfg["s"], x_min=cfg["x_min"])
    mu_hat, s_hat = calibrate_marginal(target, cfg["kind"])
    link = LinkFunction(cfg["kind"], cfg["x_min"], mu_hat, s_hat)
    if c == 0:
        corr = CorrelationMode("iid")
    elif math.isinf(c):
        corr = CorrelationMode("frozen")
    else:
        corr = CorrelationMode("ou", kappa=calibrate_kappa(link, c), c=c)
    return DelayModel(link, corr, GenerationSchedule(tau))


def mvn_tail(model: DelayModel, phi: float, n: int, seed: int) -> float:
    """Pr(Z_j > a_j, j < n) by Genz's algorithm, for the OU driver."""
    a = thresholds(model.link, model.schedule.tau, phi, n)
    keep = np.isfinite(a)
    idx = np.arange(n)[keep]
    rho = model.step_correlation()
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    # Z and -Z have the same law, so Pr(Z > a) = Pr(Z < -a).
    return float(
        multivariate_normal.cdf(
            -a[keep], mean=np.zeros(idx.size), cov=cov,
            maxpts=2_000_000 * idx.size, abseps=MVN_ABSEPS, releps=0.0, rng=seed,
        )
    )


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def main() -> None:
    started = time.time()
    model = readme_model()
    cfg = RunConfig.from_dict(README_CONFIG)
    t_values, x_values = cfg.t_grid.values(), cfg.x_grid.values()
    spot = []

    grids = [
        exact_ccdf_grid(model, t_values, x_values, QuadratureSpec(m=m), threads=THREADS)
        for m in CCDF_M
    ]
    ccdf = {
        "m": CCDF_M[0],
        "err_estimate": float(np.max(np.abs(grids[0].p - grids[1].p))),
        "t": t_values.tolist(),
        "x": x_values.tolist(),
        "p": grids[0].p.tolist(),
    }
    log(f"ccdf done, err_estimate {ccdf['err_estimate']:.3g}")

    n_max = int(math.floor(x_values[-1] / model.schedule.tau)) + 1
    laws = [PhaseLaw.compute(model, m, n_max) for m in TIMEAVG_M]
    fine = laws[1]
    variants = [laws[0], fine.coarse()]
    ta = np.array([fine.favg(float(x)) for x in x_values])
    ta_err = max(
        float(np.max(np.abs(ta - [v.favg(float(x)) for x in x_values]))) for v in variants
    )
    x_top = float(x_values[-1])
    pct = fine.percentiles(x_top)
    pct_err = max(
        float(np.max(np.abs(np.subtract(pct, v.percentiles(x_top))))) for v in variants
    )
    timeavg = {
        "m": TIMEAVG_M[1], "err_estimate": ta_err, "x": x_values.tolist(), "values": ta.tolist()
    }
    percentiles = {
        "m": TIMEAVG_M[1], "err_estimate": pct_err, "levels": list(LEVELS), "values": pct
    }
    log(f"time average done, err_estimates {ta_err:.3g} / {pct_err:.3g}")
    for phi, n in [(0.0, 2), (0.5, 3), (1.0, 4), (1.5, 5), (0.25, 6), (1.9, 3)]:
        spot.append(("readme", phi, n, fine.q(phi, n), mvn_tail(model, phi, n, seed=len(spot))))

    rows, sweep_err = [], 0.0
    for c in map(float, SWEEP_C):
        for tau in map(float, SWEEP_TAU):
            m_row = sweep_model(c, tau)
            n_row = int(math.floor(X_MAX_SWEEP / tau)) + 1
            row_laws = [PhaseLaw.compute(m_row, m, n_row) for m in SWEEP_MS]
            values = row_laws[1].percentiles(X_MAX_SWEEP)
            for v in (row_laws[0], row_laws[1].coarse()):
                diff = np.subtract(values, v.percentiles(X_MAX_SWEEP))
                sweep_err = max(sweep_err, float(np.max(np.abs(diff))))
            rows.append({"c": c, "tau": tau, "values": values})
            if m_row.correlation.kind == "ou":
                # Up to six thresholds above -inf.
                phi = 0.37 * tau
                n_vacuous = int(np.sum(~np.isfinite(thresholds(m_row.link, tau, phi, n_row))))
                n = min(n_row, n_vacuous + 6)
                mvn = mvn_tail(m_row, phi, n, seed=len(spot))
                spot.append((f"sweep c={c} tau={tau}", phi, n, row_laws[1].q(phi, n), mvn))
            log(f"sweep row c={c} tau={tau}: {values}")
    sweep = {"m": SWEEP_MS[1], "err_estimate": sweep_err, "rows": rows}

    checks = [
        {"model": name, "phi": phi, "n": n, "reference": r, "mvn": mvn, "abs_diff": abs(r - mvn)}
        for name, phi, n, r, mvn in spot
    ]
    worst = max(c["abs_diff"] for c in checks)
    log(f"mvn spot checks: max |diff| {worst:.3g}")
    if worst > MVN_TOL:
        raise SystemExit(f"reference disagrees with multivariate_normal.cdf by {worst:.3g}")
    doc = {
        "config": README_CONFIG,
        "ccdf": ccdf,
        "timeavg": timeavg,
        "percentiles": percentiles,
        "sweep": sweep,
        "mvn_spot_checks": {"abseps": MVN_ABSEPS, "tolerance": MVN_TOL, "cells": checks},
        "generation_s": round(time.time() - started, 1),
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    log(f"wrote {OUT}")


if __name__ == "__main__":
    main()
