"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(bypassing capture) so the gate can be read off the terminal directly.
"""

import json
import math
import time

import numpy as np
import pytest

from aoi_lab.cli import RunConfig
from aoi_lab.cli import main as cli_main
from aoi_lab.core import GenerationSchedule, decompose_time
from aoi_lab.links import (
    CENSORED_NORMAL,
    SHIFTED_LOGNORMAL,
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    calibrate_marginal,
    lag_covariance,
    marginal_moments,
)
from aoi_lab.orthant import QuadratureSpec
from aoi_lab.outputs import (
    DEFAULT_LEVELS,
    aoi_support,
    dominance_check,
    exact_ccdf_grid,
    percentiles,
)
from aoi_lab.simulate import simulate_empirical_ccdf
from oracles import mvn_orthant_mc, orthant_frozen, orthant_iid, ou_covariance, ou_orthant

# Reference delay model used throughout: shifted-lognormal link with
# direct parameters and a slowly-decaying OU driver.
MU_HAT, S_HAT, KAPPA, X_MIN, TAU = 0.452, 1.312, 0.081, 0.5, 2.0


def reference_model(kind="ou", kappa=KAPPA):
    link = LinkFunction(SHIFTED_LOGNORMAL, X_MIN, MU_HAT, S_HAT)
    corr = CorrelationMode(kind, kappa=kappa if kind == "ou" else None)
    return DelayModel(link, corr, GenerationSchedule(TAU))


def report(capsys, name: str, passed: bool, detail: str = ""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_bivariate_closed_form(capsys):
    """Bivariate zero-threshold tails match 1/4 + arcsin(rho)/(2*pi) to
    1e-5 across rho = 0.1..0.9 at the default quadrature, within 1s."""
    spec = QuadratureSpec(m=400)
    start = time.time()
    worst = 0.0
    for rho in np.arange(0.1, 0.95, 0.1):
        exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
        got = ou_orthant([0.0, 0.0], float(rho), spec)
        worst = max(worst, abs(got - exact))
    elapsed = time.time() - start
    report(
        capsys,
        "1 bivariate closed form",
        worst <= 1e-5 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_degenerate_limits(capsys):
    """Near-zero correlation reproduces the independent product form within
    1e-4 and near-unit correlation the common-draw form within 1e-3."""
    rng = np.random.Generator(np.random.Philox(2024))
    worst_iid = worst_frozen = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2.0, 2.0, size=n)
        worst_iid = max(worst_iid, abs(ou_orthant(a, 1e-6) - orthant_iid(a)))
        worst_frozen = max(
            worst_frozen, abs(ou_orthant(a, 1 - 1e-6) - orthant_frozen(a))
        )
    report(
        capsys,
        "2 degenerate correlation limits",
        worst_iid <= 1e-4 and worst_frozen <= 1e-3,
        f"iid error {worst_iid:.2e}, frozen error {worst_frozen:.2e}",
    )


def test_criterion_3_monte_carlo_cross_check(capsys):
    """Twenty random joint tails agree with 1e6-sample Monte Carlo within
    three standard errors, in under two minutes."""
    rng = np.random.Generator(np.random.Philox(7))
    start = time.time()
    worst_z = 0.0
    for case in range(20):
        n = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.05, 0.95))
        a = rng.uniform(-1.5, 1.5, size=n)
        exact = ou_orthant(a, rho)
        mc, se = mvn_orthant_mc(ou_covariance(rho, n), a, 1_000_000, seed=100 + case)
        worst_z = max(worst_z, abs(exact - mc) / max(se, 1e-12))
    elapsed = time.time() - start
    report(
        capsys,
        "3 Monte-Carlo cross-check",
        worst_z <= 3.0 and elapsed < 120.0,
        f"max |z| {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_4_reference_model_grid(capsys):
    """Exact 20x50 CCDF grid for the reference model agrees with a
    100k-path simulation within 3 standard errors in at least 99% of
    cells, in under ten minutes."""
    start = time.time()
    model = reference_model()
    t_grid = np.arange(1, 21) * 0.5
    x_grid = np.arange(1, 51) * 0.2
    exact = exact_ccdf_grid(model, t_grid, x_grid, threads=2)
    emp = simulate_empirical_ccdf(model, t_grid, x_grid, n_paths=100_000, seed=11)
    diff = np.abs(exact.p - emp.grid.p)
    se = np.sqrt(exact.p * (1.0 - exact.p) / 100_000)
    z = np.where(diff <= 1e-9, 0.0, diff / np.maximum(se, 1e-300))
    frac = float(np.mean(z <= 3.0))
    elapsed = time.time() - start
    report(
        capsys,
        "4 reference model exact vs simulation",
        frac >= 0.99 and elapsed < 600.0,
        f"{100 * frac:.2f}% of cells within 3 se, max z {z.max():.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_support_and_periodicity(capsys):
    """The age law is supported on the phase lattice (atoms plus a possible
    infinite mass summing to 1 within 1e-9), is exactly 1 below the phase,
    and is periodic in t with period tau to 1e-9."""
    model = reference_model()
    t = 7.3
    k, phi = decompose_time(t, TAU)
    sup = aoi_support(model, t)
    atoms_ok = np.allclose(
        sup.atoms, np.arange(sup.j_star, k + 1) * TAU + phi, atol=1e-9, rtol=0
    )
    total = float(sup.masses.sum() + sup.p_infinity)
    mass_ok = abs(total - 1.0) <= 1e-9

    x_small = phi - 1e-6
    grid_small = exact_ccdf_grid(model, [t], [x_small])
    below_phase_ok = grid_small.p[0, 0] == 1.0

    x = 3.0
    times = [x + 0.37 + j * TAU for j in range(5)]
    grid = exact_ccdf_grid(model, times, [x])
    period_gap = float(np.ptp(grid.p[:, 0]))
    report(
        capsys,
        "5 lattice support and periodicity",
        atoms_ok and mass_ok and below_phase_ok and period_gap <= 1e-9,
        f"mass total err {abs(total - 1.0):.1e}, periodicity gap "
        f"{period_gap:.1e}",
    )


def test_criterion_6_correlation_dominance(capsys):
    """CCDFs increase pointwise with correlation along the ladder
    iid -> 2*kappa -> kappa -> kappa/2 -> frozen (violations <= 1e-6)."""
    t_grid = np.arange(0.5, 10.5, 0.5)
    x_grid = np.arange(0.0, 8.0, 0.2)
    ladder = [
        reference_model("iid"),
        reference_model(kappa=2 * KAPPA),
        reference_model(kappa=KAPPA),
        reference_model(kappa=KAPPA / 2),
        reference_model("frozen"),
    ]
    grids = [exact_ccdf_grid(m, t_grid, x_grid, threads=2) for m in ladder]
    worst = 0.0
    for lo, hi in zip(grids, grids[1:]):
        worst = max(worst, dominance_check(lo, hi))
    report(
        capsys,
        "6 correlation dominance ladder",
        worst <= 1e-6,
        f"max violation {worst:.2e}",
    )


def test_criterion_7_percentile_sweep(capsys):
    """Across the full sweep (both links, s in {0.75, 1.25}, tau in
    {0.1, 0.5, 1.0, 1.5, 2.0}, c in {0, 0.1, 1, 10, inf}) every time-
    averaged percentile is non-decreasing in the correlation time constant,
    and correlation matters a lot at tau = 0.1 but little at tau = 2.0."""
    start = time.time()
    spec = QuadratureSpec(m=256)
    c_values = [0.0, 0.1, 1.0, 10.0, math.inf]
    tau_values = [0.1, 0.5, 1.0, 1.5, 2.0]
    monotone_ok = True
    spreads: dict[tuple, float] = {}
    for kind in (SHIFTED_LOGNORMAL, CENSORED_NORMAL):
        for s in (0.75, 1.25):
            for tau in tau_values:
                rows = []
                for c in c_values:
                    model = RunConfig(kind, x_min=X_MIN, mu=1.0, s=s, c=c, tau=tau).model()
                    rows.append(percentiles(model, DEFAULT_LEVELS, spec))
                tol = 1e-4 * tau  # ordering slack; each percentile is exact to adjacent floats
                for prev, curr in zip(rows, rows[1:]):
                    if np.any(curr < prev - 2 * tol):
                        monotone_ok = False
                spreads[(kind, s, tau)] = float(np.max(rows[-1] - rows[0]))
    spread_ok = all(
        spreads[(kind, s, 0.1)] >= 4.0 * spreads[(kind, s, 2.0)]
        for kind in (SHIFTED_LOGNORMAL, CENSORED_NORMAL)
        for s in (0.75, 1.25)
    )
    elapsed = time.time() - start
    report(
        capsys,
        "7 percentile sweep ordering",
        monotone_ok and spread_ok,
        f"monotone={monotone_ok}, spread ratio ok={spread_ok}, {elapsed:.0f}s",
    )


def test_criterion_8_calibration_roundtrip(capsys):
    """Calibrated links reproduce target moments, and the calibrated OU
    rate reproduces the 1/e covariance-ratio condition, to 1e-8 relative."""
    worst = 0.0
    for kind in (SHIFTED_LOGNORMAL, CENSORED_NORMAL):
        for mu, s, x_min in [(1.0, 0.75, 0.5), (2.0, 0.4, 0.0), (1.5, 1.2, 0.8)]:
            target = CalibrationTarget(mu=mu, s=s, x_min=x_min)
            mu_hat, s_hat = calibrate_marginal(target, kind)
            link = LinkFunction(kind, x_min, mu_hat, s_hat)
            mean, sd = marginal_moments(link)
            worst = max(worst, abs(mean - mu) / mu, abs(sd - s) / s)
            for c in (0.5, 10.0):
                kappa = calibrate_kappa(link, c)
                ratio = lag_covariance(link, math.exp(-kappa * c)) / lag_covariance(
                    link, 1.0
                )
                worst = max(worst, abs(ratio - math.exp(-1.0)) / math.exp(-1.0))
    report(
        capsys,
        "8 calibration round-trip",
        worst <= 1e-8,
        f"max relative error {worst:.2e}",
    )


def test_criterion_9_thread_invariant_output(capsys, tmp_path):
    """The exported CSV artifacts are byte-identical for any thread count."""
    config = {
        "link": {"kind": "shifted-lognormal", "x_min": X_MIN,
                 "mu_hat": MU_HAT, "s_hat": S_HAT},
        "correlation": {"mode": "ou", "kappa": KAPPA},
        "tau": TAU,
        "t_grid": {"start": 0.5, "stop": 8.0, "step": 0.5},
        "x_grid": {"start": 0.0, "stop": 6.0, "step": 0.2},
        "delta": 0.2,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    artifacts = ("ccdf.csv", "heatmap.csv", "timeavg.csv", "percentiles.csv")
    contents = {}
    for threads in (1, 2, 4):
        out = tmp_path / f"threads{threads}"
        code = cli_main(
            ["exact", "--config", str(cfg_path), "--out", str(out),
             "--threads", str(threads)]
        )
        assert code == 0
        contents[threads] = [(out / name).read_bytes() for name in artifacts]
    identical = contents[1] == contents[2] == contents[4]
    report(
        capsys,
        "9 thread-invariant artifacts",
        identical,
        "byte-identical across 1/2/4 threads" if identical else "outputs differ",
    )
