"""Link functions, moment calibration, and autocovariance matching."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_lab.cli import EXIT_USAGE, RunConfig, UsageError, main
from aoi_lab.core import GenerationSchedule, block_length, decompose_time
from aoi_lab.errors import CalibrationError
from aoi_lab.links import (
    CENSORED_NORMAL,
    SHIFTED_LOGNORMAL,
    CalibrationTarget,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    _bisect,
    calibrate_kappa,
    calibrate_marginal,
    g_apply,
    g_inverse,
    lag_covariance,
    marginal_moments,
)
from aoi_lab.orthant import QuadratureSpec, std_normal_tail
from aoi_lab.outputs import ccdf_profile
from oracles import bisect

# Reference values computed with independent adaptive-quadrature oracles
# (nested root-finds over direct moment integrals; 2-D integration for the
# lagged covariance), frozen here.
TARGET = CalibrationTarget(mu=1.0, s=0.75, x_min=0.5)
LOGNORMAL_MU_HAT = -1.2824746787307684
LOGNORMAL_S_HAT = 1.085658784490618
CENSORED_MU_HAT = 0.4516810352342015
CENSORED_S_HAT = 1.3129839889837354
LOGNORMAL_LAGCOV_HALF = 0.20069390943299492
CENSORED_LAGCOV_HALF = 0.23805506905030835
LOGNORMAL_KAPPA_C10 = 0.06700892057939234
CENSORED_KAPPA_C10 = 0.08154871355124675


def lognormal_link():
    return LinkFunction(SHIFTED_LOGNORMAL, 0.5, LOGNORMAL_MU_HAT, LOGNORMAL_S_HAT)


def censored_link():
    return LinkFunction(CENSORED_NORMAL, 0.5, CENSORED_MU_HAT, CENSORED_S_HAT)


class TestBisect:
    def test_solves_array_brackets_elementwise(self):
        c = np.array([0.1, 2.0, 7.5])

        def f(x):
            return x**3 - c

        x = bisect(f, np.array([0.0, 1.0, -2.0]), np.array([1.0, 2.0, 3.0]))
        assert x.shape == (3,)
        # Each root to adjacent floats: f changes sign between x's
        # predecessor and x.
        assert np.all(f(x) >= 0) and np.all(f(np.nextafter(x, -np.inf)) < 0)

    def test_returns_the_jump_point_of_a_step(self):
        assert _bisect(lambda x: np.where(x >= 0.3, 1.0, -1.0), 0.0, 1.0) == 0.3
        above = _bisect(lambda x: np.where(x > 0.3, 1.0, -1.0), 0.0, 1.0)
        assert above == np.nextafter(0.3, 1.0)

    def test_finds_a_root_at_either_end_of_the_bracket(self):
        assert _bisect(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert _bisect(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_scalar_and_array_forms_agree_bit_for_bit(self):
        # The calibrations' and the percentile bracket's root-finds, each
        # by the scalar form and by the elementwise oracle on a 0-d bracket.
        cases = [
            (lambda z, p=p: 1.0 - p - std_normal_tail(z), -10.0, 10.0)
            for p in (0.5, 0.9, 0.99, 0.999)
        ]
        for link in (lognormal_link(), censored_link()):
            var = lag_covariance(link, 1.0)
            for c in (0.1, 1.0, 10.0):
                rho_c = math.exp(-c)
                cases.append(
                    (lambda r, link=link, rc=rho_c: lag_covariance(link, r) / var - rc,
                     1e-12, 1.0 - 1e-12)
                )
        cases.append((lambda x: x**3 - 2.0, 0.0, 2.0))
        cases.append((lambda x: x - 1.0, 1.0, 2.0))
        for f, lo, hi in cases:
            x = _bisect(f, lo, hi)
            assert type(x) is float
            assert x.hex() == bisect(f, lo, hi).hex()


class TestLinkValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            LinkFunction("uniform", 0.5, 0.0, 1.0)

    def test_rejects_negative_left_endpoint(self):
        with pytest.raises(ValueError):
            LinkFunction(SHIFTED_LOGNORMAL, -0.1, 0.0, 1.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            LinkFunction(SHIFTED_LOGNORMAL, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize(
        "name,args",
        [
            ("x_min", (math.nan, 0.0, 1.0)),
            ("x_min", (math.inf, 0.0, 1.0)),
            ("mu_hat", (0.5, math.nan, 1.0)),
            ("mu_hat", (0.5, -math.inf, 1.0)),
            ("s_hat", (0.5, 0.0, math.inf)),
            ("s_hat", (0.5, 0.0, math.nan)),
        ],
    )
    def test_rejects_non_finite_parameters(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LinkFunction(SHIFTED_LOGNORMAL, *args)

    @pytest.mark.parametrize("kind", [SHIFTED_LOGNORMAL, CENSORED_NORMAL])
    def test_accepts_exactly_the_links_with_finite_moments(self, kind):
        # At mu_hat = -354 the lognormal variance still fits a float at
        # s_hat = 26.6, and exp(s_hat^2) overflows at 26.7; the censored
        # normal's variance s_hat^2 overflows past about 1.34e154.
        ok, bad = (26.6, 26.7) if kind == SHIFTED_LOGNORMAL else (1e154, 1e155)
        link = LinkFunction(kind, 0.0, -354.0, ok)
        assert all(map(math.isfinite, (*marginal_moments(link), lag_covariance(link, 1.0))))
        with pytest.raises(OverflowError, match=re.escape(f"link.s_hat={bad}")):
            LinkFunction(kind, 0.0, -354.0, bad)

    @pytest.mark.parametrize(
        "changes,name",
        [
            ({"x_min": math.nan, "c": 0.0}, "x_min"),
            ({"mu_hat": math.nan, "kappa": 0.1}, "mu_hat"),
            ({"mu_hat": math.nan, "c": 10.0}, "mu_hat"),
            ({"s_hat": math.inf, "c": 10.0}, "s_hat"),
        ],
    )
    def test_config_model_names_the_non_finite_parameter(self, changes, name):
        cfg = RunConfig(SHIFTED_LOGNORMAL, **{"mu_hat": 0.4, "s_hat": 0.9, **changes})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cfg.model()

    def test_simulate_names_a_non_finite_parameter(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path), "--set", "link.mu_hat=nan",
                     "--set", "link.s_hat=0.9", "--set", "correlation.c=10"])
        assert code == EXIT_USAGE
        assert "mu_hat must be finite, got nan" in capsys.readouterr().err


class TestApplyInverse:
    def test_lognormal_values(self):
        link = lognormal_link()
        assert g_apply(link, 0.0) == pytest.approx(
            0.5 + math.exp(LOGNORMAL_MU_HAT), rel=1e-14
        )

    def test_censored_clamps_at_left_endpoint(self):
        link = censored_link()
        assert g_apply(link, -10.0) == 0.5
        # mu_hat sits below x_min here, so even z = 0 is censored.
        assert g_apply(link, 0.0) == 0.5
        assert g_apply(link, 1.0) == pytest.approx(
            CENSORED_MU_HAT + CENSORED_S_HAT, rel=1e-14
        )

    @pytest.mark.parametrize("link", [lognormal_link(), censored_link()], ids=["lognormal", "censored"])
    def test_in_place_link_is_bit_identical(self, link):
        # The whole-array formula, against the result written into a fresh
        # array, into z itself, and for 0-d and scalar z.
        z = np.random.Generator(np.random.Philox(2)).standard_normal((300, 7))
        if link.kind == SHIFTED_LOGNORMAL:
            ref = link.x_min + np.exp(link.mu_hat + link.s_hat * z)
        else:
            ref = np.maximum(link.x_min, link.mu_hat + link.s_hat * z)
        assert g_apply(link, z).tobytes() == ref.tobytes()
        work = z.copy()
        assert g_apply(link, work, out=work) is work
        assert work.tobytes() == ref.tobytes()
        assert g_apply(link, z.T).tobytes() == ref.T.tobytes()
        assert g_apply(link, np.asarray(z[0, 0])) == g_apply(link, float(z[0, 0])) == ref[0, 0]

    def test_inverse_below_endpoint_is_minus_infinity(self):
        assert g_inverse(lognormal_link(), 0.5) == -np.inf
        assert g_inverse(lognormal_link(), 0.2) == -np.inf
        assert g_inverse(censored_link(), 0.4) == -np.inf

    def test_censored_inverse_at_endpoint(self):
        # {g(Z) > x_min} = {Z > alpha} with alpha the censoring point.
        link = censored_link()
        alpha = (0.5 - CENSORED_MU_HAT) / CENSORED_S_HAT
        assert g_inverse(link, 0.5) == pytest.approx(alpha, rel=1e-13)

    def test_rejects_negative_delay_values(self):
        with pytest.raises(ValueError):
            g_inverse(lognormal_link(), -1.0)

    @given(z=st.floats(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_lognormal_roundtrip(self, z):
        link = lognormal_link()
        assert g_inverse(link, g_apply(link, z)) == pytest.approx(
            z, rel=1e-9, abs=1e-9
        )

    @given(z=st.floats(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_censored_tail_event_identity(self, z):
        # {g(Z) > y} = {Z > g_inverse(y)} even across the flat region.
        link = censored_link()
        rng_y = [0.4, 0.5, 0.7, 1.5, 4.0]
        for y in rng_y:
            assert (g_apply(link, z) > y) == (z > g_inverse(link, y))


class TestMarginalCalibration:
    def test_lognormal_frozen_parameters(self):
        mu_hat, s_hat = calibrate_marginal(TARGET, SHIFTED_LOGNORMAL)
        assert mu_hat == pytest.approx(LOGNORMAL_MU_HAT, rel=1e-12)
        assert s_hat == pytest.approx(LOGNORMAL_S_HAT, rel=1e-12)

    def test_censored_frozen_parameters(self):
        mu_hat, s_hat = calibrate_marginal(TARGET, CENSORED_NORMAL)
        assert mu_hat == pytest.approx(CENSORED_MU_HAT, rel=1e-8)
        assert s_hat == pytest.approx(CENSORED_S_HAT, rel=1e-8)

    @pytest.mark.parametrize("kind", [SHIFTED_LOGNORMAL, CENSORED_NORMAL])
    @pytest.mark.parametrize(
        "mu,s,x_min",
        [(1.0, 0.75, 0.5), (2.0, 0.3, 0.0), (1.2, 1.5, 1.0), (5.0, 0.1, 4.5)],
    )
    def test_moment_roundtrip(self, kind, mu, s, x_min):
        target = CalibrationTarget(mu=mu, s=s, x_min=x_min)
        mu_hat, s_hat = calibrate_marginal(target, kind)
        mean, sd = marginal_moments(LinkFunction(kind, x_min, mu_hat, s_hat))
        assert mean == pytest.approx(mu, rel=1e-10)
        assert sd == pytest.approx(s, rel=1e-10)

    def test_rejects_mean_at_or_below_endpoint(self):
        with pytest.raises(ValueError):
            CalibrationTarget(mu=0.5, s=0.75, x_min=0.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            calibrate_marginal(TARGET, "uniform")

    def test_censored_bracket_skips_an_underflowed_mean_excess(self):
        # Doubling the bracket reaches alphas where E[(Z - alpha)^+]
        # underflows to 0; the target then fails to bracket.
        with pytest.raises(CalibrationError, match="could not be bracketed"):
            calibrate_marginal(CalibrationTarget(mu=1.0, s=1e200, x_min=0.5), CENSORED_NORMAL)


class TestLagCovariance:
    def test_lognormal_frozen_value(self):
        assert lag_covariance(lognormal_link(), 0.5) == pytest.approx(
            LOGNORMAL_LAGCOV_HALF, rel=1e-10
        )

    def test_censored_frozen_value(self):
        assert lag_covariance(censored_link(), 0.5) == pytest.approx(
            CENSORED_LAGCOV_HALF, rel=1e-8
        )

    @pytest.mark.parametrize("link_fn", [lognormal_link, censored_link])
    def test_endpoints(self, link_fn):
        link = link_fn()
        _, sd = marginal_moments(link)
        assert lag_covariance(link, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert lag_covariance(link, 1.0) == pytest.approx(sd * sd, rel=1e-8)

    @pytest.mark.parametrize("link_fn", [lognormal_link, censored_link])
    def test_monotone_in_correlation(self, link_fn):
        link = link_fn()
        values = [lag_covariance(link, r) for r in np.linspace(0, 1, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(ValueError):
            lag_covariance(lognormal_link(), 1.5)


class TestKappaCalibration:
    def test_lognormal_frozen_value(self):
        assert calibrate_kappa(lognormal_link(), 10.0) == pytest.approx(
            LOGNORMAL_KAPPA_C10, rel=1e-10
        )

    def test_censored_frozen_value(self):
        assert calibrate_kappa(censored_link(), 10.0) == pytest.approx(
            CENSORED_KAPPA_C10, rel=1e-8
        )

    @pytest.mark.parametrize("link_fn", [lognormal_link, censored_link])
    @pytest.mark.parametrize("c", [0.1, 1.0, 25.0])
    def test_defining_equation_holds(self, link_fn, c):
        link = link_fn()
        kappa = calibrate_kappa(link, c)
        ratio = lag_covariance(link, math.exp(-kappa * c)) / lag_covariance(link, 1.0)
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_effectively_linear_link_gives_reciprocal_rate(self):
        # With censoring pushed far into the tail the delay is Gaussian, its
        # autocovariance is proportional to the driver correlation, and the
        # 1/e condition gives kappa = 1/c exactly.
        link = LinkFunction(CENSORED_NORMAL, 0.0, 20.0, 1.0)
        assert calibrate_kappa(link, 10.0) == pytest.approx(0.1, rel=1e-6)

    def test_rejects_nonpositive_time_constant(self):
        with pytest.raises(CalibrationError):
            calibrate_kappa(lognormal_link(), 0.0)


class TestCorrelationAndModel:
    def test_ou_mode_requires_kappa(self):
        with pytest.raises(ValueError):
            CorrelationMode("ou")

    def test_degenerate_modes_reject_kappa(self):
        with pytest.raises(ValueError):
            CorrelationMode("iid", kappa=0.5)

    def test_step_correlation(self):
        model = DelayModel(
            lognormal_link(),
            CorrelationMode("ou", kappa=0.25),
            GenerationSchedule(2.0),
        )
        assert model.step_correlation() == pytest.approx(math.exp(-0.5), rel=1e-14)
        for kind, rho in (("iid", 0.0), ("frozen", 1.0)):
            limit = DelayModel(model.link, CorrelationMode(kind), model.schedule)
            assert limit.step_correlation() == rho

    def test_time_constant(self):
        link = lognormal_link()
        assert CorrelationMode("iid").time_constant(link) == 0.0
        assert CorrelationMode("frozen").time_constant(link) == math.inf
        assert CorrelationMode("ou", kappa=0.5, c=3.0).time_constant(link) == 3.0
        # A rate alone implies the c it was calibrated from.
        kappa = calibrate_kappa(link, 10.0)
        assert CorrelationMode("ou", kappa=kappa).time_constant(link) == pytest.approx(10.0)

    def test_ladder_orders_correlation(self):
        own = CorrelationMode("ou", kappa=0.5)
        rungs = own.ladder()
        assert [label for label, _ in rungs] == ["iid", "2kappa", "kappa", "kappa/2", "frozen"]
        assert [corr.kappa for _, corr in rungs[1:4]] == [1.0, 0.5, 0.25]
        assert rungs[2][1] is own
        assert [label for label, _ in CorrelationMode("frozen").ladder()] == ["iid", "frozen"]

    def test_build_model_end_to_end(self):
        cfg = RunConfig(SHIFTED_LOGNORMAL, x_min=0.5, mu=1.0, s=0.75, c=10.0, tau=2.0)
        model = cfg.model()
        assert model.correlation.kappa == pytest.approx(
            LOGNORMAL_KAPPA_C10, rel=1e-10
        )
        assert model.schedule.tau == 2.0

    def test_build_model_ou_requires_time_constant(self):
        with pytest.raises(UsageError):
            RunConfig(SHIFTED_LOGNORMAL, x_min=0.5, mu=1.0, s=0.75, mode="ou")


class TestThresholds:
    def test_values_and_length(self):
        # At (t=7.3, x=3.4) with tau=2 the phase is 1.3 and the two most
        # recent packets matter, with delay thresholds 1.3 and 3.3; the
        # exact profile is the joint tail over their Gaussian thresholds.
        model = DelayModel(
            lognormal_link(), CorrelationMode("iid"), GenerationSchedule(2.0)
        )
        k, phi = decompose_time(7.3, 2.0)
        assert k == 3
        assert phi == pytest.approx(1.3, rel=1e-12)
        n = block_length(3.4, phi, 2.0, k)
        assert n == 2
        q = ccdf_profile(model, phi, n, QuadratureSpec())
        assert q.shape == (n + 1,)
        a = [float(g_inverse(model.link, 1.3)), float(g_inverse(model.link, 3.3))]
        expected = std_normal_tail(a[0]) * std_normal_tail(a[1])
        assert q[n] == pytest.approx(expected, rel=1e-12)
