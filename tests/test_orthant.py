"""Gaussian joint-tail engine: closed forms, limits, and invariances."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from aoi_lab.errors import QuadratureError
from aoi_lab.orthant import (
    OuChain,
    QuadratureSpec,
    mvn_orthant_mc,
    orthant_frozen,
    orthant_iid,
    ou_covariance,
    ou_orthant,
    std_normal_tail,
)

# Reference joint tails computed independently by conditioning on the
# middle coordinate(s), under which the outer coordinates of an AR(1)
# chain are independent, and integrating adaptively (error < 1e-12).
TRI_ORTHANT_RHO06 = 0.08258524279878547  # a = (0.3, -0.5, 1.1)
QUAD_ORTHANT_RHO03 = 0.02489016702712972  # a = (0.2, 0.4, 0.6, 0.8)


def bivariate_zero_tail(rho: float) -> float:
    """Closed form Pr(Z_0 > 0, Z_1 > 0) = 1/4 + arcsin(rho)/(2*pi)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


class TestStdNormalTail:
    def test_matches_scipy_sf(self):
        x = np.linspace(-8, 8, 101)
        assert np.allclose(std_normal_tail(x), norm.sf(x), rtol=1e-13, atol=0)

    def test_infinite_arguments(self):
        assert std_normal_tail(-np.inf) == 1.0
        assert std_normal_tail(np.inf) == 0.0


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.m == 400 and spec.L == 8.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"m": 8}, {"L": 2.0}, {"L": math.nan}],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestOuOrthant:
    def test_empty_vector_is_one(self):
        assert ou_orthant([], 0.5) == 1.0

    def test_single_threshold_is_marginal_tail(self):
        for a in (-1.7, 0.0, 2.4):
            assert ou_orthant([a], 0.37) == pytest.approx(
                float(std_normal_tail(a)), abs=1e-14
            )

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_bivariate_zero_thresholds_closed_form(self, rho):
        assert ou_orthant([0.0, 0.0], rho) == pytest.approx(
            bivariate_zero_tail(rho), abs=1e-9
        )

    def test_trivariate_reference(self):
        p = ou_orthant([0.3, -0.5, 1.1], 0.6)
        assert p == pytest.approx(TRI_ORTHANT_RHO06, abs=1e-9)

    def test_quadrivariate_reference(self):
        p = ou_orthant([0.2, 0.4, 0.6, 0.8], 0.3)
        assert p == pytest.approx(QUAD_ORTHANT_RHO03, abs=1e-9)

    def test_minus_infinity_thresholds_are_vacuous(self):
        a = [0.4, 0.9, 1.3]
        base = ou_orthant(a, 0.55)
        padded = ou_orthant([-np.inf] + a + [-np.inf], 0.55)
        assert padded == pytest.approx(base, abs=1e-12)

    def test_rejects_threshold_beyond_truncation(self):
        with pytest.raises(QuadratureError):
            ou_orthant([9.0], 0.5, QuadratureSpec(L=8.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [[8.0], [7.0, 8.0]])
    def test_rejects_threshold_at_truncation(self, a):
        # A threshold at L would leave a zero-width stage grid.
        with pytest.raises(QuadratureError, match="enlarge L"):
            ou_orthant(a, 0.5, QuadratureSpec(L=8.0))

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError):
            ou_orthant([np.nan], 0.5)

    @pytest.mark.parametrize("rho", [-0.2, 0.0, 1.0, 1.3])
    def test_rejects_rho_outside_open_unit_interval(self, rho):
        with pytest.raises(ValueError):
            OuChain(rho)

    @given(
        a=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
        rho=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_reversal_invariance(self, a, rho):
        # The stationary AR(1) law is invariant under time reversal.
        fwd = ou_orthant(a, rho)
        rev = ou_orthant(a[::-1], rho)
        assert rev == pytest.approx(fwd, abs=5e-9)

    @given(
        a=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
        rho=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_bracketed_by_iid_and_frozen(self, a, rho):
        # Positive correlation only helps a joint tail; full correlation
        # helps the most.
        p = ou_orthant(a, rho)
        assert p >= orthant_iid(a) - 1e-9
        assert p <= orthant_frozen(a) + 1e-9

    def test_extending_never_increases_probability(self):
        chain = OuChain(0.6)
        prev = 1.0
        for a in [-1.0, 0.2, 0.7, -0.3, 1.5]:
            prev_new = chain.extend(a)
            assert prev_new <= prev + 1e-15
            prev = prev_new

    def test_hopeless_threshold_kills_chain(self):
        # A threshold with marginal tail below double precision zeroes the
        # joint probability for good.
        chain = OuChain(0.5, QuadratureSpec(L=40.0))
        chain.extend(0.0)
        assert chain.extend(39.0) == 0.0
        assert chain.extend(0.0) == 0.0


def _pdf(x):
    return (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * np.square(x))


class AllocatingChain(OuChain):
    """OuChain with the stage update written as one whole-array expression
    over every node, allocating its own temporaries: the dense, unbanded
    reference for the blocked, banded update on the same stage grids."""

    def _propagate(self, targets):
        k = _pdf((targets[:, None] - self.rho * self._nodes) / self.sd) / self.sd
        return k @ (self._weights * self._density)


class TestStageUpdate:
    @pytest.mark.parametrize("rho,m", [(0.5, 64), (0.5, 400), (0.99, 256), (0.999, 256)])
    def test_matches_allocating_update_bit_for_bit(self, rho, m):
        # At rho 0.5 the kernel band of every stage covers every node, so
        # the update is the whole-array product, bit for bit.  At rho 0.99
        # the band leaves out nodes more than 9 sd from the targets, and at
        # 0.999 the targets of the kernel-sized grids (up to 717 nodes) also
        # split into blocks; both agree to rounding.  The thresholds
        # include vacuous ones, and a threshold just below the edge rho*1.0
        # gets a thin panel with the floor of nodes, so node counts vary
        # from stage to stage and the work array must regrow.
        spec = QuadratureSpec(m=m)
        chain, ref = OuChain(rho, spec), AllocatingChain(rho, spec)
        sizes = set()
        for a in [-np.inf, -1.0, 0.5, -np.inf, 1.0, rho - 0.01, 0.2, 1.5, -0.4]:
            p, p_ref = chain.extend(a), ref.extend(a)
            if rho == 0.5:
                assert p == p_ref
                assert chain._density.tobytes() == ref._density.tobytes()
            else:
                assert p == pytest.approx(p_ref, rel=1e-14, abs=0)
                np.testing.assert_allclose(chain._density, ref._density, rtol=1e-14, atol=0)
            sizes.add(chain._nodes.size)
        assert len(sizes) > 1
        assert chain.prob > 0.0

    def test_stages_allocate_no_kernel(self):
        # At m = 400 one kernel is an m x m float array (1.28 MB).  Once the
        # work array exists, further stages allocate only node vectors.
        m = 400
        chain = OuChain(0.5, QuadratureSpec(m=m))
        chain.extend(0.0)
        chain.extend(0.0)
        tracemalloc.start()
        try:
            for _ in range(4):
                chain.extend(0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain.prob > 0.0
        assert peak < m * m * 8


class TestNarrowKernels:
    THRESHOLDS = np.linspace(-1.5, 1.0, 12)

    @pytest.mark.parametrize("rho", [0.967, 0.993, 0.999])
    def test_sorted_thresholds_match_dense_reference(self, rho):
        # Kernel widths sd/rho from 0.26 down to 0.045: at m = 256 and
        # 400 the stage grids of rho 0.999 are sized from the kernel.
        def profile(chain):
            return np.array([chain.extend(a) for a in self.THRESHOLDS])

        ref = profile(AllocatingChain(rho, QuadratureSpec(m=1600)))
        for m in (256, 400):
            got = profile(OuChain(rho, QuadratureSpec(m=m)))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-11)

    def test_stage_past_node_budget_raises_before_allocating(self):
        # sd/rho = 4.5e-8 would take 3.6e8 nodes per stage.
        chain = OuChain(1 - 1e-15)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match=r"rho=0\.99.*frozen"):
                chain.extend(0.0)
                chain.extend(0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert time.perf_counter() - start < 1.0


class TestDegenerateLimits:
    def test_iid_product_form(self):
        a = np.array([0.3, -1.0, 1.2])
        assert orthant_iid(a) == pytest.approx(
            float(np.prod(norm.sf(a))), rel=1e-13
        )

    def test_frozen_max_form(self):
        a = np.array([0.3, -1.0, 1.2])
        assert orthant_frozen(a) == pytest.approx(float(norm.sf(1.2)), rel=1e-13)

    def test_near_zero_rho_approaches_iid(self):
        a = [0.5, -0.2, 1.0]
        assert ou_orthant(a, 1e-6) == pytest.approx(orthant_iid(a), abs=1e-4)

    def test_near_unit_rho_approaches_frozen(self):
        a = [0.5, -0.2, 1.0]
        assert ou_orthant(a, 1 - 1e-6) == pytest.approx(orthant_frozen(a), abs=1e-3)

    def test_near_frozen_unsorted_thresholds_match_frozen_form(self):
        # Acceptance criterion 2's seeded cases, whose thresholds are not
        # sorted: the stage grids resolve the kernel of width sd = 1.4e-3,
        # so the chain meets the frozen form far inside that test's 1e-3.
        rng = np.random.Generator(np.random.Philox(2024))
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-2.0, 2.0, size=n)
            worst = max(worst, abs(ou_orthant(a, 1 - 1e-6) - orthant_frozen(a)))
        assert worst <= 1e-5


class TestCovarianceAndMonteCarlo:
    def test_covariance_spec_builds_toeplitz_matrix(self):
        cov = ou_covariance(0.5, 4)
        expected = 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        assert np.allclose(cov, expected, atol=1e-14)

    def test_mc_matches_marginal_tail_univariate(self):
        cov = ou_covariance(0.5, 1)
        p, se = mvn_orthant_mc(cov, [0.8], n_samples=200_000, seed=3)
        assert abs(p - float(norm.sf(0.8))) <= 4 * se

    def test_mc_is_deterministic_in_seed(self):
        cov = ou_covariance(0.7, 3)
        a = [0.1, 0.2, 0.3]
        assert mvn_orthant_mc(cov, a, 50_000, seed=11) == mvn_orthant_mc(
            cov, a, 50_000, seed=11
        )

    def test_mc_cross_checks_exact_engine(self):
        a = [0.2, -0.6, 0.9]
        rho = 0.65
        exact = ou_orthant(a, rho)
        p, se = mvn_orthant_mc(ou_covariance(rho, 3), a, 400_000, seed=5)
        assert abs(exact - p) <= 4 * se

    def test_mc_rejects_wrong_threshold_length(self):
        with pytest.raises(ValueError):
            mvn_orthant_mc(ou_covariance(0.5, 3), [0.0, 0.0], 1000, seed=1)
