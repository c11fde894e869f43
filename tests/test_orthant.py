"""Gaussian joint-tail engine: closed forms, limits, and invariances."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from aoi_lab import orthant, outputs
from aoi_lab.cli import RunConfig
from aoi_lab.errors import QuadratureError
from aoi_lab.orthant import OuChain, QuadratureSpec, ou_orthant, std_normal_tail
from oracles import PhaseChain, mvn_orthant_mc, orthant_frozen, orthant_iid, ou_covariance

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
        [{"m": 8}, {"L": 2.0}, {"L": math.nan}, {"L": math.inf}],
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

    def _propagate(self, targets, real):
        rho, sd = self._rho[:, None, None], self._sd[:, None, None]
        k = _pdf((targets[:, :, None] - rho * self._nodes[:, None, :]) / sd) / sd
        return np.matmul(k, (self._weights * self._density)[:, :, None])[:, :, 0]


class FloorChain(OuChain):
    """OuChain under the stage rule in which spec.m is a floor, max(m, 2
    nodes per kernel width): the dense reference at large m."""

    def _stage_nodes(self, span):
        return np.maximum(self.spec.m, np.ceil(2.0 * span * self._rho / self._sd))


class TestStageUpdate:
    @pytest.mark.parametrize("rho,m", [(0.5, 64), (0.5, 400), (0.99, 256), (0.999, 256)])
    def test_matches_allocating_update_bit_for_bit(self, rho, m):
        # At rho 0.5 the kernel band of every stage covers every node, so
        # the update is the whole-array product, bit for bit.  At rho 0.99
        # the band leaves out nodes more than 9 sd from the targets, and at
        # 0.999 the targets of the kernel-sized grids (up to 740 nodes) also
        # split into blocks; both agree to rounding.  The thresholds
        # include vacuous ones, and a threshold just below the edge rho*1.0
        # leaves a thin segment with a 20-node panel of its own, so node
        # counts vary from stage to stage and the work array must regrow.
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
        # Under the floor rule at m = 400 one kernel is an m x m float array
        # (1.28 MB).  Once the work array exists, further stages allocate
        # only node vectors.
        m = 400
        chain = FloorChain(0.5, QuadratureSpec(m=m))
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


class TestBatchedChain:
    @pytest.mark.parametrize("rho,m", [(0.5, 64), (0.8746, 400), (0.993, 256), (1 - 1e-6, 400)])
    def test_matches_per_phase_chains(self, rho, m):
        # Eight phases in lockstep: one opens with two vacuous thresholds,
        # one ends at its fourth stage (+inf), one dies at the first (at
        # 1 - 1e-6, where L = 40 would take 113 000 nodes a stage, it is
        # only tiny), and spans differ, so grids are padded.  At 1 - 1e-6
        # the stages take banded blocks of rows.
        rng = np.random.Generator(np.random.Philox(7))
        a = np.sort(rng.uniform(-2.0, 2.0, size=(8, 6)), axis=1)
        a[0, :2] = -np.inf
        a[1, 3:] = np.inf
        frozen = rho > 0.999
        a[2, 0] = 7.9 if frozen else 38.0
        spec = QuadratureSpec(m=m, L=8.0 if frozen else 40.0)
        chain = OuChain(rho, spec)
        got = np.array([chain.extend(col) for col in a.T]).T
        for row, q in zip(a, got):
            ref = PhaseChain(rho, spec)
            want = [ref.extend(x) if x < np.inf else 0.0 for x in row]
            want = np.where(np.cumsum(row == np.inf) > 0, 0.0, want)
            assert np.max(np.abs(q - want)) <= 1e-15
        assert got[2, 0] < 1e-14 and (frozen or got[2, 0] == 0.0)
        assert np.all(got[1, 3:] == 0.0) and np.all(got[3:, -1] > 0.0)

    def test_rows_carry_their_own_rho(self):
        # Rows at rho 0.5, 0.8746 and 0.993 share one sweep with a row at
        # 1 - 1e-6, whose kernel-sized stages (thousands of nodes at L = 8)
        # the other rows are padded to.  One row opens with a vacuous
        # threshold and one ends at its fourth stage.
        rhos = np.array([0.5, 0.8746, 0.993, 1 - 1e-6, 0.5, 0.993])
        rng = np.random.Generator(np.random.Philox(11))
        a = np.sort(rng.uniform(-2.0, 2.0, size=(rhos.size, 5)), axis=1)
        a[1, 0] = -np.inf
        a[4, 3:] = np.inf
        spec = QuadratureSpec(m=400, L=8.0)
        chain = OuChain(rhos, spec)
        assert isinstance(chain.rho, float) and chain.rho == 1 - 1e-6
        got = np.array([chain.extend(col) for col in a.T]).T
        assert chain._nodes.shape[1] > 5_000
        for rho, row, q in zip(rhos, a, got):
            ref = PhaseChain(rho, spec)
            want = [ref.extend(x) if x < np.inf else 0.0 for x in row]
            want = np.where(np.cumsum(row == np.inf) > 0, 0.0, want)
            assert np.max(np.abs(q - want)) <= 1e-15
        assert np.all(got[4, 3:] == 0.0) and np.all(np.delete(got, 4, axis=0)[:, -1] > 0.0)

    def test_mixed_batch_errors_name_the_row_and_its_rho(self):
        # The chain's rho is 1 - 1e-15, whose row fits the node budget on a
        # span of 0.005; the row at 1 - 1e-14 does not on a span of 8.
        chain = OuChain(np.array([1 - 1e-15, 0.5, 1 - 1e-14]))
        with pytest.raises(QuadratureError, match=rf"^rho={1 - 1e-14!r} needs") as info:
            chain.extend(np.array([7.995, 0.0, 0.0]))
        assert info.value.phase == 2
        with pytest.raises(ValueError, match="expected 2 thresholds, got 3"):
            OuChain(np.array([0.5, 0.6])).extend(np.zeros(3))
        with pytest.raises(ValueError, match=r"rho must lie strictly in \(0, 1\), got 1.0"):
            OuChain(np.array([0.5, 1.0]))

    def test_scalar_threshold_is_a_batch_of_one(self):
        chain = OuChain(0.6)
        p = chain.extend(0.2)
        assert isinstance(p, float) and chain.prob.shape == (1,)
        assert p == float(std_normal_tail(0.2))
        with pytest.raises(ValueError, match="expected 1 thresholds"):
            chain.extend(np.array([0.1, 0.2]))

    def test_infinite_threshold_ends_its_phase(self):
        chain, alone = OuChain(0.6), OuChain(0.6)
        chain.extend(np.array([0.0, 0.0]))
        alone.extend(0.0)
        got = chain.extend(np.array([np.inf, 0.5]))
        assert got[0] == 0.0 and got[1] == alone.extend(0.5)
        got = chain.extend(np.array([-1.0, -1.0]))
        assert got[0] == 0.0 and got[1] == alone.extend(-1.0)

    def test_work_array_stays_within_budget(self):
        # 36 full-span phases at README's rho and m = 400: a whole stage
        # kernel would be 36 x 100 x 100 floats.  It is built in runs of
        # rows that fit the work array.
        chain = OuChain(0.8746, QuadratureSpec(m=400))
        chain.extend(np.full(36, -np.inf))
        chain.extend(np.full(36, -np.inf))
        assert chain._nodes.shape[1] >= 100
        tracemalloc.start()
        try:
            for a in np.linspace(-1.0, 1.0, 4):
                thresholds = np.linspace(a - 1.0, a, 36)
                thresholds[::3] = -np.inf
                chain.extend(thresholds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < chain._work.size <= orthant._WORK_FLOATS
        assert peak < 2 * orthant._WORK_FLOATS * 8
        assert np.all(chain.prob > 0.0)

    def test_errors_name_the_phase_in_the_batch(self):
        # A threshold at L, and a stage past the node budget at rho =
        # 1 - 1e-15: a span of 0.005 fits it, one of 8 does not.
        with pytest.raises(QuadratureError, match="enlarge L") as info:
            OuChain(0.5).extend(np.array([0.0, 8.0, 9.0]))
        assert info.value.phase == 1
        chain = OuChain(1 - 1e-15)
        with pytest.raises(QuadratureError, match="frozen") as info:
            chain.extend(np.array([7.995, np.inf, 0.0]))
        assert info.value.phase == 2


class TestStageGrid:
    @pytest.mark.parametrize(
        "rho,m", [(0.5, 16), (0.5, 64), (0.875, 400), (0.999, 256), (1 - 1e-6, 400)]
    )
    def test_panels_cover_each_segment(self, rho, m):
        # Each segment between breaks is cut into equal 20-node panels of
        # width h = span*20/n, n = max(2w, min(m, max(3w, 40))) for a span
        # of w kernel widths; a segment 1e-6 wide, beside the edge of a
        # threshold, gets one panel.
        chain = OuChain(rho, QuadratureSpec(m=m))
        for breaks in ([-8.0, 8.0], [-1.3, 0.4, 8.0], [0.7, 0.7 + 1e-6, 8.0],
                       [-0.2, 8.0 - 1e-6, 8.0]):
            nodes, weights = (x[0] for x in chain._grid(np.array([breaks])))
            span = breaks[-1] - breaks[0]
            widths = span * rho / np.sqrt(1.0 - rho * rho)
            n = max(math.ceil(2 * widths), min(m, max(math.ceil(3 * widths), 40)))
            h = span * 20 / n
            segments = list(zip(breaks[:-1], breaks[1:]))
            assert nodes.size == 20 * sum(math.ceil((hi - lo) / h) for lo, hi in segments)
            assert np.all(np.diff(nodes) > 0)
            for lo, hi in segments:
                inside = (nodes > lo) & (nodes < hi)
                assert abs(weights[inside].sum() - (hi - lo)) <= 1e-13
                if hi - lo == pytest.approx(1e-6):
                    assert inside.sum() == 20

    @pytest.mark.parametrize("rho", [1e-6, 0.1, 0.5, 0.8746, 0.967, 0.993, 0.999, 1 - 1e-6])
    def test_m_caps_the_floor_rule(self, rho):
        # No stage gets more nodes than max(m, 2 per kernel width), and the
        # grid is the floor rule's, bit for bit, when m <= max(3w, 40).
        for m in (16, 40, 64, 100, 256, 400, 1600):
            spec = QuadratureSpec(m=m)
            chain, floor = OuChain(rho, spec), FloorChain(rho, spec)
            for span in (1e-6, 0.5, 4.0, 16.0):
                widths = span * rho / np.sqrt(1.0 - rho * rho)
                n = chain._stage_nodes(span)
                assert n <= max(m, math.ceil(2 * widths))
                if m <= max(3 * widths, 40):
                    assert n == max(m, math.ceil(2 * widths))
                    breaks = np.array([[8.0 - span, 8.0]])
                    for got, ref in zip(chain._grid(breaks), floor._grid(breaks)):
                        assert got.tobytes() == ref.tobytes()


class TestStageRuleAccuracy:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("link", ["shifted-lognormal", "censored-normal"])
    def test_profiles_match_dense_floor_rule(self, monkeypatch, link, c, tau):
        # rho from 8e-8 to 0.993, 7 phases each: the default spec's profiles
        # meet the floor rule's at m = 1600 (at least 1600 nodes per stage).
        model = RunConfig.from_dict({
            "link": {"kind": link, "x_min": 0.5, "mu": 1.0, "s": 0.75},
            "correlation": {"mode": "ou", "c": c},
            "tau": tau,
        }).model()
        phases = tau * (np.arange(7) + 0.5) / 7
        got = [outputs.ccdf_profile(model, phi, 4, QuadratureSpec()) for phi in phases]
        monkeypatch.setattr(outputs, "OuChain", FloorChain)
        for phi, q in zip(phases, got):
            ref = outputs.ccdf_profile(model, phi, 4, QuadratureSpec(m=1600))
            assert np.max(np.abs(q - ref)) <= 1e-14


class TestNarrowKernels:
    THRESHOLDS = np.linspace(-1.5, 1.0, 12)

    @pytest.mark.parametrize("rho", [0.967, 0.993, 0.999])
    def test_sorted_thresholds_match_dense_reference(self, rho):
        # Kernel widths sd/rho from 0.26 down to 0.045: at m = 256 and
        # 400 the stage grids of rho 0.999 are sized from the kernel.  The
        # reference takes at least 1600 nodes per stage.
        def profile(chain):
            return np.array([chain.extend(a) for a in self.THRESHOLDS])

        ref = profile(FloorChain(rho, QuadratureSpec(m=1600)))
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
