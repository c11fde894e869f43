"""Exact CCDF grids, heat maps, time averages, percentiles, dominance,
and serialization."""

import json
import math
import os
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from aoi_lab import cli, orthant, outputs
from aoi_lab.cli import RunConfig
from aoi_lab.core import GenerationSchedule, block_length, decompose_time
from aoi_lab.links import (
    CENSORED_NORMAL,
    SHIFTED_LOGNORMAL,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    g_inverse,
)
from aoi_lab.errors import QuadratureError
from aoi_lab.orthant import QuadratureSpec, std_normal_tail
from aoi_lab.outputs import (
    DEFAULT_LEVELS,
    TimeAverageEvaluator,
    ccdf_profile,
    ccdf_profiles,
    dominance_check,
    exact_ccdf_grid,
    heatmap,
    percentiles,
    write_ccdf_csv,
    write_heatmap_csv,
    write_meta_json,
    write_percentiles_csv,
    write_timeavg_csv,
)
from oracles import bisection_percentiles, ou_orthant, phase_profile


def make_model(kind="ou", kappa=0.0815, tau=2.0, link_kind=SHIFTED_LOGNORMAL):
    if link_kind == SHIFTED_LOGNORMAL:
        link = LinkFunction(link_kind, 0.5, -1.2824746787307684, 1.085658784490618)
    else:
        link = LinkFunction(link_kind, 0.5, 0.4516810352342015, 1.3129839889837354)
    corr = CorrelationMode(kind, kappa=kappa if kind == "ou" else None)
    return DelayModel(link, corr, GenerationSchedule(tau))


class TestCcdfProfile:
    def test_starts_at_one_and_decreases(self):
        q = ccdf_profile(make_model(), 0.7, 8, QuadratureSpec())
        assert q[0] == 1.0
        assert np.all(np.diff(q) <= 1e-15)
        assert np.all((q >= 0) & (q <= 1))

    def test_matches_direct_orthant_evaluation(self):
        model = make_model()
        spec = QuadratureSpec()
        phi = 0.7
        q = ccdf_profile(model, phi, 5, spec)
        rho = model.step_correlation()
        for n in range(1, 6):
            a = g_inverse(model.link, np.arange(n) * 2.0 + phi)
            direct = ou_orthant(np.atleast_1d(a), rho, spec)
            assert q[n] == pytest.approx(direct, abs=1e-12)

    def test_iid_profile_is_cumulative_product(self):
        model = make_model("iid")
        q = ccdf_profile(model, 0.7, 4, QuadratureSpec())
        a = g_inverse(model.link, np.arange(4) * 2.0 + 0.7)
        assert np.allclose(q[1:], np.cumprod(std_normal_tail(a)), rtol=1e-13)

    def test_deep_tail_is_exactly_zero(self):
        # The censored link's thresholds grow linearly, so a long block
        # contains a coordinate whose marginal tail is zero at double
        # precision; the profile must cut to exact zero without quadrature
        # blow-ups.
        q = ccdf_profile(make_model(tau=2.0, link_kind=CENSORED_NORMAL), 0.0, 20,
                         QuadratureSpec())
        assert q[-1] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_threshold_at_truncation_grows_it(self):
        # This censored link's thresholds at phase 0 are 0, 1, 2, 3, 4: the
        # last one lies exactly at L = 4.
        link = LinkFunction(CENSORED_NORMAL, 0.0, 0.0, 1.0)
        model = DelayModel(link, CorrelationMode("ou", kappa=0.5), GenerationSchedule(1.0))
        q = ccdf_profile(model, 0.0, 5, QuadratureSpec(m=64, L=4.0))
        ref = ccdf_profile(model, 0.0, 5, QuadratureSpec(m=400, L=8.0))
        assert q[5] > 3e-6
        assert q == pytest.approx(ref, rel=1e-7)


class TestCcdfProfiles:
    """The batched profiles against each phase's own chain sweep."""

    @staticmethod
    def per_phase(model, phis, n_max, spec):
        n_max = np.broadcast_to(n_max, np.shape(phis))
        ref = np.zeros((len(phis), int(n_max.max()) + 1))
        for row, phi, n in zip(ref, phis, n_max):
            row[: n + 1] = phase_profile(model, phi, int(n), spec)
        return ref

    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("link", ["shifted-lognormal", "censored-normal"])
    def test_matches_per_phase_sweeps(self, link, c, tau):
        # rho from 8e-8 to 0.993; 7 phases with block lengths 0 to 6, some
        # below x_min (a first threshold of -inf), in one batch.
        model = RunConfig.from_dict({
            "link": {"kind": link, "x_min": 0.5, "mu": 1.0, "s": 0.75},
            "correlation": {"mode": "ou", "c": c},
            "tau": tau,
        }).model()
        phases = tau * (np.arange(7) + 0.5) / 7
        n_max = np.array([4, 0, 6, 2, 5, 1, 3])
        spec = QuadratureSpec()
        got = ccdf_profiles(model, phases, n_max, spec)
        ref = self.per_phase(model, phases, n_max, spec)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_mixes_lengths_deaths_and_vacuous_thresholds(self):
        # Thresholds (y - 0.3 < 0 ? -inf : y) at y = j*10 + phi: phase 0.2
        # starts at -inf, 5.0 and 7.9 live one stage, 8.5 dies at the first
        # (its tail is below 1e-15, although 8.5 >= L), and the block
        # lengths differ.
        link = LinkFunction(CENSORED_NORMAL, 0.3, 0.0, 1.0)
        model = DelayModel(link, CorrelationMode("ou", kappa=0.05), GenerationSchedule(10.0))
        phases = [0.2, 5.0, 8.5, 7.9, 1.0]
        n_max = np.array([3, 2, 2, 1, 0])
        spec = QuadratureSpec(m=64)
        got = ccdf_profiles(model, phases, n_max, spec)
        assert np.max(np.abs(got - self.per_phase(model, phases, n_max, spec))) <= 1e-15
        assert np.all(got[:, 0] == 1.0)
        assert got[2, 1] == 0.0 and got[0, 1] == 1.0 and 0.0 < got[3, 1] < 1e-14
        assert np.all(got[:, 2:] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_phase_that_reaches_L_runs_on_its_own_grown_spec(self):
        # At L = 4, phase 0's thresholds 0..4 reach L (grown to 8) and
        # phase 0.5's 0.5..4.5 too (grown to 8.5); phase 0.3 stops at 2.3.
        link = LinkFunction(CENSORED_NORMAL, 0.0, 0.0, 1.0)
        model = DelayModel(link, CorrelationMode("ou", kappa=0.5), GenerationSchedule(1.0))
        phases, n_max = [0.0, 0.3, 0.5], np.array([5, 3, 5])
        spec = QuadratureSpec(m=64, L=4.0)
        got = ccdf_profiles(model, phases, n_max, spec)
        assert np.max(np.abs(got - self.per_phase(model, phases, n_max, spec))) <= 1e-15
        assert got[0, 5] > 3e-6

    def test_near_frozen_batch_takes_banded_blocks(self):
        # rho = 1 - 1e-6: kernel-sized stages of about 22 600 nodes, cut
        # into blocks of rows with a band of nodes each.
        model = make_model(kappa=-math.log1p(-1e-6) / 2.0)
        phases = [0.2, 0.7, 1.3, 1.9]
        spec = QuadratureSpec()
        got = ccdf_profiles(model, phases, 4, spec)
        assert np.max(np.abs(got - self.per_phase(model, phases, 4, spec))) <= 1e-15

    def test_quadrature_error_names_the_failing_phase(self):
        # At rho = 1 - 1e-15 no stage of any width fits the node budget;
        # phase 0.1 runs no stage, so phase 0.7 is the one that fails.
        model = make_model(kappa=1e-15 / 2.0)
        with pytest.raises(QuadratureError, match=r"^phase phi=0\.7: rho=0\.99.*frozen"):
            ccdf_profiles(model, [0.1, 0.7], np.array([0, 2]), QuadratureSpec())

    def test_every_exact_path_names_the_failing_phase(self):
        # No full-span stage fits the node budget at rho = 1 - 1e-15, so
        # the phases run in chunks of one, and the grid and the time
        # average raise the error of the first live phase's chain.
        model = make_model(kappa=1e-15 / 2.0)
        with pytest.raises(QuadratureError, match=r"^phase phi=0\.5: rho=0\.99.*frozen"):
            exact_ccdf_grid(model, [0.5, 1.0], [0.0, 3.0])
        with pytest.raises(QuadratureError, match=r"^phase phi=0\.0\d*: rho=0\.99.*frozen"):
            TimeAverageEvaluator(model).value(3.0)

    def test_profile_is_the_batch_of_one(self):
        model = make_model()
        batch = ccdf_profiles(model, [0.3, 0.7, 1.6], 6, QuadratureSpec())
        for phi, row in zip([0.3, 0.7, 1.6], batch):
            assert np.max(np.abs(ccdf_profile(model, phi, 6, QuadratureSpec()) - row)) <= 1e-15

    @pytest.mark.parametrize("case", ["readme", "grown"])
    def test_outputs_are_byte_identical_across_threads(self, monkeypatch, case):
        # README: a work array of 300 floats puts 3 phases of 100 nodes in
        # a batch: the grid's 4 phase classes take 2 chunks and the time
        # average's 36 phases 12, each kernel built one row at a time.
        # Grown: at L = 4 the thresholds j + phi reach L from the fifth
        # packet on, and a work array of 40 floats puts one phase of 40
        # nodes in a batch, so each of the grid's 2 phase classes and the
        # time average's 36 phases runs in a chunk of its own, on its own
        # grown spec where its thresholds reach L.
        if case == "readme":
            model, spec, work, size = make_model(), QuadratureSpec(), 300, 3
        else:
            link = LinkFunction(CENSORED_NORMAL, 0.0, 0.0, 1.0)
            model = DelayModel(link, CorrelationMode("ou", kappa=0.5), GenerationSchedule(1.0))
            spec, work, size = QuadratureSpec(m=64, L=4.0), 40, 1
        t_grid, x_grid = np.arange(0.5, 10.0, 0.5), np.arange(0.0, 10.0, 0.1)

        def run(threads):
            grid = exact_ccdf_grid(model, t_grid, x_grid, spec, threads=threads)
            ev = TimeAverageEvaluator(model, spec, threads=threads)
            pct = percentiles(model, DEFAULT_LEVELS, spec, evaluator=ev)
            return grid.p, ev.value(x_grid), pct

        whole = run(1)
        monkeypatch.setattr(orthant, "_WORK_FLOATS", work)
        assert orthant.batch_size(model.step_correlation(), spec) == size
        chunked = [run(threads) for threads in (1, 2, 4)]
        for arrays in chunked[1:]:
            for got, ref in zip(arrays, chunked[0]):
                assert got.tobytes() == ref.tobytes()
        for got, ref in zip(chunked[0], whole):
            assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


class TestExactCcdfGrid:
    def test_unit_below_phase_and_monotone_in_x(self):
        model = make_model()
        t_grid = [0.7, 2.7, 5.3]
        x_grid = np.arange(0.0, 8.0, 0.25)
        grid = exact_ccdf_grid(model, t_grid, x_grid)
        for i, t in enumerate(t_grid):
            phi = decompose_time(t, 2.0)[1]
            assert np.all(grid.p[i, x_grid < phi] == 1.0)
            assert np.all(np.diff(grid.p[i]) <= 1e-12)

    def test_periodicity_is_exact(self):
        model = make_model()
        x = 3.0
        grid = exact_ccdf_grid(model, [3.3, 5.3, 7.3, 9.3], [x])
        assert np.ptp(grid.p[:, 0]) == 0.0

    def test_matches_pointwise_oracle(self):
        # Each cell is the orthant probability of its own threshold block,
        # g_inverse of the ages j*tau + phi for the n most recent packets.
        model = make_model()
        t_grid, x_grid = [4.5, 7.3], [2.2, 3.0, 3.4, 6.0, 9.0]
        grid = exact_ccdf_grid(model, t_grid, x_grid)
        rho = model.step_correlation()
        # (t, x, n): at (7.3, 3.4) the delay thresholds are 1.3 and 3.3.
        for t, x, n in [(4.5, 2.2, 1), (4.5, 3.0, 2), (7.3, 3.4, 2), (7.3, 6.0, 3),
                        (7.3, 9.0, 4)]:
            phi = decompose_time(t, 2.0)[1]
            a = g_inverse(model.link, np.arange(n) * 2.0 + phi)
            direct = ou_orthant(np.atleast_1d(a)[::-1], rho)
            cell = grid.p[t_grid.index(t), x_grid.index(x)]
            assert cell == pytest.approx(direct, abs=1e-12)

    def test_reads_the_phase_profiles(self, monkeypatch):
        # Ascending t whose phases come out of order; 0.3, 0.1 + 0.2 and
        # 0.8 - 0.5 round to one phase class and share one profile.
        model = make_model(tau=0.5)
        t_grid = np.array([0.05, 0.3, 0.1 + 0.2, 0.45, 0.8, 1.05, 1.6, 2.0, 2.3])
        x_grid = np.sort(np.concatenate([[0.0, 0.1, 0.2, 1.37, 4.0], 0.3 + 0.5 * np.arange(6)]))
        calls = []
        real = outputs.ccdf_profiles

        def counted(model, phis, n_max, spec, threads):
            calls.append((model, phis, n_max, spec))
            return real(model, phis, n_max, spec, threads)

        monkeypatch.setattr(outputs, "ccdf_profiles", counted)
        grid = exact_ccdf_grid(model, t_grid, x_grid)
        monkeypatch.undo()
        assert len(calls) == 1
        _, phis, n_max, spec = calls[0]
        assert list(phis) == sorted(set(phis)) and len(phis) == 5
        table = ccdf_profiles(model, phis, n_max, spec)
        for i, t in enumerate(t_grid):
            k, phi = decompose_time(float(t), 0.5)
            phi = outputs._phase_key(phi, 0.5) * 0.5
            row = list(phis).index(phi)
            for j, x in enumerate(x_grid):
                n = block_length(float(x), phi, 0.5, k)
                assert n <= n_max[row]
                assert grid.p[i, j] == table[row, n]
                assert abs(grid.p[i, j] - phase_profile(model, phi, n, QuadratureSpec())[n]) <= 1e-15

    @pytest.mark.parametrize("case", ["readme", "grown"])
    def test_ladder_in_one_sweep_matches_separate_grids(self, monkeypatch, case):
        # The ou ladder's rungs at rho 0.72, 0.85 and 0.92 (README) or 0.37,
        # 0.61 and 0.78 (grown) advance through one chain.  At L = 4 the
        # censored link's thresholds j + phi reach L, so rows of all three
        # rungs share batches of grown specs.  The iid and frozen rungs take
        # the closed forms, as they do alone.  A work array of three
        # full-span rows at the largest rho (120 and 40 nodes) cuts the
        # rows into chunks of three, which mix rungs, for the threads.
        if case == "readme":
            model, spec, work = make_model(), QuadratureSpec(), 360
        else:
            link = LinkFunction(CENSORED_NORMAL, 0.0, 0.0, 1.0)
            model = DelayModel(link, CorrelationMode("ou", kappa=0.5), GenerationSchedule(1.0))
            spec, work = QuadratureSpec(m=64, L=4.0), 120
        t_grid, x_grid = np.arange(0.5, 10.0, 0.5), np.arange(0.0, 10.0, 0.1)
        ladder = [replace(model, correlation=corr) for _, corr in model.correlation.ladder()]
        whole = exact_ccdf_grid(ladder, t_grid, x_grid, spec)
        monkeypatch.setattr(orthant, "_WORK_FLOATS", work)
        assert orthant.batch_size(ladder[3].step_correlation(), spec) == 3
        together = [exact_ccdf_grid(ladder, t_grid, x_grid, spec, threads=t) for t in (1, 2)]
        monkeypatch.undo()
        for one, two, ref in zip(*together, whole):
            assert one.p.tobytes() == two.p.tobytes()
            assert np.max(np.abs(one.p - ref.p)) <= 1e-15
        for rung, grid in zip(ladder, whole):
            alone = exact_ccdf_grid(rung, t_grid, x_grid, spec)
            if rung.correlation.kind == "ou":
                assert np.max(np.abs(grid.p - alone.p)) <= 1e-15
            else:
                assert grid.p.tobytes() == alone.p.tobytes()
        with pytest.raises(ValueError, match="must share link and schedule"):
            exact_ccdf_grid([model, make_model(tau=0.5)], t_grid, x_grid, spec)

    def test_names_a_nan_in_either_grid(self):
        # A NaN passes the sortedness check, since it compares False.
        with pytest.raises(ValueError, match="x_grid must not hold NaN, got one at index 1"):
            exact_ccdf_grid(make_model(), [1.0], [0.5, math.nan])
        with pytest.raises(ValueError, match="t must be a finite non-negative number, got nan"):
            exact_ccdf_grid(make_model(), [1.0, math.nan], [0.5])

    def test_empty_grids(self):
        assert exact_ccdf_grid(make_model(), [], [0.5]).p.shape == (0, 1)
        assert exact_ccdf_grid(make_model(), [1.0, 3.0], []).p.shape == (2, 0)

    def test_thread_count_does_not_change_values(self):
        model = make_model()
        t_grid = np.arange(0.5, 8.0, 0.5)
        x_grid = np.arange(0.0, 6.0, 0.5)
        g1 = exact_ccdf_grid(model, t_grid, x_grid, threads=1)
        g4 = exact_ccdf_grid(model, t_grid, x_grid, threads=4)
        assert np.array_equal(g1.p, g4.p)

    def test_rejects_unsorted_grids(self):
        with pytest.raises(ValueError):
            exact_ccdf_grid(make_model(), [2.0, 1.0], [0.5])


class TestHeatmap:
    def test_mass_is_ccdf_difference(self):
        grid = exact_ccdf_grid(make_model(), [4.5], np.arange(0.0, 6.0, 0.1))
        hm = heatmap(grid, 0.1)
        assert np.allclose(hm.p[0], grid.p[0, :-1] - grid.p[0, 1:], atol=1e-15)
        assert np.all(hm.p >= 0)
        assert np.array_equal(hm.t_values, grid.t_values)
        assert np.array_equal(hm.x_values, grid.x_values[:-1])

    def test_multi_step_lag(self):
        grid = exact_ccdf_grid(make_model(), [4.5], np.arange(0.0, 6.0, 0.1))
        hm = heatmap(grid, 0.3)
        assert hm.x_values.size == grid.x_values.size - 3

    def test_rejects_misaligned_delta(self):
        grid = exact_ccdf_grid(make_model(), [4.5], np.arange(0.0, 6.0, 0.1))
        with pytest.raises(ValueError):
            heatmap(grid, 0.15)

    def test_rejects_nonuniform_x_grid(self):
        grid = exact_ccdf_grid(make_model(), [4.5], [0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            heatmap(grid, 0.1)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf, 0.0, -0.1])
    def test_rejects_a_delta_that_is_not_positive_and_finite(self, delta):
        grid = exact_ccdf_grid(make_model(), [4.5], np.arange(0.0, 6.0, 0.1))
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            heatmap(grid, delta)

    @pytest.mark.parametrize("x_grid", [[0.5, 0.5], [0.5, 0.5, 0.5], [0.0, 0.0, 0.1]])
    def test_a_repeated_x_is_not_uniform(self, x_grid):
        grid = exact_ccdf_grid(make_model(), [4.5], x_grid)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="uniformly spaced"):
                heatmap(grid, 0.1)


class TestTimeAverage:
    def test_value_at_zero_is_one(self):
        ev = TimeAverageEvaluator(make_model())
        assert ev.value(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_in_x(self):
        ev = TimeAverageEvaluator(make_model())
        values = [ev.value(x) for x in np.arange(0.0, 8.0, 0.5)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", ["iid", "frozen"])
    @pytest.mark.parametrize(
        "link_kind,tau", [(SHIFTED_LOGNORMAL, 2.0), (CENSORED_NORMAL, 0.5)]
    )
    def test_matches_quad_over_closed_form_profiles(self, kind, link_kind, tau):
        # F_avg(x) = (1/tau) * integral over the phase s of Pr(A_s > x): the
        # n = floor((x - s)/tau) + 1 latest packets are all late (certain
        # for x < s).  The iid and frozen tails are written out here and
        # integrated by quad, split where the integrand is not smooth: at
        # b = x_min mod tau and at x mod tau.  The censored link has
        # x_min = tau, so its profile jumps at the period boundary.
        model = make_model(kind, tau=tau, link_kind=link_kind)

        def ccdf_at_phase(s, x):
            if x < s:
                return 1.0
            n = int((x - s) // tau) + 1
            tails = norm.sf(g_inverse(model.link, np.arange(n) * tau + s))
            return float(np.prod(tails) if kind == "iid" else np.min(tails))

        ev = TimeAverageEvaluator(model)
        for x in (0.6, 0.93, 1.7, 2.6, 4.1):
            breaks = [p for p in (model.link.x_min % tau, x % tau) if 0 < p < tau]
            direct = quad(ccdf_at_phase, 0.0, tau, args=(x,), points=breaks,
                          epsabs=1e-13, epsrel=1e-12, limit=200)[0] / tau
            assert ev.value(x) == pytest.approx(direct, abs=1e-6), x

    def test_takes_an_array_of_ages(self):
        ev = TimeAverageEvaluator(make_model())
        xs = np.array([0.0, 0.7, 2.5, 9.9])
        assert np.array_equal(ev.value(xs), [ev.value(float(x)) for x in xs])

    def test_rejects_negative_age(self):
        with pytest.raises(ValueError):
            TimeAverageEvaluator(make_model()).value(-1.0)
        # NaN and infinite ages too, by name, before any index is cast.
        for x in (math.nan, math.inf, -math.inf, [1.0, math.nan]):
            with pytest.raises(ValueError, match=r"^x must be finite and non-negative, got "):
                TimeAverageEvaluator(make_model()).value(x)

    def test_converges_in_chebyshev_degree(self, monkeypatch):
        # The README model (c = 10): the pieces' interpolants have converged
        # by degree 8, so degree 12 moves F_avg by less than 1e-6.
        model = make_model(kappa=calibrate_kappa(make_model().link, 10.0))
        spec = QuadratureSpec(m=64)
        xs = np.arange(0.0, 10.0, 0.02)
        values = []
        for degree in (8, 12):
            monkeypatch.setattr(outputs, "_CHEB_DEGREE", degree)
            values.append(TimeAverageEvaluator(model, spec).value(xs))
        assert np.max(np.abs(values[1] - values[0])) < 1e-6

    def test_thread_count_does_not_change_values(self):
        model = make_model()
        spec = QuadratureSpec(m=64)
        xs = np.arange(0.0, 10.0, 0.1)
        runs = [
            (
                TimeAverageEvaluator(model, spec, threads=t).value(xs).tobytes(),
                percentiles(model, DEFAULT_LEVELS, spec, threads=t).tobytes(),
            )
            for t in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestPercentiles:
    def test_non_decreasing_in_level(self):
        vals = percentiles(make_model(), DEFAULT_LEVELS)
        finite = vals[np.isfinite(vals)]
        assert np.all(np.diff(finite) >= 0)

    def test_consistent_with_time_average(self):
        model = make_model()
        ev = TimeAverageEvaluator(model)
        vals = percentiles(model, (0.5,), evaluator=ev)
        q = float(vals[0])
        tol = 1e-4 * model.schedule.tau
        # F_avg crosses the 0.5 level at q, to within 2 * tol.
        assert ev.value(max(q - 2 * tol, 0.0)) >= 0.5 - 1e-9
        assert ev.value(q + 2 * tol) <= 0.5 + 1e-9

    def test_each_phase_profile_is_computed_once(self, monkeypatch):
        # A criterion-7 row (tau 0.1, c 10).  A bracket that starts too low
        # doubles and recomputes all 27 phase profiles to a longer block.
        # On the thread pool too, each profile is computed once.
        link = make_model().link
        model = make_model(kappa=calibrate_kappa(link, 10.0), tau=0.1)
        phases = []
        profiles = outputs.ccdf_profiles

        def counted(model, phis, n_max, spec, threads):
            phases.extend(phis)
            return profiles(model, phis, n_max, spec, threads)

        monkeypatch.setattr(outputs, "ccdf_profiles", counted)
        for threads in (1, 2):
            phases.clear()
            vals = percentiles(model, DEFAULT_LEVELS, QuadratureSpec(m=64), threads=threads)
            assert np.all(np.isfinite(vals))
            assert len(phases) == len(set(phases)) == 27, threads

    @pytest.mark.parametrize("link_kind", [SHIFTED_LOGNORMAL, CENSORED_NORMAL])
    @pytest.mark.parametrize("s", [0.75, 1.25])
    def test_matches_bisection_oracle(self, link_kind, s):
        # False position on the knots of the phase pieces against a plain
        # bisection of the same F_avg, both to adjacent floats.  F_avg in
        # floating point is not exactly monotone, so the two may stop a few
        # floats apart; each result is still a crossing of its level.
        levels = (0.01, 0.1, 0.5, 0.9, 0.99, 0.9999)
        spec = QuadratureSpec(m=64)
        for tau, c, ceiling in product((0.1, 0.5, 2.0), (0.0, 0.1, 1.0, 10.0, math.inf), (None, 3.0)):
            model = RunConfig(link_kind, x_min=0.5, mu=1.0, s=s, c=c, tau=tau).model()
            ev = TimeAverageEvaluator(model, spec)
            got = percentiles(model, levels, x_ceiling=ceiling, evaluator=ev)
            ref = bisection_percentiles(model, levels, x_ceiling=ceiling, evaluator=ev)
            case = (tau, c, ceiling)
            assert np.array_equal(np.isinf(got), np.isinf(ref)), case
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-14 * ref[finite]), case
            x, target = got[finite], 1.0 - np.asarray(levels)[finite]
            assert np.all(ev.value(x) <= target), case
            assert np.all(ev.value(np.nextafter(x, -np.inf)) > target), case

    def test_readme_model_takes_few_evaluations(self, monkeypatch):
        # Bisection to adjacent floats took 58 evaluations of F_avg here.
        model = make_model(kappa=calibrate_kappa(make_model().link, 10.0))
        ev = TimeAverageEvaluator(model)
        calls = []
        value = TimeAverageEvaluator.value

        def counted(self, x):
            calls.append(np.size(x))
            return value(self, x)

        monkeypatch.setattr(TimeAverageEvaluator, "value", counted)
        vals = percentiles(model, DEFAULT_LEVELS, evaluator=ev)
        monkeypatch.undo()
        assert np.array_equal(vals, bisection_percentiles(model, DEFAULT_LEVELS, evaluator=ev))
        assert len(calls) <= 16

    def test_unreachable_level_is_infinite(self):
        # The frozen lognormal age has an unbounded heavy tail, so a deep
        # percentile lies beyond a small search ceiling.
        model = make_model("frozen")
        vals = percentiles(model, (0.9999,), x_ceiling=5.0)
        assert math.isinf(vals[0])

    @pytest.mark.parametrize("ceiling", [10.0, 12.0, 20.0])
    def test_infinite_exactly_past_the_ceiling(self, ceiling):
        # The frozen model's 0.9999 percentile is 17.27: beyond ceilings 10
        # and 12, within 20, wherever the doubled bracket would land.
        vals = percentiles(make_model("frozen"), (0.9999,), x_ceiling=ceiling)
        if ceiling < 17.27:
            assert math.isinf(vals[0])
        else:
            assert vals[0] == pytest.approx(17.27, abs=5e-3)

    def test_rejects_levels_outside_unit_interval(self):
        with pytest.raises(ValueError):
            percentiles(make_model(), (0.0, 0.5))

    def test_percentile_row_validates_order(self):
        cfg = RunConfig(mu=1.0, s=0.75, c=1.0)
        with pytest.raises(ValueError):
            cli._percentile_row(cfg, make_model(), (2.0, 1.0))
        assert cli._percentile_row(cfg, make_model(), (1.0, math.inf, 2.0))[4] == (
            1.0, math.inf, 2.0,
        )

    def test_rejects_an_evaluator_of_another_model(self):
        model, other = make_model("iid", tau=0.5), make_model()
        with pytest.raises(ValueError, match="another model"):
            percentiles(model, (0.5,), evaluator=TimeAverageEvaluator(other))
        ev = TimeAverageEvaluator(make_model("iid", tau=0.5))
        assert np.array_equal(percentiles(model, (0.5,), evaluator=ev), percentiles(model, (0.5,)))


class TestDominance:
    def test_correlation_ladder_is_ordered(self):
        t_grid = np.arange(0.5, 8.0, 0.5)
        x_grid = np.arange(0.0, 6.0, 0.25)
        grids = [
            exact_ccdf_grid(make_model("iid"), t_grid, x_grid),
            exact_ccdf_grid(make_model("ou", kappa=0.5), t_grid, x_grid),
            exact_ccdf_grid(make_model("ou", kappa=0.05), t_grid, x_grid),
            exact_ccdf_grid(make_model("frozen"), t_grid, x_grid),
        ]
        for lo, hi in zip(grids, grids[1:]):
            violation = dominance_check(lo, hi)
            assert violation <= 1e-6, violation

    def test_detects_violation(self):
        t_grid, x_grid = [4.5], np.arange(0.0, 6.0, 0.5)
        hi = exact_ccdf_grid(make_model("iid"), t_grid, x_grid)
        lo = exact_ccdf_grid(make_model("frozen"), t_grid, x_grid)
        violation = dominance_check(lo, hi)
        assert violation > 1e-6
        assert violation > 1e-3
        # The reverse order holds, so there is no violation at all.
        assert dominance_check(hi, lo) == 0.0

    def test_empty_grids_have_no_violation(self):
        for t_grid, x_grid in (([], [0.5]), ([4.5], [])):
            empty = exact_ccdf_grid(make_model(), t_grid, x_grid)
            assert dominance_check(empty, empty) == 0.0

    def test_no_violation_is_positive_zero_and_nan_propagates(self):
        zero = outputs.CcdfGrid([1.0], [0.5, 1.0], [[0.0, 0.0]])
        negative_zero = outputs.CcdfGrid([1.0], [0.5, 1.0], [[-0.0, -0.0]])
        assert math.copysign(1.0, dominance_check(negative_zero, zero)) == 1.0
        nan = outputs.CcdfGrid([1.0], [0.5, 1.0], [[0.0, math.nan]])
        assert math.isnan(dominance_check(nan, zero))

    def test_rejects_mismatched_grids(self):
        a = exact_ccdf_grid(make_model(), [4.5], [0.0, 1.0])
        b = exact_ccdf_grid(make_model(), [4.5], [0.0, 2.0])
        with pytest.raises(ValueError):
            dominance_check(a, b)


class TestSerialization:
    def test_ccdf_csv_format(self, tmp_path):
        grid = exact_ccdf_grid(make_model(), [2.5, 4.5], [0.0, 1.0])
        path = tmp_path / "ccdf.csv"
        write_ccdf_csv(grid, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x,ccdf"
        assert len(lines) == 1 + 4
        # Row-major: t varies slowest.
        assert lines[1].startswith("2.5,0,") and lines[3].startswith("4.5,0,")
        value = float(lines[1].split(",")[2])
        assert value == pytest.approx(grid.p[0, 0], rel=1e-11)

    def test_heatmap_csv_format(self, tmp_path):
        grid = exact_ccdf_grid(make_model(), [4.5], np.arange(0.0, 2.0, 0.5))
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(heatmap(grid, 0.5), str(path))
        assert path.read_text().startswith("t,x,pmf\n")

    @staticmethod
    def check_grid_rows(path, writer, t, x, p, cells):
        # The rows are those of formatting every cell's numbers together.
        grid = outputs.CcdfGrid(t, x, p)
        if writer == "heatmap":
            write_heatmap_csv(grid, str(path))
            columns = (p,)
        else:
            stderr = cells if writer == "ccdf+stderr" else None
            write_ccdf_csv(grid, str(path), stderr)
            columns = (p,) if stderr is None else (p, cells)
        row = ",".join(["%.12g"] * (2 + len(columns)))
        expected = [
            row % (t[i], x[j], *(c[i, j] for c in columns))
            for i in range(t.size)
            for j in range(x.size)
        ]
        assert path.read_text().split("\n")[1:] == [*expected, ""]

    @pytest.mark.parametrize("writer", ["ccdf", "ccdf+stderr", "heatmap"])
    def test_grid_rows_are_per_cell_formats(self, tmp_path, writer):
        # Each distinct t, x and cell value is formatted once, and -0.0
        # prints -0 beside 0.0, which prints 0.
        values = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-300, 1 / 3])
        t, x = values, values[::-1].copy()
        p = np.resize([0.0, -0.0, 1e-300, math.nan, 1 / 3, 1.0], (t.size, x.size))
        cells = np.resize(values[1:], (t.size, x.size))
        self.check_grid_rows(tmp_path / "grid.csv", writer, t, x, p, cells)

    @pytest.mark.parametrize("data", ["repeats", "distinct"])
    @pytest.mark.parametrize("writer", ["ccdf", "ccdf+stderr", "heatmap"])
    def test_grid_rows_of_repeated_and_distinct_values(self, tmp_path, writer, data):
        # 10 000 cells holding 6 and 3 distinct values, as exact grids do,
        # or 6000 cells whose values all differ.
        rng = np.random.default_rng(5)
        if data == "repeats":
            t, x = np.arange(40) * 0.25, np.arange(250) * 0.02
            p = rng.choice([1.0, 0.5, 1 / 3, 0.0, -0.0, 1e-17], size=(t.size, x.size))
            cells = rng.choice([0.0, -0.0, 2.5e-3], size=p.shape)
        else:
            t, x = rng.random(30), rng.random(200)
            p, cells = rng.random((2, t.size, x.size))
        self.check_grid_rows(tmp_path / "grid.csv", writer, t, x, p, cells)

    def test_timeavg_csv_format(self, tmp_path):
        path = tmp_path / "timeavg.csv"
        write_timeavg_csv([0.0, 1.0], [1.0, 0.5], str(path))
        assert path.read_text() == "x,ccdf_avg\n0,1\n1,0.5\n"

    def test_percentiles_csv_infinity_sentinel(self, tmp_path):
        row = ("shifted-lognormal", math.inf, 2.0, 0.75, (1.0, 2.0, 3.0, 4.0, math.inf))
        path = tmp_path / "p.csv"
        write_percentiles_csv([row], str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "link,c,tau,s,p10,p25,p50,p75,p90"
        assert lines[1] == "shifted-lognormal,inf,2,0.75,1,2,3,4,inf"

    def test_meta_json_roundtrip(self, tmp_path):
        meta = {"b": 1, "a": {"nested": [1.5, 2.5]}}
        path = tmp_path / "meta.json"
        write_meta_json(meta, str(path))
        assert json.loads(path.read_text()) == meta

    def test_writes_are_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "out.csv"
        write_timeavg_csv([0.0], [1.0], str(path))
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_infinities_keep_their_sign(self, tmp_path):
        path = tmp_path / "t.csv"
        write_timeavg_csv([math.inf, -math.inf], [-math.inf, 0.5], str(path))
        assert path.read_text() == "x,ccdf_avg\ninf,-inf\n-inf,0.5\n"
        assert outputs._fmt(-math.inf) == "-inf" and outputs._fmt(math.inf) == "inf"

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_timeavg_csv([1 / 3], [2 / 3], str(path))
        assert path.read_text() == "x,ccdf_avg\n0.333333333333,0.666666666667\n"
