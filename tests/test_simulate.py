"""Monte-Carlo engine: exact driver sampling and empirical CCDFs."""

import math
import tracemalloc

import numpy as np
import pytest

from aoi_lab import simulate
from aoi_lab.core import GenerationSchedule
from aoi_lab.links import (
    CENSORED_NORMAL,
    SHIFTED_LOGNORMAL,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    calibrate_kappa,
    g_apply,
)
from aoi_lab.core import aoi_path_matrix
from aoi_lab.outputs import exact_ccdf_grid
from aoi_lab.simulate import sample_driver, simulate_empirical_ccdf


def make_model(kind="ou", kappa=0.25, tau=1.0):
    link = LinkFunction(SHIFTED_LOGNORMAL, 0.5, -1.2824746787307684, 1.085658784490618)
    corr = CorrelationMode(kind, kappa=kappa if kind == "ou" else None)
    return DelayModel(link, corr, GenerationSchedule(tau))


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestOuSampling:
    def test_shape_and_determinism(self):
        model = make_model(kappa=0.3)
        z1 = sample_driver(model, 50, rng(9), n_paths=4)
        z2 = sample_driver(model, 50, rng(9), n_paths=4)
        assert z1.shape == (4, 50)
        assert np.array_equal(z1, z2)

    def test_different_seeds_differ(self):
        model = make_model(kappa=0.3)
        z1 = sample_driver(model, 10, rng(1), n_paths=1)
        z2 = sample_driver(model, 10, rng(2), n_paths=1)
        assert not np.array_equal(z1, z2)

    def test_stationary_moments(self):
        z = sample_driver(make_model(kappa=0.5), 20, rng(123), n_paths=200_000)
        # Each column is standard normal; 200k paths give ~0.0022 stderr.
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_one_step_correlation(self):
        kappa, tau = 0.5, 1.0
        z = sample_driver(make_model(kappa=kappa, tau=tau), 2, rng(77), n_paths=400_000)
        rho_hat = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert rho_hat == pytest.approx(math.exp(-kappa * tau), abs=0.01)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_driver(make_model(kappa=0.5), 0, rng(1), n_paths=1)
        with pytest.raises(ValueError):
            CorrelationMode("ou", kappa=0.0)


class TestDriverModes:
    def test_frozen_paths_are_constant(self):
        z = sample_driver(make_model("frozen"), 12, rng(4), n_paths=8)
        assert np.all(z == z[:, :1])

    def test_iid_columns_uncorrelated(self):
        z = sample_driver(make_model("iid"), 2, rng(4), n_paths=400_000)
        rho_hat = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(rho_hat) < 0.01

    def test_iid_driver_is_the_raw_draw(self):
        # At rho = 0 the AR(1) recursion returns the standard normal draws
        # bit for bit.
        z = sample_driver(make_model("iid"), 30, rng(6), n_paths=1000)
        assert z.tobytes() == rng(6).standard_normal((1000, 30)).tobytes()

    @pytest.mark.parametrize("n", [1, 6, 101])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.8746])
    def test_recursion_matches_column_loop_bit_for_bit(self, rho, n):
        model = make_model("iid") if rho == 0.0 else make_model(kappa=-math.log(rho))
        rho = model.step_correlation()
        xi = rng(8).standard_normal((300, n))
        ref = np.empty_like(xi)
        ref[:, 0] = xi[:, 0]
        for i in range(1, n):
            ref[:, i] = rho * ref[:, i - 1] + math.sqrt(1.0 - rho * rho) * xi[:, i]
        z = sample_driver(model, n, rng(8), n_paths=300)
        assert z.shape == (300, n)
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["iid", "ou", "frozen"])
    def test_draws_into_out_bit_for_bit(self, kind):
        model = make_model(kind)
        out = np.full((40, 9), np.nan)
        assert sample_driver(model, 9, rng(3), 40, out=out) is out
        assert out.tobytes() == sample_driver(model, 9, rng(3), 40).tobytes()

    def test_delay_paths_respect_left_endpoint(self):
        model = make_model()
        delays = g_apply(model.link, sample_driver(model, 11, rng(5), n_paths=100))
        assert delays.shape == (100, 11)
        assert np.all(delays > 0.5)


class TestEmpiricalCcdf:
    def test_matches_exact_engine_iid(self):
        model = make_model("iid")
        t_grid = [0.7, 2.7, 5.7]
        x_grid = [0.5, 1.0, 2.0, 4.0]
        emp = simulate_empirical_ccdf(model, t_grid, x_grid, n_paths=100_000, seed=21)
        exact = exact_ccdf_grid(model, t_grid, x_grid)
        diff = np.abs(emp.grid.p - exact.p)
        se = np.sqrt(exact.p * (1 - exact.p) / 100_000)
        assert np.all(diff <= 4 * np.maximum(se, 1e-4))

    def test_stderr_is_binomial(self):
        emp = simulate_empirical_ccdf(make_model(), [2.5], [1.0], n_paths=1000, seed=3)
        p = emp.grid.p[0, 0]
        assert emp.stderr[0, 0] == pytest.approx(
            math.sqrt(p * (1 - p) / 1000), rel=1e-12
        )

    def test_infinite_age_counting(self):
        # At huge x only never-updated paths exceed the threshold.
        emp = simulate_empirical_ccdf(make_model(), [0.9, 4.9], [1e9], n_paths=5000, seed=8)
        assert np.allclose(emp.grid.p[:, 0] * 5000, emp.n_infinite)

    def test_no_age_exceeds_infinity(self):
        # Never-updated paths exceed x = 1e300 but not x = +inf, in the
        # exact grid as in the simulated one.
        model = make_model()
        t_grid, x_grid = [1.0, 3.0], [0.0, 1e300, np.inf]
        emp = simulate_empirical_ccdf(model, t_grid, x_grid, n_paths=5000, seed=8)
        exact = exact_ccdf_grid(model, t_grid, x_grid)
        assert np.all(exact.p[:, 1] > 0) and np.all(emp.grid.p[:, 1] > 0)
        assert np.array_equal(exact.p[:, 2], emp.grid.p[:, 2])
        assert np.all(exact.p[:, 2] == 0.0)

    def test_deterministic_in_seed(self):
        args = (make_model(), [2.5], [1.0], 500, 42)
        a = simulate_empirical_ccdf(*args)
        b = simulate_empirical_ccdf(*args)
        assert np.array_equal(a.grid.p, b.grid.p)

    def test_horizon_on_a_snapped_slot_boundary(self):
        # 0.3 / 0.1 rounds below 3, but decompose_time puts t = 0.3 in slot
        # 3, so the paths need 4 packets.  Delays are 0 with probability
        # 0.42, so some ages are 0.
        link = LinkFunction(CENSORED_NORMAL, 0.0, 0.2, 1.0)
        model = DelayModel(link, CorrelationMode("ou", kappa=0.25), GenerationSchedule(0.1))
        t_grid, x_grid = [0.1, 0.3], [0.0, 0.05, 0.25]
        emp = simulate_empirical_ccdf(model, t_grid, x_grid, n_paths=50, seed=6)
        z = sample_driver(model, 4, rng(6), 50)
        ages = aoi_path_matrix(g_apply(model.link, z), model.schedule, t_grid)
        assert np.isfinite(ages).any() and (ages == 0).any()
        assert np.array_equal(emp.grid.p, (ages[:, :, None] > x_grid).mean(axis=0))

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
            simulate_empirical_ccdf(make_model(), [1.0], [1.0], n_paths=0, seed=1)


class TestStreamedCcdf:
    """Lattice counts over path chunks against the dense mean of the
    per-path indicators."""

    @pytest.mark.parametrize("kind", ["iid", "ou", "frozen"])
    def test_chunked_driver_equals_one_draw(self, kind):
        model = make_model(kind)
        stream = rng(11)
        parts = [sample_driver(model, 7, stream, k) for k in (3, 5, 1, 4)]
        assert np.array_equal(np.vstack(parts), sample_driver(model, 7, rng(11), n_paths=13))

    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("kind", ["iid", "ou", "frozen", "censored-zero"])
    def test_byte_identical_to_dense_indicator_mean(self, monkeypatch, kind, tau):
        # A budget of 4096 paths' packets: a partial last chunk; t = 0, a
        # repeated t and generation instants; x negative, on the age lattice
        # t - n*tau (ties), 1e9, which only infinite ages exceed, and +inf,
        # which none does.  censored-zero delays are 0 with probability
        # 0.42, so arrivals fall exactly on t.
        chunk = 1 << 12
        n_paths = 2 * chunk + 1
        t_grid = [0.0, 0.5, 2.0, 2.0, 2.5, 4.0, 5.5]
        x_grid = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.5, 4.5, 1e9, math.inf]
        if kind == "censored-zero":
            link = LinkFunction(CENSORED_NORMAL, 0.0, 0.2, 1.0)
            model = DelayModel(link, CorrelationMode("ou", kappa=0.25), GenerationSchedule(tau))
        else:
            model = make_model(kind, tau=tau)
        # Every packet generated by t = 5.5.
        n_packets = int(5.5 / tau) + 1
        monkeypatch.setattr(simulate, "_CHUNK_FLOATS", chunk * n_packets)
        # The dense oracle: one draw of every path from the same seed.
        z = sample_driver(model, n_packets, rng(13), n_paths)
        ages = aoi_path_matrix(g_apply(model.link, z), model.schedule, t_grid)
        x = np.asarray(x_grid)
        assert np.isin(ages, x).any()
        p = (ages[:, :, None] > x).mean(axis=0)
        emp = simulate_empirical_ccdf(model, t_grid, x_grid, n_paths, seed=13, n_saved=n_paths)
        assert np.array_equal(emp.grid.p, p)
        assert np.array_equal(emp.stderr, np.sqrt(p * (1.0 - p) / n_paths))
        assert np.array_equal(emp.n_infinite, np.isinf(ages).sum(axis=0))
        assert np.array_equal(emp.ages, ages)

    def test_unsaved_paths_build_no_ages(self, monkeypatch):
        def dense(*args):
            raise AssertionError("per-path ages built")

        monkeypatch.setattr(simulate, "aoi_path_matrix", dense)
        emp = simulate_empirical_ccdf(make_model(), [0.5, 2.5, 5.5], [1.0], 5000, seed=2)
        assert emp.ages.shape == (0, 3)

    @pytest.mark.parametrize("n_saved", [0, 3, 4, 6, 11])
    def test_saved_ages_are_the_leading_paths(self, monkeypatch, n_saved):
        # A budget of 27 floats, chunks of 4 paths of 6 packets: saving
        # stops inside, at and past a chunk's end.
        monkeypatch.setattr(simulate, "_CHUNK_FLOATS", 27)
        model = make_model()
        t_grid = [0.5, 2.5, 5.5]
        z = sample_driver(model, 6, rng(5), 11)
        ages = aoi_path_matrix(g_apply(model.link, z), model.schedule, t_grid)
        saved = simulate_empirical_ccdf(model, t_grid, [1.0], 11, seed=5, n_saved=n_saved).ages
        assert saved.shape == (n_saved, 3)
        assert np.array_equal(saved, ages[:n_saved])

    @pytest.mark.parametrize("n_saved", [-1, 12])
    def test_rejects_saved_outside_ensemble(self, n_saved):
        with pytest.raises(ValueError):
            simulate_empirical_ccdf(make_model(), [2.5], [1.0], 11, seed=5, n_saved=n_saved)

    def test_one_path_chunks_below_a_paths_packets(self, monkeypatch):
        # A budget of 5 floats holds less than one path of 6 packets: each
        # chunk is one path, and the counts and ages are those of one chunk
        # of all 40.
        args = (make_model(), [0.0, 2.5, 2.5, 5.5], [0.0, 0.5, 1.5, 3.0], 40, 4)
        whole = simulate_empirical_ccdf(*args, n_saved=40)
        sizes, sample = [], simulate.sample_driver

        def counted(model, n, rng, n_paths, **kwargs):
            sizes.append(n_paths)
            return sample(model, n, rng, n_paths, **kwargs)

        monkeypatch.setattr(simulate, "_CHUNK_FLOATS", 5)
        monkeypatch.setattr(simulate, "sample_driver", counted)
        split = simulate_empirical_ccdf(*args, n_saved=40)
        assert sizes == [1] * 40
        assert np.array_equal(split.grid.p, whole.grid.p)
        assert np.array_equal(split.n_infinite, whole.n_infinite)
        assert np.array_equal(split.ages, whole.ages)

    @staticmethod
    def readme_peak(n_paths, tau=2.0):
        """tracemalloc peak of simulating the README config: c = 10,
        tau = 2 (6 packets a path), 20 times by 501 x values."""
        model = make_model(kappa=calibrate_kappa(make_model().link, 10.0), tau=tau)
        t_grid = np.arange(1, 21) * 0.5
        x_grid = np.arange(501) * 0.02
        tracemalloc.start()
        try:
            simulate_empirical_ccdf(model, t_grid, x_grid, n_paths, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_paths(self):
        # The budget's paths at README's 6 packets a path.
        chunk = simulate._CHUNK_FLOATS // 6
        assert self.readme_peak(4 * chunk) <= 1.5 * self.readme_peak(chunk)

    def test_readme_peak_builds_no_ages(self):
        # README's 100k paths hold a chunk's delays and one copy of them:
        # about 2.8 MB.  A chunk's 20 columns of ages and
        # their sorted copy took 26.5 MB.
        assert self.readme_peak(100_000) <= 13e6

    def test_memory_does_not_grow_as_one_over_tau(self):
        # At tau = 0.05 a path has 201 packets, not 6, and a chunk holds
        # fewer paths: the same budget of floats, 2.4 MB against 2.8 MB.
        # Chunks of a fixed 65 536 paths peaked at 316 MB.
        assert self.readme_peak(100_000, tau=0.05) <= 1.5 * self.readme_peak(100_000)
