"""Age-of-information bookkeeping: time decomposition, the lattice rule,
atoms, and sample-path evaluation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoi_lab import core
from aoi_lab.core import (
    CcdfGrid,
    GenerationSchedule,
    ages_above,
    aoi_path_matrix,
    decompose_time,
)
from aoi_lab.links import (
    CENSORED_NORMAL,
    SHIFTED_LOGNORMAL,
    CorrelationMode,
    DelayModel,
    LinkFunction,
    g_apply,
)
from aoi_lab.orthant import QuadratureSpec
from aoi_lab.outputs import aoi_support, exact_ccdf_grid
from aoi_lab.simulate import sample_driver
from oracles import argmax_path_matrix, cell_exceedance_counts, exceedance_counts


def aoi_path(delays, schedule, t_grid):
    """Age sample path of a single delay sequence."""
    return aoi_path_matrix(np.asarray(delays, dtype=float)[None, :], schedule, t_grid)[0]


def theta(t, x, tau):
    """Index of the oldest packet whose arrival matters for Pr(A_t > x),
    k_t + 1 - n with n the block length: the number of packets whose age
    t - L*tau exceeds x."""
    return int(ages_above([t], [x], tau)[0, 0])


def lattice_count(t, x, tau):
    """The packets generated by t whose float age exceeds x, counted one
    age at a time."""
    k = decompose_time(t, tau)[0]
    return int(np.count_nonzero(t - np.arange(k + 1) * tau > x))


def gaussian_model(kind="ou", x_min=0.5, mu_hat=-1.2824746787307684,
                   s_hat=1.085658784490618, tau=2.0,
                   link_kind=SHIFTED_LOGNORMAL, kappa=0.25):
    corr = CorrelationMode(kind, kappa=kappa if kind == "ou" else None)
    return DelayModel(
        LinkFunction(link_kind, x_min, mu_hat, s_hat), corr, GenerationSchedule(tau)
    )


class TestDecomposeTime:
    def test_basic_split(self):
        k, phi = decompose_time(7.3, 2.0)
        assert type(k) is int and type(phi) is float
        assert k == 3
        assert phi == pytest.approx(1.3, abs=1e-12)

    def test_exact_slot_boundary(self):
        assert decompose_time(6.0, 2.0) == (3, 0.0)

    def test_snaps_float_boundary(self):
        # 0.1 + 0.2 != 0.3 in binary; 0.3/0.1 lands a hair below 3.
        assert decompose_time(0.3, 0.1) == (3, 0.0)

    @pytest.mark.parametrize("t,tau", [(-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_bad_arguments(self, t, tau):
        with pytest.raises(ValueError):
            decompose_time(t, tau)

    @pytest.mark.parametrize(
        "t,tau",
        [
            # Slot boundaries, exact and snapped (0.1 + 0.2 and 0.3).
            ([0.0, 0.1 + 0.2, 0.3, 0.7, 6.0, 7.3, 1e3 + 0.1], 0.1),
            ([0.0, 2.0, 6.0 - 1e-13, 7.3, 1e6 + 1.5], 2.0),
            # TestExceedanceCounts' time whose next generation instant
            # rounds to at or below it, and its neighbours.
            ([263.7143739631855, np.nextafter(263.7143739631855, 0), 263.7143739631855 + 1e-9],
             0.0539955720645343),
        ],
    )
    def test_array_equals_scalar_calls_bit_for_bit(self, t, tau):
        k, phi = decompose_time(np.array(t), tau)
        assert k.dtype.kind == "i" and phi.dtype == np.float64
        scalar = [decompose_time(v, tau) for v in t]
        assert k.tolist() == [s[0] for s in scalar]
        assert phi.tobytes() == np.array([s[1] for s in scalar]).tobytes()

    @given(t=st.lists(st.floats(0, 1e4), max_size=12), tau=st.floats(1e-3, 1e2))
    @settings(max_examples=100, deadline=None)
    def test_array_matches_scalar_calls(self, t, tau):
        k, phi = decompose_time(np.reshape(t, (-1, 1)), tau)
        assert k.shape == phi.shape == (len(t), 1)
        for i, v in enumerate(t):
            assert (k[i, 0], phi[i, 0]) == decompose_time(v, tau)

    @pytest.mark.parametrize("t,bad", [([1.0, -2.0, np.nan], "-2.0"), ([0.5, np.inf, -1.0], "inf")])
    def test_names_the_first_bad_time(self, t, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            decompose_time(np.array(t), 1.0)

    def test_rejects_a_slot_past_int64(self):
        with pytest.raises(ValueError, match="t/tau must be below 2\\*\\*62"):
            decompose_time(np.array([1.0, 1e10]), 1e-9)

    @given(
        t=st.floats(0, 1e3),
        tau=st.floats(1e-3, 1e2),
    )
    @settings(max_examples=100, deadline=None)
    def test_reconstruction(self, t, tau):
        k, phi = decompose_time(t, tau)
        assert 0.0 <= phi < tau
        assert k * tau + phi == pytest.approx(t, rel=1e-9, abs=1e-9)


class TestTheta:
    def test_below_phase_means_no_packet_matters(self):
        # t = 7.3, tau = 2 => k = 3, phi = 1.3; x < phi gives index k+1.
        assert theta(7.3, 1.0, 2.0) == 4

    def test_exact_ceil_identity(self):
        assert theta(7.3, 1.3, 2.0) == 3
        assert theta(7.3, 3.3, 2.0) == 2
        assert theta(7.3, 7.3, 2.0) == 0
        assert theta(7.3, 50.0, 2.0) == 0

    @given(
        k=st.integers(0, 20),
        phi_frac=st.floats(0, 0.999),
        x=st.floats(0, 60),
        tau=st.floats(0.1, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_ceiling_formula(self, k, phi_frac, x, tau):
        t = (k + phi_frac) * tau
        k_t, phi = decompose_time(t, tau)
        # The two formulas may legitimately disagree within float noise of a
        # lattice point x = n*tau + phi; skip that measure-zero boundary.
        r = (x - phi) / tau
        if abs(r - round(r)) < 1e-6:
            return
        got = theta(t, x, tau)
        if x < phi:
            assert got == k_t + 1
        else:
            assert got == max(0, math.ceil((t - x) / tau - 1e-9))


class TestAgesAbove:
    """The one lattice rule against a count of the float ages."""

    @pytest.mark.parametrize("t_grid", [[7.3], [0.05, 0.3, 0.1 + 0.2, 0.45, 2.3, 6.0]])
    def test_matches_the_age_count_cellwise(self, t_grid):
        tau = 0.5
        # Below the phase, on t - L*tau, between lattice points, and far
        # enough out that k + 1 caps the count from either side.
        x = np.concatenate(
            [[-1.0, 0.0, 0.05, 0.2999], 0.3 + tau * np.arange(4), [0.1 + 0.2, 1.37, 9.0]]
        )
        c = ages_above(t_grid, x, tau)
        assert c.shape == (len(t_grid), x.size) and c.dtype == np.int64
        assert c.tolist() == [[lattice_count(t, float(xv), tau) for xv in x] for t in t_grid]

    def test_infinite_x(self):
        assert ages_above([7.3], [-math.inf, math.inf], 2.0).tolist() == [[4, 0]]

    def test_empty_grids(self):
        assert ages_above([0.1, 0.3], np.empty(0), 0.5).shape == (2, 0)
        assert ages_above([], [0.5], 0.5).shape == (0, 1)

    def test_names_a_nan(self):
        with pytest.raises(ValueError, match="x_grid must not hold NaN, got one at index 1"):
            ages_above([1.0], [0.5, math.nan], 0.5)

    @given(
        tau=st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.05]),
        t_step=st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.3, 0.5]),
        t_index=st.lists(st.integers(0, 400), min_size=1, max_size=6),
        x_step=st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.3, 0.7]),
        x_index=st.lists(st.integers(-20, 400), max_size=8),
        tie=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 80)), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_decimal_lattices_match_the_age_count(self, tau, t_step, t_index, x_step,
                                                  x_index, tie):
        # Grids as GridRange.values builds them, x placed exactly on ages
        # t - L*tau, and +-inf: binary-exact lattices hide the rounding of
        # (x - phi)/tau that a decimal tau exposes.
        t_grid = t_step * np.array(t_index)
        ties = [t_grid[j % t_grid.size] - L * tau for j, L in tie]
        x = np.concatenate([x_step * np.array(x_index, dtype=float), ties, [-np.inf, np.inf]])
        c = ages_above(t_grid, x, tau)
        want = [[lattice_count(float(t), float(xv), tau) for xv in x] for t in t_grid]
        assert c.tolist() == want


class TestAoiCcdfAgainstPaths:
    """The block-length rule must agree with brute-force age evaluation
    when the delay sequence is known: A_t > x exactly when the n most
    recent packets are all late."""

    @given(
        delays=st.lists(st.floats(0.0, 8.0), min_size=6, max_size=6),
        t=st.floats(0.01, 10.0),
        x=st.floats(0.0, 12.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_indicator_identity(self, delays, t, x):
        tau = 2.0
        # Keep every arrival time and candidate age a safe float distance
        # from the boundaries t and x: exactly-at-boundary ties are resolved
        # at different rounding points by the two evaluation routes.
        for n, d in enumerate(delays):
            assume(abs(n * tau + d - t) > 1e-9)
            assume(abs(x - (t - n * tau)) > 1e-9)
        schedule = GenerationSchedule(tau)
        k, phi = decompose_time(t, tau)
        n = k + 1 - theta(t, x, tau)
        all_late = all(delays[k - j] > j * tau + phi for j in range(n))
        age = aoi_path(delays, schedule, [t])[0]
        assert (age > x) == all_late

    def test_below_phase_is_always_one(self):
        # Even instant delivery cannot beat age phi at t = 7.3: no packet
        # has to be late, and the age is never below 1.3.
        schedule = GenerationSchedule(2.0)
        assert theta(7.3, 1.2999, 2.0) == 4
        assert aoi_path([0.0] * 4, schedule, [7.3])[0] > 1.2999


class TestAoiPaths:
    def test_infinite_before_first_arrival(self):
        ages = aoi_path([5.0] * 6, GenerationSchedule(1.0), [0.5, 2.0, 5.0])
        assert np.isinf(ages[0]) and np.isinf(ages[1])
        assert ages[2] == pytest.approx(5.0)

    def test_tie_counts_as_arrived(self):
        # Packet 0 arrives exactly at t = 1.0.
        ages = aoi_path([1.0], GenerationSchedule(2.0), [1.0])
        assert ages[0] == pytest.approx(1.0)

    def test_age_resets_to_newest_arrival(self):
        # tau = 1: packet n at time n with delay 0.2 => at t = 3.5 the
        # newest arrived packet is n = 3, so age = 0.5.
        ages = aoi_path([0.2] * 4, GenerationSchedule(1.0), [3.5])
        assert ages[0] == pytest.approx(0.5)

    def test_matrix_shape_and_batching(self):
        delays = np.array([[0.1, 0.1, 0.1], [3.0, 3.0, 3.0]])
        ages = aoi_path_matrix(delays, GenerationSchedule(1.0), [0.5, 2.5])
        assert ages.shape == (2, 2)
        # Age measures back to the generation instant, not the arrival.
        assert ages[0, 0] == pytest.approx(0.5)
        assert np.isinf(ages[1, 0])

    # (delays, tau, t_grid) per case; t_grid None draws sorted times over
    # the horizon.  "far-out" is TestExceedanceCounts' time whose next
    # generation instant rounds to at or below it.
    ORACLE_CASES = {
        "random": (lambda rng: rng.exponential(1.5, (40, 12)), 0.5, None),
        "grid-ties": (lambda rng: rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], (40, 14)), 0.5,
                      [0.0, 0.25, 0.5, 0.5, 1.0, 2.25, 3.0, 6.5]),
        "zero": (lambda rng: np.zeros((5, 8)), 0.5, [0.0, 0.5, 1.0, 3.5]),
        "one-packet": (lambda rng: rng.choice([0.0, 0.5, 1.0, 3.0], (20, 1)), 2.0,
                       [0.0, 0.5, 1.0, 1.5]),
        "empty-t": (lambda rng: rng.exponential(1.0, (6, 4)), 1.0, []),
        "far-out": (lambda rng: rng.choice([0.0, 0.02, 1.0], (30, 4886)), 0.0539955720645343,
                    [263.7143739631855 - 0.02, np.nextafter(263.7143739631855, 0),
                     263.7143739631855, 263.7143739631855 + 1e-9]),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_equals_argmax_oracle_bit_for_bit(self, case):
        draw, tau, t_grid = self.ORACLE_CASES[case]
        rng = np.random.Generator(np.random.Philox(29))
        delays = draw(rng)
        if t_grid is None:
            t_grid = np.sort(rng.uniform(0.0, (delays.shape[1] - 1) * tau, 25))
        schedule = GenerationSchedule(tau)
        got = aoi_path_matrix(delays, schedule, t_grid)
        want = argmax_path_matrix(delays, schedule, t_grid)
        assert got.shape == want.shape == (len(delays), len(t_grid))
        assert got.tobytes() == want.tobytes()

    def test_rejects_short_delay_sequences(self):
        with pytest.raises(ValueError):
            aoi_path([0.1], GenerationSchedule(1.0), [5.0])

    def test_rejects_negative_delays(self):
        with pytest.raises(ValueError):
            aoi_path([-0.1, 0.2], GenerationSchedule(1.0), [0.5])


class TestDelayChecks:
    """Both sample-path kernels reject the same bad delays with the same
    error."""

    BAD = {
        "nan": ([[0.1, np.nan, 0.2]], "finite and non-negative"),
        "+inf": ([[0.1, np.inf, 0.2]], "finite and non-negative"),
        "-inf": ([[0.1, 0.2, -np.inf]], "finite and non-negative"),
        "negative": ([[0.1, 0.2], [0.3, -1e-300]], "finite and non-negative"),
        "empty": ([], "delays cover 0 packets but the horizon needs 2"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("kernel", ["aoi_path_matrix", "exceedance_counts"])
    def test_rejects_bad_delays(self, kernel, case):
        delays, message = self.BAD[case]
        schedule, t_grid = GenerationSchedule(1.0), [0.5, 1.5]
        with pytest.raises(ValueError, match=message):
            if kernel == "aoi_path_matrix":
                aoi_path_matrix(delays, schedule, t_grid)
            else:
                exceedance_counts(delays, schedule, t_grid, [0.5])

    def test_accepts_zero_delays_and_no_paths(self):
        schedule = GenerationSchedule(1.0)
        assert aoi_path_matrix([[0.0, 0.0]], schedule, [1.0])[0, 0] == 0.0
        above, infinite = exceedance_counts(np.empty((0, 3)), schedule, [1.0], [0.5])
        assert above.tolist() == [[0]] and infinite.tolist() == [0]


class TestExceedanceCounts:
    """Counts read off the arrival lattice against the dense ages."""

    # t = 0, a repeated t, and generation instants of every tau below;
    # 0.3 and 0.7 lie a rounding error off 3*0.1 and 7*0.1.
    T_GRID = [0.0, 0.25, 0.3, 0.7, 1.0, 1.0, 2.0, 2.3, 4.0, 5.5, 6.0]

    def check(self, delays, schedule, t_grid, x_grid):
        # The oracle: column sums of the dense ages above each x, and of
        # the infinite ages.
        ages = aoi_path_matrix(delays, schedule, t_grid)
        above, infinite = exceedance_counts(delays, schedule, t_grid, x_grid)
        assert above.dtype == infinite.dtype == np.int64
        assert np.array_equal(above, (ages[:, :, None] > np.asarray(x_grid)).sum(axis=0))
        assert np.array_equal(infinite, np.isinf(ages).sum(axis=0))

    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize(
        "model",
        [
            gaussian_model("iid"),
            gaussian_model("ou"),
            gaussian_model("frozen"),
            # Zero delays put arrivals exactly on the generation instants.
            gaussian_model("ou", x_min=0.0, mu_hat=0.2, s_hat=1.0, link_kind=CENSORED_NORMAL),
        ],
        ids=["iid", "ou", "frozen", "censored-zero"],
    )
    def test_equals_dense_ages(self, model, tau):
        schedule = GenerationSchedule(tau)
        n_packets = decompose_time(self.T_GRID[-1], tau)[0] + 2
        rng = np.random.Generator(np.random.Philox(5))
        delays = g_apply(model.link, sample_driver(model, n_packets, rng, 3000))
        ages = aoi_path_matrix(delays, schedule, self.T_GRID)
        # A negative x, ages on the lattice (ties), a huge x and +inf.
        lattice = np.unique(ages[np.isfinite(ages)])
        x_grid = np.concatenate(([-1.0, 0.0], lattice[:: max(1, lattice.size // 12)], [1e9, np.inf]))
        assert np.isin(ages, x_grid).any()
        self.check(delays, schedule, self.T_GRID, x_grid)
        # The same counts from a C-ordered copy, and from one path.
        self.check(np.ascontiguousarray(delays), schedule, self.T_GRID, x_grid)
        self.check(delays[0], schedule, self.T_GRID, x_grid)

    def test_plus_infinity_counts_no_path(self):
        # Every path is still waiting at t = 1, so every age is infinite; x
        # = +inf is exceeded by none of them, 1e9 by all.
        above, infinite = exceedance_counts(
            np.full((4, 2), 5.0), GenerationSchedule(1.0), [1.0], [1e9, np.inf]
        )
        assert above.tolist() == [[4, 0]] and infinite.tolist() == [4]

    def test_ties_arrive_and_do_not_exceed(self):
        # Packet 1 arrives exactly at t = 3 (age 2 = x, not above x); packet
        # 3, generated at t, arrives at once on the second path (age 0).
        delays = np.array([[0.0, 2.0, 5.0, 5.0], [0.0, 5.0, 5.0, 0.0]])
        above, infinite = exceedance_counts(delays, GenerationSchedule(1.0), [3.0], [0.0, 2.0])
        assert above.tolist() == [[1, 0]] and infinite.tolist() == [0]
        self.check(delays, GenerationSchedule(1.0), [3.0], [0.0, 2.0])

    def test_generation_instant_rounded_below_t(self):
        # At packet 4884 the generation instant (k + 1)*tau rounds to at or
        # below t, and decompose_time still puts t in slot k: that packet
        # has not been generated at t, even when it arrives at once.
        tau, t = 0.0539955720645343, 263.7143739631855
        k = decompose_time(t, tau)[0]
        assert (k + 1) * tau <= t
        delays = np.ones((3, k + 2))
        delays[0] = 0.0
        delays[1, k + 1] = 0.0
        self.check(delays, GenerationSchedule(tau), [t], [-1.0, 0.0, 0.05, 1.0, np.inf])

    @given(
        delays=st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.7, 9.0]), min_size=7, max_size=7),
            min_size=1,
            max_size=6,
        ),
        t_grid=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 6.0]), min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_dense_ages_on_ties(self, delays, t_grid):
        # Delays, times and thresholds all on one half-unit lattice.
        x_grid = np.arange(-1.0, 7.5, 0.5)
        self.check(np.array(delays), GenerationSchedule(1.0), sorted(t_grid), x_grid)

    def test_empty_grids(self):
        above, infinite = exceedance_counts(np.ones((3, 2)), GenerationSchedule(1.0), [], [1.0])
        assert above.shape == (0, 1) and infinite.shape == (0,)
        above, _ = exceedance_counts(np.ones((3, 2)), GenerationSchedule(1.0), [1.0], [])
        assert above.shape == (1, 0)

    @pytest.mark.parametrize(
        "delays,t_grid",
        [
            ([[-0.1, 0.2]], [0.5]),
            ([[np.nan, 0.2]], [0.5]),
            ([[np.inf, 0.2]], [0.5]),
            ([[0.1, 0.2]], [1.5, 0.5]),
            ([[0.1]], [5.0]),
        ],
        ids=["negative", "nan", "inf", "unsorted-t", "short"],
    )
    def test_rejects_what_the_path_matrix_rejects(self, delays, t_grid):
        schedule = GenerationSchedule(1.0)
        with pytest.raises(ValueError) as dense:
            aoi_path_matrix(delays, schedule, t_grid)
        with pytest.raises(ValueError) as counted:
            exceedance_counts(delays, schedule, t_grid, [1.0])
        assert str(counted.value) == str(dense.value)


class TestCountKernel:
    """Both ways of counting arrivals, one count per grid time over short
    rows and one per (packet, time) cell over long ones, against the cell
    loop of the whole kernel: the integer counts agree exactly."""

    @pytest.fixture(params=[1, 1 << 62], ids=["cells", "per-time"])
    def branch(self, request, monkeypatch):
        monkeypatch.setattr(core, "_CELL_COUNT_PATHS", request.param)

    def check(self, delays, schedule, t_grid, x_grid):
        above, infinite = exceedance_counts(delays, schedule, t_grid, x_grid)
        want_above, want_infinite = cell_exceedance_counts(delays, schedule, t_grid, x_grid)
        assert above.dtype == infinite.dtype == np.int64
        assert np.array_equal(above, want_above)
        assert np.array_equal(infinite, want_infinite)

    @pytest.mark.parametrize("n_paths", [1, 2, 500])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    def test_equals_cell_loop(self, branch, n_paths, tau):
        # Delays on a quarter-unit lattice with zeros, so arrivals tie with
        # grid times and ages with x; t = 0 and a repeated t; one-path and
        # two-path chunks.
        t_grid = TestExceedanceCounts.T_GRID
        n_packets = decompose_time(t_grid[-1], tau)[0] + 2
        rng = np.random.Generator(np.random.Philox(17))
        delays = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 3.75, 9.0], size=(n_paths, n_packets))
        x_grid = [-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 1e9, np.inf]
        self.check(delays, GenerationSchedule(tau), t_grid, x_grid)


class TestAoiSupport:
    def test_atoms_sit_on_phase_lattice(self):
        sup = aoi_support(gaussian_model(), 7.3)
        phi = decompose_time(7.3, 2.0)[1]
        assert np.allclose(sup.atoms, np.arange(sup.j_star, 4) * 2.0 + phi)

    def test_masses_and_infinity_sum_to_one(self):
        # Long delays leave a visible chance that nothing has arrived.
        for kind in ("iid", "ou", "frozen"):
            model = gaussian_model(kind, link_kind=CENSORED_NORMAL, mu_hat=3.0,
                                   s_hat=2.0)
            sup = aoi_support(model, 7.3)
            assert sup.p_infinity > 1e-4
            total = sup.masses.sum() + sup.p_infinity
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_delays_give_unit_atom(self):
        # Delays 0.5 up to a 1e-3 spread, t = 7.3: packet 3 (sent at 6.0)
        # has arrived by 6.6, so the age is 1.3 with probability one.
        model = gaussian_model("iid", x_min=0.0, link_kind=CENSORED_NORMAL,
                               mu_hat=0.5, s_hat=1e-3)
        sup = aoi_support(model, 7.3)
        assert sup.p_infinity == 0.0
        idx = int(np.argmax(sup.masses))
        assert sup.atoms[idx] == pytest.approx(1.3, abs=1e-12)
        assert sup.masses[idx] == pytest.approx(1.0, abs=1e-12)

    def test_keeps_atom_at_minimum_delay_on_the_lattice(self):
        # x_min = 0.5 equals the phase at t = 3.5, and the censored link puts
        # mass on D = x_min, so the age 0.5 is an atom of A_t.
        model = gaussian_model(x_min=0.5, mu_hat=0.6, s_hat=0.5, tau=1.0,
                               link_kind=CENSORED_NORMAL, kappa=0.1)
        sup = aoi_support(model, 3.5)
        assert sup.j_star == 0
        assert sup.masses.sum() + sup.p_infinity == pytest.approx(1.0, abs=1e-12)

    def test_minimum_delay_gates_smallest_atom(self):
        # If delays cannot go below 1.4 > phi = 1.3, the age cannot be 1.3.
        sup = aoi_support(gaussian_model(x_min=1.4), 7.3)
        assert sup.j_star == 1
        assert sup.atoms[0] == pytest.approx(3.3, abs=1e-12)

    def test_matches_grid_plateaus_on_censored_link(self):
        # The block at (t=3.5, x=3.6) has Gaussian threshold 5.8, deep in
        # the tail, so both routes read a far plateau of one profile.
        model = gaussian_model(x_min=0.5, mu_hat=0.6, s_hat=0.5, tau=1.0,
                               link_kind=CENSORED_NORMAL, kappa=0.1)
        spec = QuadratureSpec(m=64)
        t, tau = 3.5, 1.0
        sup = aoi_support(model, t, spec)
        # One x inside each plateau ((n-1)*tau + phi, n*tau + phi), n = 1..4;
        # the last plateau is p_infinity.
        xs = [1.0, 2.0, 3.0, 3.6]
        grid = exact_ccdf_grid(model, [t], xs, spec)
        plateaus = [sup.masses[sup.atoms > x].sum() + sup.p_infinity for x in xs]
        assert np.allclose(grid.p[0], plateaus, rtol=0, atol=1e-15)
        assert grid.p[0, 3] == sup.p_infinity
        assert 0.0 < sup.p_infinity < 1e-6


class TestCcdfGrid:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            CcdfGrid(np.arange(2.0), np.arange(3.0), np.zeros((3, 2)))

    def test_takes_no_kind(self):
        # Exact and empirical grids are one type: a grid names no kind.
        with pytest.raises(TypeError):
            CcdfGrid(np.arange(2.0), np.arange(3.0), np.zeros((2, 3)), "exact")

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            CcdfGrid(np.arange(2.0), np.arange(3.0), np.full((2, 3), 1.5))

    def test_clips_float_noise(self):
        g = CcdfGrid(np.arange(2.0), np.arange(3.0), np.full((2, 3), 1.0 + 1e-15))
        assert np.all(g.p <= 1.0)
