import dataclasses
import decimal
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from entroflow import (
    AtEquilibriumError,
    BernoulliFamily,
    CompositeSystem,
    FamilyManifold,
    GaussianMeanFamily,
    IdealGasFamily,
    MonotonicityError,
    SingularModelError,
    StepCollapseError,
    as_manifold,
    clock_invert,
    entropy_production_check,
    integrate,
    unit_velocity,
    write_trajectory_csv,
)
from entroflow import chebyshev, duality
from entroflow.cli import build_system, catalog_names, catalog_path, parse_config
from entroflow.coupled import PairRay
from entroflow.family import TabulatedFamily, _BinnedRay
from entroflow.flow import _RayTable
from entroflow.geometry import StateManifold
from helpers import (
    OracleTable,
    count_calls,
    rk4_rows,
    seeded_table,
    squared_bernoulli,
    synthetic_trajectory,
    tabulated_mean,
    tabulated_ray_tau,
    tabulated_states,
)


def tie_17g(k, share):
    """m 2^-k for the odd m at ``share`` of those that make 18 significant
    digits: the last digit is 5, so the 17-digit rounding is an exact tie."""
    lo, hi = -(-10**17 // 5**k), (10**18 - 1) // 5**k
    m = lo + int(share * (hi - lo))
    return (m | 1 if m | 1 <= hi else m - 1) * 2.0**-k


def near_power_of_ten(k, step):
    p = 10.0**k
    return float([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)][step])


#: Cells that reach every branch of the CSV kernel: decimal exponents -5,
#: -4, 16 and 17 on both sides of fixed notation, exponents of 3 digits,
#: powers of ten and their neighbours, integers up to 1e17, signed zeros,
#: exact ties, and the cells it leaves to "%.17g" (non-finite, subnormal,
#: beyond 1e+-250).
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300]),
    st.builds(lambda m, X: m * 10.0**X, st.floats(-9.999, 9.999),
              st.sampled_from([-5, -4, -1, 0, 15, 16, 17, -100, 100, -249, 249, -300, 300])),
    st.builds(near_power_of_ten, st.integers(-310, 308), st.integers(0, 2)),
    st.integers(-10**17, 10**17).map(float),
    st.builds(tie_17g, st.integers(5, 25), st.floats(0.0, 1.0)),
)


@pytest.fixture(scope="module")
def tabulated_3x50():
    """A seeded 3 x 50 tabulated family, a start A(lam0) and its tau_eq oracle."""
    rng = np.random.default_rng(50)
    weights, stats = rng.uniform(0.5, 2.0, 50), rng.normal(size=(3, 50))
    lam0 = rng.normal(0.0, 0.2, 3)
    fam = OracleTable(weights, stats)
    return (
        fam,
        tabulated_mean(weights, stats, lam0),
        tabulated_ray_tau(weights, stats, lam0, 0.0)[0][0],
    )


def watch_ray_rate(fam, noise=None):
    """Route the arclength-rate kernel of ``fam``'s rays through a counter of
    the nodes it evaluates, returned as a one-item list, and scale each
    value by 1 + ``noise(n)`` for a call of n nodes if given."""
    make_ray, nodes = fam.ray, [0]

    def watched(lam0):
        ray = make_ray(lam0)
        rate = ray.rate

        def counting(ts):
            nodes[0] += len(ts)
            assert nodes[0] <= 50_000, "the quadrature does not stop"
            f = rate(ts)
            return f if noise is None else f * (1.0 + noise(len(ts)))

        ray.rate = counting
        return ray

    fam.ray = watched
    return nodes


def bernoulli_arclength(a0, a1):
    # integral of dA / sqrt(A (1 - A)) = 2 asin(sqrt A)
    return 2.0 * (math.asin(math.sqrt(a1)) - math.asin(math.sqrt(a0)))


class TestVelocityField:
    def test_bernoulli_derived_value(self, bernoulli):
        lam = math.log(3.0)
        g_inv = 0.25 * 0.75
        s = lam * math.sqrt(g_inv)
        expected = g_inv * lam / s  # = sqrt(g_inv)
        got = unit_velocity(as_manifold(bernoulli).point([0.25]))[0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.43301270, abs=1e-8)
        # moves toward higher entropy
        point = as_manifold(bernoulli).point
        assert point([0.25 + 1e-4 * got]).S > point([0.25]).S

    def test_mirror_symmetry(self, bernoulli):
        v_low = unit_velocity(as_manifold(bernoulli).point([0.25]))[0]
        v_high = unit_velocity(as_manifold(bernoulli).point([0.75]))[0]
        assert v_high == pytest.approx(-v_low, rel=1e-12)

    def test_gaussian_unit_velocity(self, gaussian):
        v = unit_velocity(as_manifold(gaussian).point([-2.0]))[0]
        assert v == pytest.approx(1.0, rel=1e-12)

    def test_unit_metric_norm(self, bernoulli, ideal_gas, rng):
        for fam, draw in [
            (bernoulli, lambda: np.array([rng.uniform(0.1, 0.9)])),
            (ideal_gas, lambda: np.array([rng.uniform(1, 4), rng.uniform(0.5, 2)])),
        ]:
            for _ in range(10):
                A = draw()
                pt = as_manifold(fam).point(A)
                if pt.sigma < 1e-6:
                    continue
                v = unit_velocity(pt)
                assert abs(v @ pt.g @ v - 1.0) <= 1e-12

    def test_equilibrium_raises(self, bernoulli, gaussian):
        with pytest.raises(AtEquilibriumError):
            unit_velocity(as_manifold(bernoulli).point([0.5]))
        with pytest.raises(AtEquilibriumError):
            unit_velocity(as_manifold(gaussian).point([0.0]))


class TestIntegrate:
    def test_bernoulli_golden_arclength(self, bernoulli_traj):
        assert bernoulli_traj.terminal_status == "equilibrium-reached"
        assert abs(bernoulli_traj.tau[-1] - math.pi / 6.0) <= 1e-12
        assert abs(bernoulli_traj.A[-1, 0] - 0.5) <= 1e-4

    def test_gaussian_straight_line(self, gaussian_traj):
        assert gaussian_traj.terminal_status == "equilibrium-reached"
        assert abs(gaussian_traj.tau[-1] - 2.0) <= 1e-12
        assert abs(gaussian_traj.A[-1, 0]) <= 1e-6

    def test_equilibrium_start_raises(self, bernoulli, gaussian):
        with pytest.raises(AtEquilibriumError):
            integrate(bernoulli, [0.5], tau_max=1.0)
        with pytest.raises(AtEquilibriumError):
            integrate(gaussian, [0.0], tau_max=1.0)

    @pytest.mark.parametrize(
        "setting",
        [dict(tau_max=math.nan), dict(tau_max=0.0), dict(tau_max=-1.0),
         dict(h=math.nan), dict(h=0.0), dict(h=-1e-3), dict(h=math.inf)],
        ids=lambda setting: "{}={}".format(*next(iter(setting.items()))),
    )
    @pytest.mark.parametrize(
        "system, A0", [("bernoulli", [0.25]), ("bernoulli_pair", [0.25]), ("ideal_gas", [1.0, 0.5])]
    )
    def test_settings_that_are_nan_or_not_positive_raise(self, request, system, A0, setting):
        # h = nan on a pair used to return a few rows
        with pytest.raises(ValueError, match=next(iter(setting))):
            integrate(request.getfixturevalue(system), A0, **{"tau_max": 2.0, **setting})

    def test_budget_exhaustion(self, bernoulli):
        traj = integrate(bernoulli, [0.25], tau_max=0.1)
        assert traj.terminal_status == "tau-budget-exhausted"
        assert traj.tau[-1] == pytest.approx(0.1, abs=1e-12)

    def test_tau_strictly_increasing(self, bernoulli_traj, coupled_gas_traj):
        for traj in (bernoulli_traj, coupled_gas_traj):
            assert np.all(np.diff(traj.tau) > 0.0)

    def test_unit_speed_at_samples(self, bernoulli_traj, gaussian_traj):
        for traj in (bernoulli_traj, gaussian_traj):
            assert np.all(np.abs(traj.speed - 1.0) <= 1e-6)

    def test_entropy_monotone(self, bernoulli_traj, gaussian_traj):
        for traj in (bernoulli_traj, gaussian_traj):
            assert np.all(np.diff(traj.S) >= -1e-10)

    def test_samples_carry_recomputed_duals(self, bernoulli, bernoulli_traj):
        t, k = bernoulli_traj, len(bernoulli_traj) // 2
        assert t.lam[k, 0] == pytest.approx(
            math.log((1 - t.A[k, 0]) / t.A[k, 0]), abs=1e-10
        )
        assert t.S[k] == pytest.approx(as_manifold(bernoulli).point(t.A[k]).S, abs=1e-12)
        assert t.sigma[k] == pytest.approx(as_manifold(bernoulli).point(t.A[k]).sigma, abs=1e-12)

    def test_terminal_sigma_lands_in_threshold_window(self, bernoulli, bernoulli_pair):
        # the Bernoulli pair ends at the maximum itself, at sqrt(2) pi/6, as
        # the single family does at pi/6
        traj = integrate(bernoulli_pair, [0.25], tau_max=2.0)
        assert traj.sigma[-1] == 0.0
        assert abs(traj.tau[-1] - math.sqrt(2.0) * math.pi / 6.0) <= 1e-12
        traj = integrate(bernoulli, [0.25], tau_max=2.0)
        assert traj.sigma[-1] == 0.0

    @pytest.mark.parametrize("a0", [-1.0000001e-8, -1.05e-8, -3e-8])
    def test_gaussian_start_near_threshold_lands(self, gaussian, a0):
        # the single Gaussian starts at sigma = |a0|; a flat pair with
        # A_total = 0 has force -2 A and metric 2, so sigma = sqrt(2) |A|
        # and the same sigma starts at A = a0 / sqrt(2), |a0| from the
        # maximum too
        pair = CompositeSystem(gaussian, gaussian, [0.0])
        traj = integrate(pair, [a0 / math.sqrt(2.0)], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert traj.sigma[-1] == 0.0
        assert abs(traj.tau[-1] - abs(a0)) <= 1e-12 * abs(a0)
        # the single Gaussian's ray ends at the maximum, |a0| away
        traj = integrate(gaussian, [a0], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert traj.sigma[-1] == 0.0
        assert abs(traj.tau[-1] - abs(a0)) <= 1e-12 * abs(a0)

    def test_pair_rows_meet_the_closed_form_at_any_spacing(self, bernoulli_pair):
        # over two equal Bernoulli halves arcsin sqrt(A) advances at rate
        # 1 / (2 sqrt 2), so A = sin^2(pi/6 + tau / (2 sqrt 2)) at every row
        for h in (8e-3, 4e-3, 2e-3):
            t = integrate(bernoulli_pair, [0.25], tau_max=0.5, h=h)
            assert abs(t.tau[-1] - 0.5) <= 1e-12
            exact = np.sin(math.pi / 6.0 + t.tau / (2.0 * math.sqrt(2.0))) ** 2
            assert np.max(np.abs(t.A[:, 0] - exact)) <= 1e-12

    def test_reparametrization_covariance(self, bernoulli):
        chart = squared_bernoulli(bernoulli)
        t_a = integrate(bernoulli, [0.25], tau_max=2.0)  # the exact ray
        B_a = chart.forward(t_a.A)  # its rows in the chart
        taus, B = rk4_rows(chart, [0.0625], 1e-3, 2.0)  # RK4 in the chart
        # all three trace A(tau) = sin^2(pi/6 + tau/2) at every row
        assert np.all(np.abs(t_a.A[:, 0] - np.sin(math.pi / 6.0 + 0.5 * t_a.tau) ** 2) <= 1e-12)
        assert np.all(np.abs(np.sqrt(B_a[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * t_a.tau) ** 2) <= 1e-12)
        assert np.all(np.abs(np.sqrt(B[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * taus) ** 2) <= 1e-5)
        assert abs(t_a.tau[-1] - math.pi / 6.0) <= 1e-12

    def test_time_reversal_decreases_entropy(self, bernoulli):
        # backward integration is not a supported mode; trace the flow
        # backwards with the RK4 oracle to check the orientation of the flow
        _, A = rk4_rows(bernoulli, [0.25], -1e-3, 0.1)
        assert len(A) == 101
        assert as_manifold(bernoulli).point(A[-1]).S < as_manifold(bernoulli).point([0.25]).S

    def test_concurrent_trajectories_share_one_family(self, bernoulli):
        # families are immutable: concurrent integrations must agree with
        # serial ones bit for bit
        from concurrent.futures import ThreadPoolExecutor

        starts = [[0.2], [0.3], [0.7], [0.85]]
        serial = [integrate(bernoulli, a, tau_max=2.0) for a in starts]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda a: integrate(bernoulli, a, tau_max=2.0), starts)
            )
        for ts, tt in zip(serial, threaded):
            assert ts.tau[-1] == tt.tau[-1]
            assert np.array_equal(ts.A[-1], tt.A[-1])
            assert len(ts) == len(tt)

    def test_generic_family_relaxes_to_zero_parameter_state(self, rng):
        # for any family the entropy maximum sits at lam = 0, i.e. at
        # A* = <a> at lam = 0: an independent end-state oracle
        from helpers import random_tabulated

        fam = random_tabulated(rng, n_dim=2, n_points=6)
        target = tabulated_mean(fam.weights, fam.stats, np.zeros(2))
        start = tabulated_mean(fam.weights, fam.stats, rng.uniform(-0.8, 0.8, 2))
        traj = integrate(fam, start, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert np.max(np.abs(traj.A[-1] - target)) <= 1e-6
        assert entropy_production_check(traj).max_residual <= 1e-13

    def test_tabulated_terminal_tau_matches_ray_quadrature(self, tabulated_3x50):
        fam, A0, tau_eq = tabulated_3x50
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - tau_eq) <= 1e-12

    @pytest.mark.parametrize("offset, tol", [(1e6, 1e-9), (1e9, 1e-6)])
    def test_offset_statistics_reach_equilibrium(self, offset, tol):
        # a table whose statistics sit far from 0 runs like one at 0: it
        # sums them shifted by the midpoint of their range; unshifted, the
        # 1e9 table's mean rounds at about 1e-7, far above the solver's 1e-10
        weights = [1.0, 1.0, 1.0]
        taus, calls = [], []
        for shift in (0.0, offset):
            fam = TabulatedFamily(weights, [[shift, shift + 1.0, shift + 2.0]])
            nodes = watch_ray_rate(fam)
            traj = integrate(fam, [shift + 0.3], tau_max=5.0)
            assert traj.terminal_status == "equilibrium-reached"
            taus.append(traj.tau[-1])
            calls.append(nodes[0])
        assert abs(taus[1] - taus[0]) <= tol
        assert calls[1] <= 2 * calls[0]

    def test_offset_statistics_do_not_stall_the_quadrature(self):
        # an arclength rate with 1e-10 relative noise, as an unshifted table
        # near 1e6 would round it: no panel gets below the noise, and the
        # absolute panel tolerance still ends the bisection
        fam = TabulatedFamily([1.0, 1.0, 1.0], [[0.0, 1.0, 2.0]])
        clean = integrate(fam, [0.3], tau_max=5.0)
        rng = np.random.default_rng(7)
        watch_ray_rate(fam, noise=lambda n: 1e-10 * rng.standard_normal(n))
        traj = integrate(fam, [0.3], tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - clean.tau[-1]) <= 1e-9

    def test_a_rate_that_never_resolves_exhausts_the_panel_budget(self):
        # relative noise of 1e-3 in the rate has no plateau the chop accepts,
        # so every panel splits until the budget of panels runs out
        fam = TabulatedFamily([1.0, 1.0, 1.0], [[0.0, 1.0, 2.0]])
        rng = np.random.default_rng(3)
        watch_ray_rate(fam, noise=lambda n: 1e-3 * rng.standard_normal(n))
        with pytest.raises(StepCollapseError, match="does not converge in 1000 panels"):
            integrate(fam, [0.3], tau_max=5.0)

    @pytest.mark.parametrize(
        "family, A0",
        [
            (BernoulliFamily(), [0.25]),
            (GaussianMeanFamily(), [-2.0]),
            (GaussianMeanFamily(dim=3), [1.0, -0.5, 2.0]),
        ],
        ids=["bernoulli", "gaussian", "gaussian3"],
    )
    def test_closed_form_ray_reads_one_batched_forward_map(self, monkeypatch, family, A0):
        # the start is closed form, the quadrature reads the arclength-rate
        # kernel, and the rows, the speed at the maximum included, come from
        # one batched call of the forward map
        calls = count_calls(monkeypatch, type(family), ("natural_states",))
        traj = integrate(family, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert calls["natural_states"] == 1

    def test_table_ray_work_per_row(self, monkeypatch, tabulated_3x50):
        # at most 4 kernel nodes per row, the panels of the table of tau
        # included, and no per-row forward map: every natural_states call is
        # one of the start's Newton solve, but for one batched call for the
        # rows
        fam, A0, _ = tabulated_3x50
        fam = TabulatedFamily(fam.weights, fam.stats)  # a copy to watch
        calls = count_calls(monkeypatch, TabulatedFamily, ("natural_states",))
        as_manifold(fam).point(A0)
        at_start = calls["natural_states"]
        calls["natural_states"] = 0
        nodes = watch_ray_rate(fam)
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert nodes[0] <= 4 * len(traj)
        assert calls["natural_states"] == at_start + 1

    def test_table_ray_memory_stays_within_a_megabyte(self):
        # kernel and state temporaries hold at most 2^14 table entries each
        rng = np.random.default_rng(5000)
        weights, stats = rng.uniform(0.5, 2.0, 5000), rng.normal(size=(3, 5000))
        lam0 = 0.3 * np.array([0.6, -0.8, 0.0])
        fam = TabulatedFamily(weights, stats)
        A0 = tabulated_mean(weights, stats, lam0)
        tracemalloc.start()
        try:
            traj = integrate(fam, A0, tau_max=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.terminal_status == "equilibrium-reached"
        assert peak < 1 << 20

    def test_binned_table_ray_ends_at_the_exact_tau(self):
        # a 3x5000 table whose ray is binned: the rows come from per-bin
        # Taylor moments, and the run still ends at the quadrature's tau_eq
        rng = np.random.default_rng(15)
        weights, stats = rng.uniform(0.5, 2.0, 5000), rng.normal(size=(3, 5000))
        lam0 = 0.25 * np.array([0.48, 0.6, -0.64])
        fam = TabulatedFamily(weights, stats)
        assert isinstance(fam.ray(lam0), _BinnedRay)
        traj = integrate(fam, tabulated_mean(weights, stats, lam0), tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - tabulated_ray_tau(weights, stats, lam0, 0.0)[0][0]) <= 1e-12
        assert np.max(np.abs(traj.speed - 1.0)) <= 1e-12
        assert entropy_production_check(traj).max_residual <= 1e-13

    def test_tabulated_run_solves_once(self, tabulated_3x50, monkeypatch):
        # a single family is sampled on the ray: one Legendre inversion at
        # the start, then forward maps only
        solves = []
        solve_lambda = duality.solve_lambda

        def counting_solve(*args, **kwargs):
            solves.append(None)
            return solve_lambda(*args, **kwargs)

        monkeypatch.setattr(duality, "solve_lambda", counting_solve)
        fam, A0, _ = tabulated_3x50
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert len(solves) == 1

    @pytest.mark.parametrize("system", ["bernoulli", "tabulated_3x50", "bernoulli_pair"])
    def test_a_point_of_the_system_starts_the_same_run(self, request, monkeypatch, system):
        # a ManifoldPoint that the system made is the start itself: the run
        # is the one from its mean, and no point is made again
        system = request.getfixturevalue(system)
        if isinstance(system, tuple):
            system, A0 = system[:2]
        else:
            A0 = [0.25]
        want = integrate(system, A0, tau_max=2.0)
        pt = as_manifold(system).point(A0)
        made = []
        for cls in (FamilyManifold, CompositeSystem):
            point = cls.point
            monkeypatch.setattr(cls, "point",
                                lambda self, A, _point=point: made.append(A) or _point(self, A))
        got = integrate(system, pt, tau_max=2.0)
        assert made == []
        for field in dataclasses.fields(want):
            a, b = getattr(want, field.name), getattr(got, field.name)
            assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b, field.name

    def test_fixed_n_gas_rows_are_the_closed_form_grid(self):
        # the gas's entropy has no maximum and, with N fixed, sigma is
        # sqrt(1.5 N) all along the ray, so E = E0 exp(tau / sqrt(1.5 N));
        # the run ends at tau_max with the tau_max / h + 1 rows MAX_SAMPLES
        # counts on
        traj = integrate(IdealGasFamily(2.0, fixed_n=1.0), [1.0], tau_max=50.0, h=0.5)
        assert traj.terminal_status == "tau-budget-exhausted"
        assert len(traj) == 101 and traj.tau[-1] == 50.0
        assert np.max(np.abs(traj.A[:, 0] / np.exp(traj.tau / math.sqrt(1.5)) - 1.0)) <= 1e-13

    def test_gas_rows_meet_rk4_and_the_quadrature_of_its_rate(self, ideal_gas):
        # f(t)^2 = N(t) (3.75 / t^2 + 3 lam_N / t + lam_N^2) along lam = t lam0,
        # with N(t) = V (1.5 / (t lam_E))^1.5 exp(-t lam_N)
        A0 = [1.0, 0.5]
        traj = integrate(ideal_gas, A0, tau_max=2.0)
        assert traj.terminal_status == "tau-budget-exhausted" and len(traj) == 2001
        taus, rows = rk4_rows(ideal_gas, A0, 1e-3, 2.0)
        assert np.array_equal(taus, traj.tau)
        assert np.max(np.abs(traj.A / rows - 1.0)) <= 1e-12
        lam_e, lam_n = 1.5 * 0.5 / 1.0, math.log(2.0 / 0.5) + 1.5 * math.log(1.0 / 0.5)

        def states(t):
            number = ideal_gas.volume * (1.5 / (t * lam_e)) ** 1.5 * math.exp(-t * lam_n)
            rate = math.sqrt(number * (3.75 / t**2 + 3.0 * lam_n / t + lam_n**2))
            return np.array([1.5 * number / (t * lam_e), number]), rate

        for k in range(50, len(traj), 50):
            t = 1.0
            for _ in range(8):  # Newton's method on tau(t) = int_t^1 f
                t += (quad(lambda s: states(s)[1], t, 1.0, epsabs=0.0, epsrel=1e-13)[0]
                      - traj.tau[k]) / states(t)[1]
            assert np.max(np.abs(traj.A[k] / states(t)[0] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
    def test_bernoulli_terminal_tau_is_exact_at_any_spacing(self, bernoulli, h):
        traj = integrate(bernoulli, [0.25], tau_max=2.0, h=h)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - math.pi / 6.0) <= 1e-12

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_equilibrium_just_past_a_grid_row(self, request, family):
        # tau_eq lies 1e-12 past the row at 0.5, whose sigma is below
        # 2 SIGMA_EQ: the maximum takes that row's place instead of
        # following it by a sliver
        tau_eq = 0.5 + 1e-12
        if family == "gaussian":
            a0 = -tau_eq  # flat: tau_eq = |a0|
        else:
            a0 = math.sin(0.5 * (0.5 * math.pi - tau_eq)) ** 2  # tau_eq = pi/2 - 2 asin sqrt(a0)
        traj = integrate(request.getfixturevalue(family), [a0], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - tau_eq) <= 1e-14
        assert np.all(np.diff(traj.tau) > 0.0)
        assert np.min(np.diff(traj.tau)) >= 1e-8  # SIGMA_EQ
        assert np.all(traj.sigma[:-1] > 2e-8)
        assert entropy_production_check(traj).max_residual <= 1e-13

    def test_open_table_names_the_t_where_the_rate_fails(self, monkeypatch):
        # the gas's table is in x = 1 - u / span with t = exp(-u); a rate
        # that is NaN below t = 1e-3 first fails at x = 0 of span 8, at
        # t = exp(-8), and the error names that t, not x
        gas = IdealGasFamily(2.0, fixed_n=1.0)
        make_ray = IdealGasFamily.ray

        def failing_ray(self, lam0):
            ray = make_ray(self, lam0)
            inner = ray.rate
            ray.rate = lambda ts: np.where(ts < 1e-3, math.nan, inner(ts))
            return ray

        monkeypatch.setattr(IdealGasFamily, "ray", failing_ray)
        with pytest.raises(SingularModelError, match=r"at t = 0\.000335 on the ray"):
            integrate(gas, [1.0], tau_max=10.0, h=0.5)

    def test_other_state_manifolds_raise_type_error(self):
        class Plain(StateManifold):
            """A manifold with points but no ray."""

            inner = FamilyManifold(BernoulliFamily())
            dim = 1

            def point(self, A):
                return self.inner.point(A)

        with pytest.raises(TypeError, match="Plain"):
            integrate(Plain(), [0.25], tau_max=1.0)


class TestEquilibriumIsTheRaysEnd:
    """sigma goes to 0 at the edges of a state space as well as at the
    maximum, so a small sigma is no sign of equilibrium: only a start with
    sigma = 0 is refused (``test_equilibrium_start_raises``), and only a ray
    that reaches its maximum within tau_max lands."""

    def test_a_bernoulli_start_near_an_edge_reaches_the_maximum(self, bernoulli):
        # sigma = 4.6e-9 at the start, pi/2 from the maximum
        traj = integrate(bernoulli, [1e-20], tau_max=2.0)
        assert traj.sigma[0] < 1e-8
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - (0.5 * math.pi - 2.0 * math.asin(1e-10))) <= 1e-12

    def test_a_budget_that_ends_first_keeps_every_grid_row(self, bernoulli):
        # the first rows have sigma below 2e-8, and sigma rises from there;
        # the budget ends 1.57 short of the maximum, so no row gives way to
        # landing rows
        traj = integrate(bernoulli, [1e-19], tau_max=1e-6, h=1e-10)
        assert traj.sigma[1] < 2e-8 < traj.sigma[-1]
        assert traj.terminal_status == "tau-budget-exhausted"
        assert len(traj) == 10_001
        assert np.all(traj.tau == np.arange(10_001) * 1e-10)
        assert traj.tau[-1] == 1e-6

    def test_a_gas_of_few_particles_runs(self):
        # sigma = sqrt(1.5 N) = 1.2e-9 at the start, and the ideal gas has no
        # maximum: E = E0 exp(tau / sqrt(1.5 N)) at every row
        traj = integrate(IdealGasFamily(1.0, fixed_n=1e-18), [1.0], tau_max=1e-7, h=1e-9)
        assert traj.terminal_status == "tau-budget-exhausted"
        assert traj.tau[-1] == 1e-7
        exact = np.exp(traj.tau / math.sqrt(1.5e-18))
        assert np.max(np.abs(traj.A[:, 0] / exact - 1.0)) <= 1e-13

    def test_a_gaussian_start_just_off_the_maximum_runs(self, gaussian):
        # tau_eq = 5e-9: no row lies between the start and the maximum
        traj = integrate(gaussian, [-5e-9], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert len(traj) == 2
        assert abs(traj.tau[-1] / 5e-9 - 1.0) <= 1e-12


def oracle_t(weights, stats, lam0, taus, tau_eq):
    """The force scale t at which the flow from A(lam0) has run for each
    intrinsic time in ``taus``, by Newton's method on the oracle's tau."""
    t = np.clip(1.0 - np.asarray(taus) / tau_eq, 0.0, 1.0)
    for _ in range(12):
        tau, rate = tabulated_ray_tau(weights, stats, lam0, t)
        t = np.clip(t + (tau - taus) / rate, 0.0, 1.0)
    return t


class TestRayRowsAgainstOracle:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_dim=st.integers(1, 3),
        h=st.sampled_from([0.01, 0.02, 0.03, 0.06, 0.09, 0.1, 0.2, 0.3]),
        budget=st.sampled_from(["past the maximum", "before the maximum", "within one spacing"]),
    )
    def test_rows(self, seed, n_dim, h, budget):
        rng = np.random.default_rng(seed)
        n_points = int(rng.integers(n_dim + 2, 9))
        weights, stats = rng.uniform(0.5, 2.0, n_points), rng.normal(size=(n_dim, n_points))
        fam = TabulatedFamily(weights, stats)
        u = rng.normal(size=n_dim)
        u /= np.linalg.norm(u)
        if budget == "within one spacing":
            # tau_eq is about the rate at the maximum times the scale of lam0
            rate = math.sqrt(float(u @ tabulated_states(weights, stats, [0.0 * u])[2][0] @ u))
            lam0 = rng.uniform(0.1, 0.9) * h / rate * u
        else:
            lam0 = rng.uniform(0.3, 1.5) * u
        tau_eq = tabulated_ray_tau(weights, stats, lam0, 0.0)[0][0]
        tau_max = tau_eq * rng.uniform(0.3, 0.9) if budget == "before the maximum" else tau_eq + 1.0
        traj = integrate(fam, tabulated_mean(weights, stats, lam0), tau_max=tau_max, h=h)

        # every row's state is the oracle's at the oracle's t(tau)
        t = oracle_t(weights, stats, lam0, traj.tau, tau_eq)
        want = tabulated_states(weights, stats, np.multiply.outer(t, lam0))[0]
        assert np.max(np.abs(traj.A - want)) <= 1e-12
        if budget == "before the maximum":
            assert traj.terminal_status == "tau-budget-exhausted"
            assert traj.tau[-1] == tau_max
            grid = len(traj) - 2
        else:
            assert traj.terminal_status == "equilibrium-reached"
            assert abs(traj.tau[-1] - tau_eq) <= 1e-12
            assert traj.sigma[-1] == 0.0 and np.all(traj.sigma[:-1] > 2e-8)
            grid = math.ceil(tau_eq / h) - 1
            # the landing rows halve t, so lam and, near the maximum, sigma
            landing = slice(grid, len(traj) - 1)
            assert np.array_equal(traj.lam[landing][1:], 0.5 * traj.lam[landing][:-1])
            sigma = traj.sigma[landing]
            assert np.all(np.abs(sigma[1:] / sigma[:-1] - 0.5) <= 0.1)
            assert sigma[-1] <= 4.4e-8
        # grid rows sit at exactly k * h
        assert np.array_equal(traj.tau[1:grid + 1], np.arange(1, grid + 1) * h)


class TestMetamorphicRelations:
    """Changes to a seeded 3x50 table that leave its states alone leave its
    run's rows alone, to rounding."""

    @staticmethod
    def worst(run, other):
        """The largest change of tau, A, lam, sigma or speed between two runs."""
        return max(float(np.max(np.abs(getattr(run, name) - getattr(other, name))))
                   for name in ("tau", "A", "lam", "sigma", "speed"))

    def test_scaled_weights_shift_only_the_entropy(self):
        # every weight times 7 multiplies Z by 7 at every lam, so the states
        # and the metric keep their values and S = log Z - lam . A gains ln 7
        fam, A0 = seeded_table(1, 50)
        run = integrate(fam, A0, tau_max=10.0)
        scaled = integrate(OracleTable(7.0 * fam.weights, fam.stats), A0, tau_max=10.0)
        assert len(scaled) == len(run) and scaled.terminal_status == run.terminal_status
        assert self.worst(run, scaled) <= 1e-14
        assert np.max(np.abs(scaled.S - run.S - math.log(7.0))) <= 1e-14

    def test_a_point_split_in_two_halves_changes_no_row(self):
        # two points with half its weight and its statistics sum as the one
        fam, A0 = seeded_table(2, 50)
        w, stats = fam.weights, fam.stats
        split = OracleTable(np.concatenate([0.5 * w[:1], 0.5 * w[:1], w[1:]]),
                            np.concatenate([stats[:, :1], stats], axis=1))
        run, parts = integrate(fam, A0, tau_max=10.0), integrate(split, A0, tau_max=10.0)
        assert len(parts) == len(run) and parts.terminal_status == run.terminal_status
        assert self.worst(run, parts) <= 1e-14
        assert np.max(np.abs(parts.S - run.S)) <= 1e-14

    @pytest.mark.parametrize("n_points", [50, 5000], ids=["direct", "binned"])
    def test_affine_recoding_maps_the_rows(self, n_points):
        # statistics a -> M a + c, from M A0 + c: each point keeps its
        # probability, since lam' = M^-T lam gives lam' . (M a + c) = lam . a
        # + lam' . c, so tau, sigma and S stay; A maps as the statistics and
        # lam by M^-T; speed inverts g, whose error M's conditioning amplifies
        fam, A0 = seeded_table(9, n_points)
        rng = np.random.default_rng(90)
        M, c = rng.normal(size=(3, 3)) + 2.0 * np.eye(3), rng.normal(size=3)
        run = integrate(fam, A0, tau_max=10.0)
        recoded = integrate(OracleTable(fam.weights, M @ fam.stats + c[:, None]), M @ A0 + c,
                            tau_max=10.0)
        assert len(recoded) == len(run) and recoded.terminal_status == run.terminal_status
        mapped = {"tau": run.tau, "sigma": run.sigma, "S": run.S, "A": run.A @ M.T + c,
                  "lam": run.lam @ np.linalg.inv(M), "speed": run.speed}
        for name, want in mapped.items():
            bound = 1e-13 if name == "speed" else 1e-14
            assert np.max(np.abs(getattr(recoded, name) - want)) <= bound, name


#: The entropy check's bound, about 450 ulps: the residual of a run whose
#: rate and states agree is rounding.
ENTROPY_BOUND = 1e-13


def natural_states_with_entropy_offset(monkeypatch, family_class, offset):
    """Add ``offset`` to every S that ``family_class.natural_states`` gives,
    which moves the rows' S and not the start's, made by ``legendre``."""
    natural_states = family_class.natural_states

    def shifted(self, lams):
        A, S, cov = natural_states(self, lams)
        return A, S + offset, cov

    monkeypatch.setattr(family_class, "natural_states", shifted)


class TestEntropyProduction:
    """S_k - S_0 against the table's integral of sigma dtau at every row."""

    def test_bernoulli_within_contract(self, bernoulli_traj):
        report = entropy_production_check(bernoulli_traj)
        assert report.max_residual <= ENTROPY_BOUND

    def test_gaussian_tight(self, gaussian_traj):
        report = entropy_production_check(gaussian_traj)
        assert report.max_residual <= ENTROPY_BOUND

    def test_a_two_row_run_is_checked(self, bernoulli):
        # tau_eq is about 1.5e-8, so the run is its start and the maximum
        traj = integrate(bernoulli, [0.5000000075], tau_max=2.0)
        assert len(traj) == 2 and traj.terminal_status == "equilibrium-reached"
        report = entropy_production_check(traj)
        assert report.max_residual <= ENTROPY_BOUND and report.argmax_tau in traj.tau.tolist()

    def test_the_residual_is_relative_to_the_larger_of_one_and_S(self):
        # S = 0.5, 3, 10 after the start, with gains off by 1e-3, 3e-3 and
        # 0: the residuals are 1e-3 (|S| < 1 reads absolute), 1e-3 and 0
        tau = np.array([0.0, 1.0, 2.0, 3.0])
        S = np.array([0.25, 0.5, 3.0, 10.0])
        gain = S - S[0] + np.array([0.0, 1e-3, 3e-3, 0.0])
        traj = synthetic_trajectory(tau, tau, tau, S, np.ones(4), entropy_gain=gain)
        report = entropy_production_check(traj)
        assert report.residuals == pytest.approx([0.0, 1e-3, 1e-3, 0.0], abs=1e-15)
        assert report.residuals[0] == 0.0 and report.residuals[3] == 0.0
        assert report.max_residual == max(report.residuals)
        assert report.argmax_tau in (1.0, 2.0)

    def test_the_residual_is_relative_to_S_0_and_the_gain_too(self):
        # S - S_0 - gain rounds at the scale of the largest of its terms:
        # here |S_0| = 1e6 at row 1, and the gain, 1000002.5, at row 2
        tau = np.array([0.0, 1.0, 2.0])
        S = np.array([-1e6, -10.0, 0.5])
        gain = S - S[0] + np.array([0.0, 1.0, 2.0])
        traj = synthetic_trajectory(tau, tau, tau, S, np.ones(3), entropy_gain=gain)
        report = entropy_production_check(traj)
        assert report.residuals == (0.0, 1.0 / 1e6, 2.0 / 1000002.5)
        assert report.max_residual == 2.0 / 1000002.5 and report.argmax_tau == 2.0

    def test_a_far_gaussian_start_is_within_the_bound(self, gaussian2):
        # S_0 = -1.1e6 and S at the maximum is 1.8, so S - S_0 - gain
        # rounds at |S_0|: divided by max(1, |S_k|) alone it read 1.3e-10
        traj = integrate(gaussian2, [-1062.8, 1040.3], tau_max=2000.0, h=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert entropy_production_check(traj).max_residual <= ENTROPY_BOUND

    def test_landing_rows_do_not_set_the_gaussian_residual(self, gaussian_traj):
        # the landing rows, down to sigma = 2e-8, and the maximum hold the
        # identity as the grid rows do
        landing = np.flatnonzero(np.diff(gaussian_traj.tau) < 1e-3)
        assert landing.size
        report = entropy_production_check(gaussian_traj)
        assert max(report.residuals[k + 1] for k in landing) <= ENTROPY_BOUND

    def test_whole_array_residuals_equal_per_row_floats(self, tabulated_3x50):
        # the check takes one whole-array residual over the rows; on a table
        # run, landing rows included, each is bit for bit the residual
        # evaluated on that row's Python floats
        fam, A0, _ = tabulated_3x50
        traj = integrate(fam, A0, tau_max=5.0)
        report = entropy_production_check(traj)
        S, gain = traj.S.tolist(), traj.entropy_gain.tolist()
        want = [abs(s - S[0] - g) / max(1.0, abs(s), abs(S[0]), abs(g)) for s, g in zip(S, gain)]
        assert report.residuals == tuple(want)
        worst = int(np.argmax(want))
        assert report.max_residual == want[worst] and report.argmax_tau == traj.tau[worst]

    @pytest.mark.parametrize("case", ["direct", "binned", "table-pair", "gas", "bernoulli-pair"])
    def test_a_run_is_within_the_bound(self, case):
        # the shipped runs are held to the bound in test_acceptance's c04
        if case in ("direct", "binned"):
            system, A0 = seeded_table(3, 50 if case == "direct" else 5000)
            assert isinstance(system.ray(np.full(3, 0.1)), _BinnedRay) == (case == "binned")
        elif case == "table-pair":
            (first, A0), (second, B0) = seeded_table(4, 50), seeded_table(5, 40)
            system = CompositeSystem(first, second, A0 + B0 - 0.1)
        elif case == "gas":  # E and N, on the open table in x
            system, A0 = IdealGasFamily(volume=1.0), [1.0, 1.0]
        else:
            system, A0 = CompositeSystem(BernoulliFamily(), BernoulliFamily(), [1.0]), [1e-12]
        traj = integrate(system, A0, tau_max=10.0)
        assert entropy_production_check(traj).max_residual <= ENTROPY_BOUND

    @pytest.mark.parametrize("case", ["rate", "bernoulli-S", "pair-S"])
    def test_a_rate_or_states_off_by_a_little_exceed_the_bound(self, monkeypatch, case):
        # the rate times 1 + 1e-9 moves the gain by about 2.6e-10, and S off
        # by 1e-12 at the rows moves S - S_0 by 1e-12, or 2e-12 for a pair;
        # a difference stencil reads 1.2e-7 to 1.8e-7 with or without them
        family = BernoulliFamily()
        if case == "rate":
            watch_ray_rate(family, noise=lambda n: 1e-9)
        else:
            natural_states_with_entropy_offset(monkeypatch, BernoulliFamily, 1e-12)
        system = family if case != "pair-S" else CompositeSystem(family, family, [1.0])
        traj = integrate(system, [0.25], tau_max=2.0)
        assert entropy_production_check(traj).max_residual > ENTROPY_BOUND

    def test_the_heat_pair_with_vessel_2_nearly_empty_is_within_the_bound(self, gas_e_only_pair):
        # l' = 1.5 / (A_T - A) is about 1.5e12 here: a rounding bound that
        # weighs subsystem 1's covariance by |l'| too lets rows whose
        # residual is not rounding take the first-order step, 7.3e-9 off
        traj = integrate(gas_e_only_pair, [3.999999999999], tau_max=1.0)
        assert entropy_production_check(traj).max_residual <= ENTROPY_BOUND

    @pytest.mark.xfail(strict=True, reason="the near-empty heat pair's rows take S_T off by "
                       "up to 3.2e-7: PairRay accepts a first-order row step whose residual "
                       "carries l's cancellation (ROADMAP item 2)")
    def test_the_near_empty_heat_pair_is_within_the_bound(self, gas_e_only_pair):
        traj = integrate(gas_e_only_pair, [1e-12], tau_max=1.0)
        assert entropy_production_check(traj).max_residual <= ENTROPY_BOUND

    @pytest.mark.xfail(strict=True, reason="the open table is one panel of u in [0, 4], "
                       "over which the gain grows to 5.6e3, so the gain near the start rounds "
                       "at that scale, 7e-13, against S of about 2.5")
    def test_a_long_gas_run_is_within_the_bound(self, ideal_gas):
        traj = integrate(ideal_gas, [1.0, 0.5], tau_max=20.0, h=0.05)
        assert entropy_production_check(traj).max_residual <= ENTROPY_BOUND


class TestClockInvert:
    def test_against_arclength_oracle(self, bernoulli_traj):
        for target in (0.3, 0.4, 0.45):
            tau = clock_invert(bernoulli_traj, 0, target)
            assert tau == pytest.approx(bernoulli_arclength(0.25, target), abs=1e-6)

    def test_increasing_component(self, gaussian_traj):
        # gaussian A rises linearly from -2, so the state is a perfect clock
        tau = clock_invert(gaussian_traj, 0, -1.0)
        assert tau == pytest.approx(1.0, abs=1e-9)

    def test_decreasing_component(self):
        traj = synthetic_trajectory(
            [0.0, 0.5, 1.0],
            [[0.9], [0.6], [0.1]],
            [[1.0]] * 3,
            [0.1, 0.2, 0.3],
            [1.0, 1.0, 1.0],
        )
        assert clock_invert(traj, 0, 0.6) == pytest.approx(0.5, abs=1e-12)
        assert clock_invert(traj, 0, 0.35) == pytest.approx(0.75, abs=1e-12)

    def test_out_of_range(self, bernoulli_traj):
        with pytest.raises(ValueError):
            clock_invert(bernoulli_traj, 0, 0.8)

    def test_non_monotone_component(self):
        traj = synthetic_trajectory(
            [0.0, 0.1, 0.2],
            [[0.1], [0.3], [0.2]],
            [[1.0]] * 3,
            [0.1, 0.2, 0.3],
            [1.0, 1.0, 1.0],
        )
        with pytest.raises(MonotonicityError):
            clock_invert(traj, 0, 0.15)


def watch_pair_work(monkeypatch):
    """Counters of the nodes a ``PairRay``'s rate is asked for, of the
    node-rows its Newton solve evaluates, and of the batched evaluations
    each call of its rate makes."""
    work = {"nodes": 0, "evaluated": 0, "evaluations": 0, "per_rate_call": []}
    rate, evaluate = PairRay.rate, PairRay._evaluate

    def counting_rate(self, ts):
        work["nodes"] += len(ts)
        before = work["evaluations"]
        out = rate(self, ts)
        work["per_rate_call"].append(work["evaluations"] - before)
        return out

    def counting_evaluate(self, l, *args, **kwargs):
        work["evaluated"] += len(l)
        work["evaluations"] += 1
        return evaluate(self, l, *args, **kwargs)

    monkeypatch.setattr(PairRay, "rate", counting_rate)
    monkeypatch.setattr(PairRay, "_evaluate", counting_evaluate)
    return work


def watch_place(monkeypatch):
    """The Clenshaw passes over the series that each call of
    ``_RayTable.place`` makes, one count per call."""
    passes, inside = [], [False]
    clenshaw, place = chebyshev.clenshaw, _RayTable.place

    def counting_clenshaw(coeffs, s):
        if inside[0]:
            passes[-1] += 1
        return clenshaw(coeffs, s)

    def counting_place(self, targets):
        passes.append(0)
        inside[0] = True
        try:
            return place(self, targets)
        finally:
            inside[0] = False

    monkeypatch.setattr(chebyshev, "clenshaw", counting_clenshaw)
    monkeypatch.setattr(_RayTable, "place", counting_place)
    return passes


class TestRayWork:
    """A run's table of tau takes a few Chebyshev panels of rate nodes,
    whatever its row count, its rows are placed in two passes over the
    series, and a pair's rows cost about one evaluation."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_a_shipped_run_takes_at_most_150_rate_nodes(self, monkeypatch, name):
        cfg = parse_config(catalog_path(name))
        system = build_system(cfg)
        if cfg.mode == "single":
            nodes = watch_ray_rate(system)
        else:
            work = watch_pair_work(monkeypatch)
        traj = integrate(system, cfg.A0, tau_max=cfg.tau_max, h=cfg.h)
        assert traj.terminal_status == "equilibrium-reached" and len(traj) > 500
        assert (nodes[0] if cfg.mode == "single" else work["nodes"]) <= 150

    @pytest.mark.parametrize("seed, n_points", [(1, 50), (2, 50), (1, 5000), (2, 5000)])
    def test_a_table_run_takes_at_most_150_rate_nodes(self, seed, n_points):
        fam, A0 = seeded_table(seed, n_points)
        nodes = watch_ray_rate(fam)
        traj = integrate(fam, A0, tau_max=10.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert nodes[0] <= 150

    @pytest.mark.parametrize("name", ["bernoulli-coupled", "two-vessel-gas-EN",
                                      "two-vessel-gas-E-only"])
    def test_a_pair_row_costs_about_one_evaluation(self, monkeypatch, name):
        # each row starts from the Chebyshev series of l over its panel's
        # solved nodes and is accepted at its first residual
        cfg = parse_config(catalog_path(name))
        work = watch_pair_work(monkeypatch)
        traj = integrate(build_system(cfg), cfg.A0, tau_max=cfg.tau_max, h=cfg.h)
        rows = len(traj) - 1  # the start is the pair's one point
        assert work["evaluated"] <= 1.3 * (rows + work["nodes"])

    @pytest.mark.parametrize("name", catalog_names())
    def test_a_shipped_run_places_its_rows_in_two_series_passes(self, monkeypatch, name):
        # the Hermite start lands within about 1e-8 in s, so the first
        # Newton step already meets the stop rule and the second polishes
        cfg = parse_config(catalog_path(name))
        passes = watch_place(monkeypatch)
        integrate(build_system(cfg), cfg.A0, tau_max=cfg.tau_max, h=cfg.h)
        assert passes and max(passes) <= 2

    @pytest.mark.parametrize("seed, n_points", [(1, 50), (2, 50), (1, 5000), (2, 5000)])
    def test_a_table_run_places_its_rows_in_two_series_passes(self, monkeypatch, seed, n_points):
        fam, A0 = seeded_table(seed, n_points)
        passes = watch_place(monkeypatch)
        integrate(fam, A0, tau_max=10.0)
        assert passes and max(passes) <= 2

    @pytest.mark.parametrize("name, most", [("bernoulli-coupled", 2), ("two-vessel-gas-EN", 6),
                                            ("two-vessel-gas-E-only", 6)])
    def test_a_pair_starts_its_first_panel_on_the_tangent(self, monkeypatch, name, most):
        # the symmetric Bernoulli pair's l(t) = t F0 / 2 is its tangent, so
        # its nodes take a start and a polishing evaluation
        cfg = parse_config(catalog_path(name))
        work = watch_pair_work(monkeypatch)
        integrate(build_system(cfg), cfg.A0, tau_max=cfg.tau_max, h=cfg.h)
        assert work["per_rate_call"][0] <= most

    def test_the_tangent_start_is_second_order_in_one_minus_t(self):
        # the start is l(1) + (t - 1) dl/dt: against the solved l, its error
        # falls fourfold when 1 - t halves, where a wrong slope's would halve
        cfg = parse_config(catalog_path("two-vessel-gas-EN"))
        system = build_system(cfg)
        ray = PairRay(system, system.point(cfg.A0))
        ts = 1.0 - np.array([2e-3, 1e-3])
        start = ray._start(ts)
        solved, _ = ray.solve(ts, rows=True)
        error = np.max(np.abs(start - solved), axis=1)
        assert 3.5 <= error[0] / error[1] <= 4.5

    def test_rows_form_the_step_ahead_only_at_their_start(self, monkeypatch):
        # rows started off their solution take Newton trial steps; only the
        # first evaluation of a run forms what one more step would give
        cfg = parse_config(catalog_path("two-vessel-gas-EN"))
        system = build_system(cfg)
        ray = PairRay(system, system.point(cfg.A0))
        ts = np.linspace(0.2, 0.9, 8)
        want, want_state = ray.solve(ts, rows=True)
        start, evaluate, ahead = ray._start, PairRay._evaluate, []

        def recording_evaluate(self, *args, **kwargs):
            state, finite = evaluate(self, *args, **kwargs)
            ahead.append("A_next" in state)
            return state, finite

        monkeypatch.setattr(ray, "_start", lambda t: start(t) * (1.0 + 1e-3))
        monkeypatch.setattr(PairRay, "_evaluate", recording_evaluate)
        l, state = ray.solve(ts, rows=True)
        assert len(ahead) > 2 and ahead == [True] + [False] * (len(ahead) - 1)
        assert np.max(np.abs(l - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(state["A"] - want_state["A"])) <= 1e-12

    def test_clenshaw_meets_chebval_on_every_point_series(self):
        # each point has its own series, as each row has its panel's
        rng = np.random.default_rng(20)
        coeffs = rng.normal(size=(34, 2, 300)) * 0.7 ** np.arange(34)[:, None, None]
        s = rng.uniform(-1.0, 1.0, 300)
        want = np.array([[np.polynomial.chebyshev.chebval(x, coeffs[:, c, i])
                          for i, x in enumerate(s)] for c in range(2)])
        got = chebyshev.clenshaw(coeffs, s)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 4.0 * np.spacing(np.max(np.abs(want)))

    @pytest.mark.parametrize("points", [300, 1], ids=["own-points", "shared-point-axis"])
    def test_clenshaw_is_the_plain_recurrence_bit_for_bit(self, points):
        # one point per series, or series with a point axis of 1 that every
        # point shares, as the table sums its panels' points
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=(34, 3, points)) * 0.7 ** np.arange(34)[:, None, None]
        s = rng.uniform(-1.0, 1.0, 300)
        x = 2.0 * s
        b1 = b2 = np.zeros(np.broadcast_shapes(coeffs.shape[1:], s.shape))
        for c in coeffs[:0:-1]:
            b1, b2 = c + x * b1 - b2, b1
        want = coeffs[0] + 0.5 * x * b1 - b2
        got = chebyshev.clenshaw(coeffs, s)
        assert got.shape == want.shape == (3, 300)
        assert np.array_equal(got, want)

    def test_the_table_meets_the_bernoulli_closed_form_at_its_rows(self):
        # tau(t) = 2 (asin sqrt(A(t)) - asin(1/2)), A(t) = 1 / (1 + 3^t), and
        # the entropy gained from t = 1 is S(A(t)) - S(1/4)
        lam0 = math.log(3.0)
        table = _RayTable(BernoulliFamily().ray([lam0]).rate)
        assert abs(table.tau_eq - math.pi / 6.0) <= 1e-15
        targets = np.arange(1, 524) * 1e-3
        ts, _, gains = table.place(targets)
        A = 1.0 / (1.0 + np.exp(ts * lam0))
        exact = 2.0 * (np.arcsin(np.sqrt(A)) - math.asin(0.5))
        assert np.max(np.abs(exact - targets)) <= 1e-15
        assert np.max(np.abs(table.at(ts)[0] - exact)) <= 1e-15

        def entropy(A):
            return -A * np.log(A) - (1.0 - A) * np.log1p(-A)

        assert np.max(np.abs(gains - (entropy(A) - entropy(0.25)))) <= 1e-15
        assert abs(table.gain_eq - (math.log(2.0) - entropy(0.25))) <= 1e-15


class TestCsvExport:
    def test_single_system_layout(self, bernoulli_traj):
        buf = io.StringIO()
        write_trajectory_csv(bernoulli_traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "tau,A_1,lambda_1,S,sigma,speed"
        assert len(lines) == len(bernoulli_traj) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.25
        # 17 significant digits survive a round trip
        mid = lines[len(lines) // 2].split(",")
        k = len(lines) // 2 - 1
        assert float(mid[1]) == bernoulli_traj.A[k, 0]
        assert float(mid[3]) == bernoulli_traj.S[k]

    def test_cells_are_format_17g_at_the_edges(self):
        # the kernel leaves these to "%.17g", which is format(x, ".17g")
        values = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        traj = synthetic_trajectory(values, values, values, values, values)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        for line, x in zip(buf.getvalue().splitlines()[1:], values):
            assert line.split(",") == [format(x, ".17g")] * 5 + [format(1.0, ".17g")]

    def test_coupled_layout(self, coupled_gas_traj):
        buf = io.StringIO()
        write_trajectory_csv(coupled_gas_traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "tau,A_1,A_2,Aprime_1,Aprime_2,lambda_1,lambda_2,"
            "lambdaprime_1,lambdaprime_2,S_T,sigma,conservation_residual"
        )
        cells = lines[1].split(",")
        assert len(cells) == 12
        assert float(cells[1]) == 1.0
        assert float(cells[3]) == 3.0

    @staticmethod
    def assert_cells_are_format_17g(columns):
        traj = synthetic_trajectory(*columns)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        want = ["tau,A_1,lambda_1,S,sigma,speed"] + [
            ",".join(format(float(x), ".17g") for x in row) for row in zip(*columns, traj.speed)
        ]
        assert buf.getvalue() == "\n".join(want) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), rows=st.integers(1, 5))
    def test_kernel_writes_what_format_17g_writes(self, data, rows):
        # every cell is the per-value format(x, ".17g"); the draws reach each
        # branch of the kernel's layout and each cell it leaves to "%.17g"
        columns = [data.draw(st.lists(CELLS, min_size=rows, max_size=rows)) for _ in range(5)]
        self.assert_cells_are_format_17g(columns)

    def test_rounding_edges_are_format_17g(self):
        # exact ties: 18 significant digits, the last a 5, which "%.17g"
        # rounds half to even
        ties = [tie_17g(k, m) for k in range(5, 26) for m in (0.0, 0.5, 1.0)]
        digits = [decimal.Decimal(x).as_tuple().digits for x in ties]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)
        # doubles less than 5e-18 below a power of ten: their 17 digits
        # round up to it, and the exponent carries
        carries = [1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e129, 1e220]
        assert all(decimal.Decimal(x) < decimal.Decimal(10) ** round(math.log10(x)) for x in carries)
        cells = ties + carries
        self.assert_cells_are_format_17g([cells, cells[::-1], [-x for x in cells], cells, cells])

    def test_a_seeded_table_over_ten_to_the_300_is_format_17g(self):
        # 200,000 cells, well over one kernel call of _g17.CHUNK cells
        rng = np.random.default_rng(24)
        n = 40_000
        columns = [rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.uniform(-300, 300, n)
                   for _ in range(5)]
        self.assert_cells_are_format_17g(columns)
