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
    ReparametrizedManifold,
    SingularModelError,
    StepCollapseError,
    TooFewSamplesError,
    as_manifold,
    clock_invert,
    entropy,
    entropy_production_check,
    integrate,
    sigma,
    unit_velocity,
    write_trajectory_csv,
)
from entroflow import duality
from entroflow.cli import build_system, catalog_names, catalog_path, parse_config
from entroflow.coupled import PairRay
from entroflow.family import DiscreteSpace, TabulatedFamily, _BinnedRay
from entroflow.flow import _RayTable
from entroflow.geometry import StateManifold
from helpers import (
    count_calls,
    identity_chart,
    rk4_rows,
    synthetic_trajectory,
    tabulated_equilibrium_tau,
    tabulated_mean,
    tabulated_ray_tau,
    tabulated_states,
)


@pytest.fixture(scope="module")
def tabulated_3x50():
    """A seeded 3 x 50 tabulated family, a start A(lam0) and its tau_eq oracle."""
    rng = np.random.default_rng(50)
    weights, stats = rng.uniform(0.5, 2.0, 50), rng.normal(size=(3, 50))
    lam0 = rng.normal(0.0, 0.2, 3)
    fam = TabulatedFamily(DiscreteSpace(list(range(50)), weights), stats)
    return (
        fam,
        tabulated_mean(weights, stats, lam0),
        tabulated_equilibrium_tau(weights, stats, lam0),
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
        assert entropy(bernoulli, [0.25 + 1e-4 * got]) > entropy(bernoulli, [0.25])

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
                assert abs(v @ pt.metric.g @ v - 1.0) <= 1e-12

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

    def test_equilibrium_start_raises(self, bernoulli):
        with pytest.raises(AtEquilibriumError):
            integrate(bernoulli, [0.5], tau_max=1.0)

    @pytest.mark.parametrize(
        "setting",
        [dict(tau_max=math.nan), dict(tau_max=0.0), dict(tau_max=-1.0),
         dict(h=math.nan), dict(h=0.0), dict(h=-1e-3), dict(h=math.inf),
         dict(sigma_eq=math.nan), dict(sigma_eq=0.0), dict(sigma_eq=-1.0)],
        ids=lambda setting: "{}={}".format(*next(iter(setting.items()))),
    )
    @pytest.mark.parametrize(
        "system, A0", [("bernoulli", [0.25]), ("bernoulli_pair", [0.25]), ("ideal_gas", [1.0, 0.5])]
    )
    def test_settings_that_are_nan_or_not_positive_raise(self, request, system, A0, setting):
        # on a single family sigma_eq = nan or -1 used to halve the landing
        # rows forever, and h = nan on a pair returned a few rows
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
        assert t.S[k] == pytest.approx(entropy(bernoulli, t.A[k]), abs=1e-12)
        assert t.sigma[k] == pytest.approx(sigma(bernoulli, t.A[k]), abs=1e-12)

    def test_terminal_sigma_lands_in_threshold_window(self, bernoulli, bernoulli_pair):
        # a chart's run is its base's, so a chart of the Bernoulli pair ends
        # at the maximum itself, at sqrt(2) pi/6, as the single family does
        # at pi/6; like a chart's points, its rows have no subsystem-2 columns
        chart = identity_chart(bernoulli_pair)
        for sigma_eq in (1e-6, 1e-8):
            traj = integrate(chart, [0.25], tau_max=2.0, sigma_eq=sigma_eq)
            assert traj.sigma[-1] == 0.0
            assert abs(traj.tau[-1] - math.sqrt(2.0) * math.pi / 6.0) <= 1e-12
            assert traj.A_prime is None and traj.lam_prime is None
            traj = integrate(bernoulli, [0.25], tau_max=2.0, sigma_eq=sigma_eq)
            assert traj.sigma[-1] == 0.0

    @pytest.mark.parametrize("a0", [-1.0000001e-8, -1.05e-8, -3e-8])
    def test_gaussian_start_near_threshold_lands(self, gaussian, a0):
        # the single Gaussian starts at sigma = |a0|; a flat pair with
        # A_total = 0 has force -2 A and metric 2, so sigma = sqrt(2) |A|
        # and the same sigma starts at A = a0 / sqrt(2), |a0| from the
        # maximum too; it runs in the identity chart
        pair = identity_chart(CompositeSystem(gaussian, gaussian, [0.0]))
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
        rep = ReparametrizedManifold(
            FamilyManifold(bernoulli),
            forward=lambda A: A**2,
            inverse=lambda B: np.sqrt(B),
            jacobian=lambda A: np.array([[2.0 * A[0]]]),
        )
        t_a = integrate(bernoulli, [0.25], tau_max=2.0)  # the exact ray
        t_b = integrate(rep, [0.0625], tau_max=2.0)  # the ray mapped into the chart
        taus, B = rk4_rows(rep, [0.0625], 1e-3, 2.0)  # RK4 in the chart
        # all three trace A(tau) = sin^2(pi/6 + tau/2) at every row
        assert np.all(np.abs(t_a.A[:, 0] - np.sin(math.pi / 6.0 + 0.5 * t_a.tau) ** 2) <= 1e-12)
        assert np.all(np.abs(np.sqrt(t_b.A[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * t_b.tau) ** 2) <= 1e-12)
        assert np.all(np.abs(np.sqrt(B[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * taus) ** 2) <= 1e-5)
        assert abs(t_a.tau[-1] - math.pi / 6.0) <= 1e-12
        assert abs(t_b.tau[-1] - math.pi / 6.0) <= 1e-12

    def test_time_reversal_decreases_entropy(self, bernoulli):
        # backward integration is not a supported mode; trace the flow
        # backwards with the RK4 oracle to check the orientation of the flow
        _, A = rk4_rows(bernoulli, [0.25], -1e-3, 0.1)
        assert len(A) == 101
        assert entropy(bernoulli, A[-1]) < entropy(bernoulli, [0.25])

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
        # A* = mean_parameters(0): an independent end-state oracle
        from helpers import random_tabulated

        fam = random_tabulated(rng, n_dim=2, n_points=6)
        target = fam.mean_parameters(np.zeros(2))
        start = fam.mean_parameters(rng.uniform(-0.8, 0.8, 2))
        traj = integrate(fam, start, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert np.max(np.abs(traj.A[-1] - target)) <= 1e-6
        assert entropy_production_check(traj).max_residual <= 1e-4

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
        space = DiscreteSpace([0, 1, 2], [1.0, 1.0, 1.0])
        taus, calls = [], []
        for shift in (0.0, offset):
            fam = TabulatedFamily(space, [[shift, shift + 1.0, shift + 2.0]])
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
        space = DiscreteSpace([0, 1, 2], [1.0, 1.0, 1.0])
        fam = TabulatedFamily(space, [[0.0, 1.0, 2.0]])
        clean = integrate(fam, [0.3], tau_max=5.0)
        rng = np.random.default_rng(7)
        watch_ray_rate(fam, noise=lambda n: 1e-10 * rng.standard_normal(n))
        traj = integrate(fam, [0.3], tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - clean.tau[-1]) <= 1e-9

    def test_a_rate_that_never_resolves_exhausts_the_panel_budget(self):
        # relative noise of 1e-3 in the rate has no plateau the chop accepts,
        # so every panel splits until the budget of panels runs out
        space = DiscreteSpace([0, 1, 2], [1.0, 1.0, 1.0])
        fam = TabulatedFamily(space, [[0.0, 1.0, 2.0]])
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
    def test_closed_form_ray_forms_no_covariance(self, monkeypatch, family, A0):
        # the quadrature reads the arclength-rate kernel and the rows the
        # batched closed forms, the speed at the maximum included
        calls = count_calls(monkeypatch, type(family), ("covariance",))
        traj = integrate(family, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert calls["covariance"] == 0

    def test_table_ray_work_per_row(self, monkeypatch, tabulated_3x50):
        # at most 4 kernel nodes per row, the panels of the table of tau
        # included, and no per-row forward map: every mean_parameters,
        # covariance and log_partition call is one of the start's Newton solve
        fam, A0, _ = tabulated_3x50
        fam = TabulatedFamily(fam.space, fam.stats)  # a copy to watch
        names = ("mean_parameters", "covariance", "log_partition")
        calls = count_calls(monkeypatch, TabulatedFamily, names)
        as_manifold(fam).point(A0)
        at_start = dict(calls)
        calls.update(dict.fromkeys(names, 0))
        nodes = watch_ray_rate(fam)
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert nodes[0] <= 4 * len(traj)
        assert calls == at_start

    def test_table_ray_memory_stays_within_a_megabyte(self):
        # kernel and state temporaries hold at most 2^14 table entries each
        rng = np.random.default_rng(5000)
        weights, stats = rng.uniform(0.5, 2.0, 5000), rng.normal(size=(3, 5000))
        lam0 = 0.3 * np.array([0.6, -0.8, 0.0])
        fam = TabulatedFamily(DiscreteSpace(list(range(5000)), weights), stats)
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
        fam = TabulatedFamily(DiscreteSpace(list(range(5000)), weights), stats)
        assert isinstance(fam.ray(lam0), _BinnedRay)
        traj = integrate(fam, tabulated_mean(weights, stats, lam0), tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.tau[-1] - tabulated_equilibrium_tau(weights, stats, lam0)) <= 1e-12
        assert np.max(np.abs(traj.speed - 1.0)) <= 1e-12
        assert entropy_production_check(traj).max_residual <= 1e-4

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
        # 2 sigma_eq: the maximum takes that row's place instead of
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
        assert np.min(np.diff(traj.tau)) >= 1e-8  # sigma_eq
        assert np.all(traj.sigma[:-1] > 2e-8)
        assert entropy_production_check(traj).max_residual <= 1e-4

    def test_chart_collapse_raises_the_bases_error(self, bernoulli_pair, monkeypatch):
        # the table of tau takes six batched evaluations of both subsystems,
        # 12 batches of Bernoulli states; every batch after those is NaN, so
        # the pair's states at the rows are not finite, and the chart of the
        # pair raises as the pair does
        states, calls = BernoulliFamily.natural_states, []

        def failing_states(self, lams):
            calls.append(None)
            out = states(self, lams)
            return tuple(x * math.nan for x in out) if len(calls) > 12 else out

        monkeypatch.setattr(BernoulliFamily, "natural_states", failing_states)
        chart = ReparametrizedManifold(bernoulli_pair, forward=lambda A: 2.0 * A,
                                       inverse=lambda B: 0.5 * B, jacobian=lambda A: 2.0 * np.eye(1))
        with pytest.raises(StepCollapseError, match="the pair"):
            integrate(chart, [0.5], tau_max=2.0)

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
            """A manifold with points but neither a ray nor a base chart."""

            inner = FamilyManifold(BernoulliFamily())
            dim = 1

            def check_feasible(self, A):
                return self.inner.check_feasible(A)

            def point(self, A):
                return self.inner.point(A)

            def entropy(self, A):
                return self.inner.entropy(A)

        with pytest.raises(TypeError, match="Plain"):
            integrate(Plain(), [0.25], tau_max=1.0)


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
        fam = TabulatedFamily(DiscreteSpace(list(range(n_points)), weights), stats)
        u = rng.normal(size=n_dim)
        u /= np.linalg.norm(u)
        if budget == "within one spacing":
            # tau_eq is about the rate at the maximum times the scale of lam0
            rate = math.sqrt(float(u @ tabulated_states(weights, stats, [0.0 * u])[2][0] @ u))
            lam0 = rng.uniform(0.1, 0.9) * h / rate * u
        else:
            lam0 = rng.uniform(0.3, 1.5) * u
        tau_eq = tabulated_equilibrium_tau(weights, stats, lam0)
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


class TestEntropyProduction:
    def test_bernoulli_within_contract(self, bernoulli_traj):
        report = entropy_production_check(bernoulli_traj)
        assert report.max_residual <= 1e-4

    def test_gaussian_tight(self, gaussian_traj):
        report = entropy_production_check(gaussian_traj)
        assert report.max_residual <= 1e-6

    def test_too_few_samples(self):
        traj = synthetic_trajectory([0.0], [[0.1]], [[1.0]], [0.3], [1.0])
        with pytest.raises(TooFewSamplesError):
            entropy_production_check(traj)

    def test_samples_whose_difference_is_rounding_are_skipped(self):
        # S = tau but for one ulp at the sample 1e-9 past tau = 1: the
        # centred differences at tau = 1 and 1 + 1e-9 would be off by 2e-7,
        # and their rounding eps (|S_-| + |S| + |S_+|) (1/h_- + 1/h_+) is
        # about 1e-6, so both are skipped and the samples at 0.5 and 1.5 remain
        tau = np.array([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.5, 2.0])
        S = tau.copy()
        S[3] = np.nextafter(S[3], 2.0)
        traj = synthetic_trajectory(tau, tau, tau, S, np.ones(6))
        report = entropy_production_check(traj)
        assert report.max_residual <= 1e-15 and report.argmax_tau in (0.5, 1.5)
        assert len(report.residuals) == 2

    def test_no_sample_that_resolves_reads_zero(self):
        tau = np.array([0.0, 1e-9, 2e-9])
        traj = synthetic_trajectory(tau, tau, tau, 1.0 + tau, np.ones(3))
        report = entropy_production_check(traj)
        assert report.max_residual == 0.0 and report.argmax_tau is None
        assert report.residuals == ()

    def test_landing_rows_do_not_set_the_gaussian_residual(self, gaussian_traj):
        # the flat Gaussian's S is quadratic in tau, so its centred
        # differences are exact but for rounding; the landing intervals,
        # down to 1e-8, no longer turn S's last bit into a 1e-9 residual
        report = entropy_production_check(gaussian_traj)
        assert report.max_residual <= 1e-11


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
    """Counters of the nodes a ``PairRay``'s rate is asked for and of the
    node-rows its Newton solve evaluates."""
    work = {"nodes": 0, "evaluated": 0}
    rate, evaluate = PairRay.rate, PairRay._evaluate

    def counting_rate(self, ts):
        work["nodes"] += len(ts)
        return rate(self, ts)

    def counting_evaluate(self, l, shift):
        work["evaluated"] += len(l)
        return evaluate(self, l, shift)

    monkeypatch.setattr(PairRay, "rate", counting_rate)
    monkeypatch.setattr(PairRay, "_evaluate", counting_evaluate)
    return work


def seeded_table(seed, n_points):
    """A 3 x ``n_points`` table with weights in [0.5, 2], N(0, 1) statistics
    and a start at lam0 of norm 0.3, as the benchmark's tabulated runs."""
    rng = np.random.default_rng(seed)
    weights, stats = rng.uniform(0.5, 2.0, n_points), rng.normal(size=(3, n_points))
    lam0 = rng.normal(size=3)
    lam0 *= 0.3 / np.linalg.norm(lam0)
    fam = TabulatedFamily(DiscreteSpace(list(range(n_points)), weights), stats)
    return fam, tabulated_mean(weights, stats, lam0)


class TestRayWork:
    """A run's table of tau takes a few Chebyshev panels of rate nodes,
    whatever its row count, and a pair's rows cost about one evaluation."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_a_shipped_run_takes_at_most_150_rate_nodes(self, monkeypatch, name):
        cfg = parse_config(catalog_path(name))
        system = build_system(cfg)
        if cfg.mode == "single":
            nodes = watch_ray_rate(system)
        else:
            work = watch_pair_work(monkeypatch)
        traj = integrate(system, cfg.A0, tau_max=cfg.tau_max, h=cfg.h, sigma_eq=cfg.sigma_eq)
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

    def test_the_table_meets_the_bernoulli_closed_form_at_its_rows(self):
        # tau(t) = 2 (asin sqrt(A(t)) - asin(1/2)), A(t) = 1 / (1 + 3^t)
        lam0 = math.log(3.0)
        table = _RayTable(BernoulliFamily().ray([lam0]).rate)
        assert abs(table.tau_eq - math.pi / 6.0) <= 1e-15
        targets = np.arange(1, 524) * 1e-3
        ts, _ = table.place(targets)
        exact = 2.0 * (np.arcsin(np.sqrt(1.0 / (1.0 + np.exp(ts * lam0)))) - math.asin(0.5))
        assert np.max(np.abs(exact - targets)) <= 1e-15
        assert np.max(np.abs(table.at(ts)[0] - exact)) <= 1e-15


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
        # one %-template per row writes what format(x, ".17g") writes
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), rows=st.integers(1, 5))
    def test_one_template_writes_what_format_17g_writes(self, data, rows):
        # the whole table goes through one %-template; every cell is the
        # per-value format(x, ".17g"), -0.0, subnormals and 1e+-300 included
        values = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300]),
        )
        columns = [data.draw(st.lists(values, min_size=rows, max_size=rows)) for _ in range(5)]
        traj = synthetic_trajectory(*columns)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        want = ["tau,A_1,lambda_1,S,sigma,speed"] + [
            ",".join(format(float(x), ".17g") for x in row) for row in zip(*columns, traj.speed)
        ]
        assert buf.getvalue() == "\n".join(want) + "\n"
