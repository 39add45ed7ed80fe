import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    AtEquilibriumError,
    BernoulliFamily,
    CompositeSystem,
    FamilyManifold,
    GaussianMeanFamily,
    MonotonicityError,
    ReparametrizedManifold,
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
from entroflow import duality, flow
from entroflow.errors import InfeasibleMeanError
from entroflow.family import DiscreteSpace, TabulatedFamily
from entroflow.geometry import ManifoldPoint, MetricTensor, StateManifold
from helpers import (
    count_calls,
    identity_chart,
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
    """Route ``fam``'s arclength-rate kernel through a counter of the nodes
    it evaluates, returned as a one-item list, and scale each value by
    1 + ``noise(n)`` for a call of n nodes if given."""
    ray_rate, nodes = fam.ray_rate, [0]

    def watched(lam0):
        rate = ray_rate(lam0)

        def counting(ts):
            nodes[0] += len(ts)
            assert nodes[0] <= 50_000, "the quadrature does not stop"
            f = rate(ts)
            return f if noise is None else f * (1.0 + noise(len(ts)))

        return counting

    fam.ray_rate = watched
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

    def test_record_every_thins_but_keeps_terminal(self, bernoulli):
        full = integrate(bernoulli, [0.25], tau_max=2.0)
        thin = integrate(bernoulli, [0.25], tau_max=2.0, record_every=10)
        assert len(thin) < len(full)
        assert thin.tau[0] == 0.0
        assert abs(thin.tau[-1] - full.tau[-1]) <= 1e-9
        assert np.max(np.abs(thin.A[-1] - full.A[-1])) <= 1e-12

    def test_terminal_sigma_lands_in_threshold_window(self, bernoulli, bernoulli_pair):
        # RK4 (a chart) stops in the threshold window; the ray of a single
        # family ends at the maximum itself
        chart = identity_chart(bernoulli_pair)
        for sigma_eq in (1e-6, 1e-8):
            traj = integrate(chart, [0.25], tau_max=2.0, sigma_eq=sigma_eq)
            assert sigma_eq <= traj.sigma[-1] <= 2.0 * sigma_eq
            traj = integrate(bernoulli, [0.25], tau_max=2.0, sigma_eq=sigma_eq)
            assert traj.sigma[-1] == 0.0

    @pytest.mark.parametrize("a0", [-1.0000001e-8, -1.05e-8, -3e-8])
    def test_gaussian_start_near_threshold_lands(self, gaussian, a0):
        # the single Gaussian starts at sigma = |a0|; a flat pair with
        # A_total = 0 has force -2 A and metric 2, so sigma = sqrt(2) |A|
        # and the same sigma starts at A = a0 / sqrt(2); RK4 runs it in the
        # identity chart
        pair = identity_chart(CompositeSystem(gaussian, gaussian, [0.0]))
        traj = integrate(pair, [a0 / math.sqrt(2.0)], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert 1e-8 <= traj.sigma[-1] <= 2e-8
        # the single Gaussian's ray ends at the maximum, |a0| away
        traj = integrate(gaussian, [a0], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert traj.sigma[-1] == 0.0
        assert abs(traj.tau[-1] - abs(a0)) <= 1e-12 * abs(a0)

    def test_convergence_order_at_least_3_5(self, bernoulli_pair):
        # fixed-tau endpoint isolates RK4 from the stopping rule; in the
        # identity chart over two equal Bernoulli halves arcsin sqrt(A)
        # advances at rate 1 / (2 sqrt 2)
        chart = identity_chart(bernoulli_pair)
        exact = math.sin(math.pi / 6.0 + 0.5 / (2.0 * math.sqrt(2.0))) ** 2
        errs = []
        for h in (8e-3, 4e-3, 2e-3):
            t = integrate(chart, [0.25], tau_max=0.5, h=h)
            assert abs(t.tau[-1] - 0.5) <= 1e-12
            errs.append(abs(t.A[-1, 0] - exact))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 3.5
        assert order2 >= 3.5

    def test_reparametrization_covariance(self, bernoulli):
        rep = ReparametrizedManifold(
            FamilyManifold(bernoulli),
            forward=lambda A: A**2,
            inverse=lambda B: np.sqrt(B),
            jacobian=lambda A: np.array([[2.0 * A[0]]]),
        )
        t_a = integrate(bernoulli, [0.25], tau_max=2.0)  # the exact ray
        t_b = integrate(rep, [0.0625], tau_max=2.0)  # RK4 in the chart
        # both trace A(tau) = sin^2(pi/6 + tau/2) at every row
        assert np.all(np.abs(t_a.A[:, 0] - np.sin(math.pi / 6.0 + 0.5 * t_a.tau) ** 2) <= 1e-12)
        assert np.all(np.abs(np.sqrt(t_b.A[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * t_b.tau) ** 2) <= 1e-5)
        assert abs(t_a.tau[-1] - math.pi / 6.0) <= 1e-7
        assert abs(t_b.tau[-1] - math.pi / 6.0) <= 1e-7

    def test_time_reversal_decreases_entropy(self, bernoulli):
        # backward integration is not a supported mode; trace the reversed
        # field with a local RK4 to check the orientation of the flow
        def reversed_field(A):
            return -unit_velocity(as_manifold(bernoulli).point(A))

        A = np.array([0.25])
        h = 1e-3
        for _ in range(100):  # tau = 0.1 backward
            k1 = reversed_field(A)
            k2 = reversed_field(A + 0.5 * h * k1)
            k3 = reversed_field(A + 0.5 * h * k2)
            k4 = reversed_field(A + h * k3)
            A = A + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert entropy(bernoulli, A) < entropy(bernoulli, [0.25])

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

    def test_tabulated_run_solves_once_and_takes_no_rk4_step(self, tabulated_3x50, monkeypatch):
        # a single family is sampled on the ray: one Legendre inversion at
        # the start, then forward maps only
        solves, steps = [], []
        solve_lambda, rk4_step = duality.solve_lambda, flow._rk4_step

        def counting_solve(*args, **kwargs):
            solves.append(None)
            return solve_lambda(*args, **kwargs)

        def counting_step(*args):
            steps.append(None)
            return rk4_step(*args)

        monkeypatch.setattr(duality, "solve_lambda", counting_solve)
        monkeypatch.setattr(flow, "_rk4_step", counting_step)
        fam, A0, _ = tabulated_3x50
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert len(solves) == 1 and len(steps) == 0

    def test_tabulated_landing_needs_no_extra_rk4_steps(self, two_point, monkeypatch):
        # RK4 runs on a pair of tables in the identity chart: every step but
        # a few halvings is an accepted, recorded sample
        calls = []
        rk4_step = flow._rk4_step

        def counting(*args):
            calls.append(None)
            return rk4_step(*args)

        monkeypatch.setattr(flow, "_rk4_step", counting)
        chart = identity_chart(CompositeSystem(two_point, two_point, [1.0]))
        traj = integrate(chart, [0.25], tau_max=2.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert len(calls) <= len(traj) + 5

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

    def test_step_collapse_carries_partial_trajectory(self):
        class Hostile(StateManifold):
            """Feasible only on a sliver so every step eventually fails."""

            def __init__(self):
                self.inner = FamilyManifold(BernoulliFamily())

            @property
            def dim(self):
                return 1

            def check_feasible(self, A):
                A = np.atleast_1d(np.asarray(A, dtype=float))
                if A[0] > 0.2501:
                    raise InfeasibleMeanError("sliver boundary")
                return A

            def point(self, A, warm=None):
                self.check_feasible(A)
                return self.inner.point(A, warm=warm)

            def entropy(self, A):
                return self.inner.entropy(A)

        with pytest.raises(StepCollapseError) as err:
            integrate(Hostile(), [0.25], tau_max=1.0)
        partial = err.value.trajectory
        assert partial is not None
        assert partial.terminal_status == "error"
        assert len(partial) >= 1


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
        h=st.sampled_from([0.01, 0.03, 0.1]),
        record_every=st.integers(1, 3),
        budget=st.sampled_from(["past the maximum", "before the maximum", "within one spacing"]),
    )
    def test_rows(self, seed, n_dim, h, record_every, budget):
        rng = np.random.default_rng(seed)
        n_points = int(rng.integers(n_dim + 2, 9))
        weights, stats = rng.uniform(0.5, 2.0, n_points), rng.normal(size=(n_dim, n_points))
        fam = TabulatedFamily(DiscreteSpace(list(range(n_points)), weights), stats)
        spacing = h * record_every
        u = rng.normal(size=n_dim)
        u /= np.linalg.norm(u)
        if budget == "within one spacing":
            # tau_eq is about the rate at the maximum times the scale of lam0
            rate = math.sqrt(float(u @ tabulated_states(weights, stats, [0.0 * u])[2][0] @ u))
            lam0 = rng.uniform(0.1, 0.9) * spacing / rate * u
        else:
            lam0 = rng.uniform(0.3, 1.5) * u
        tau_eq = tabulated_equilibrium_tau(weights, stats, lam0)
        tau_max = tau_eq * rng.uniform(0.3, 0.9) if budget == "before the maximum" else tau_eq + 1.0
        traj = integrate(fam, tabulated_mean(weights, stats, lam0), tau_max=tau_max, h=h,
                         record_every=record_every)

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
            grid = math.ceil(tau_eq / spacing) - 1
            # the landing rows halve t, so lam and, near the maximum, sigma
            landing = slice(grid, len(traj) - 1)
            assert np.array_equal(traj.lam[landing][1:], 0.5 * traj.lam[landing][:-1])
            sigma = traj.sigma[landing]
            assert np.all(np.abs(sigma[1:] / sigma[:-1] - 0.5) <= 0.1)
            assert sigma[-1] <= 4.4e-8
        # grid rows sit at exactly k * spacing
        assert np.array_equal(traj.tau[1:grid + 1], np.arange(1, grid + 1) * spacing)


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
