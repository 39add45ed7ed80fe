import io
import math

import numpy as np
import pytest

from entroflow import (
    AtEquilibriumError,
    BernoulliFamily,
    FamilyManifold,
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
from entroflow import flow
from entroflow.errors import InfeasibleMeanError
from entroflow.family import DiscreteSpace, TabulatedFamily
from entroflow.geometry import ManifoldPoint, MetricTensor, StateManifold
from helpers import synthetic_trajectory, tabulated_equilibrium_tau, tabulated_mean


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
        assert abs(bernoulli_traj.terminal.tau - math.pi / 6.0) <= 1e-7
        assert abs(bernoulli_traj.terminal.A[0] - 0.5) <= 1e-4

    def test_gaussian_straight_line(self, gaussian_traj):
        assert gaussian_traj.terminal_status == "equilibrium-reached"
        assert abs(gaussian_traj.terminal.tau - 2.0) <= 1e-6
        assert abs(gaussian_traj.terminal.A[0]) <= 1e-6

    def test_equilibrium_start_raises(self, bernoulli):
        with pytest.raises(AtEquilibriumError):
            integrate(bernoulli, [0.5], tau_max=1.0)

    def test_budget_exhaustion(self, bernoulli):
        traj = integrate(bernoulli, [0.25], tau_max=0.1)
        assert traj.terminal_status == "tau-budget-exhausted"
        assert traj.terminal.tau == pytest.approx(0.1, abs=1e-12)

    def test_tau_strictly_increasing(self, bernoulli_traj, coupled_gas_traj):
        for traj in (bernoulli_traj, coupled_gas_traj):
            taus = traj.taus()
            assert np.all(np.diff(taus) > 0.0)

    def test_unit_speed_at_samples(self, bernoulli_traj, gaussian_traj):
        for traj in (bernoulli_traj, gaussian_traj):
            for s in traj.samples:
                assert abs(s.speed - 1.0) <= 1e-6

    def test_entropy_monotone(self, bernoulli_traj, gaussian_traj):
        for traj in (bernoulli_traj, gaussian_traj):
            S = [s.S for s in traj.samples]
            assert all(S[k + 1] >= S[k] - 1e-10 for k in range(len(S) - 1))

    def test_samples_carry_recomputed_duals(self, bernoulli, bernoulli_traj):
        mid = bernoulli_traj.samples[len(bernoulli_traj) // 2]
        assert mid.lam[0] == pytest.approx(
            math.log((1 - mid.A[0]) / mid.A[0]), abs=1e-10
        )
        assert mid.S == pytest.approx(entropy(bernoulli, mid.A), abs=1e-12)
        assert mid.sigma == pytest.approx(sigma(bernoulli, mid.A), abs=1e-12)

    def test_record_every_thins_but_keeps_terminal(self, bernoulli):
        full = integrate(bernoulli, [0.25], tau_max=2.0)
        thin = integrate(bernoulli, [0.25], tau_max=2.0, record_every=10)
        assert len(thin) < len(full)
        assert thin.samples[0].tau == 0.0
        assert abs(thin.terminal.tau - full.terminal.tau) <= 1e-9
        assert np.max(np.abs(thin.terminal.A - full.terminal.A)) <= 1e-12

    def test_terminal_sigma_lands_in_threshold_window(self, bernoulli):
        for sigma_eq in (1e-6, 1e-8):
            traj = integrate(bernoulli, [0.25], tau_max=2.0, sigma_eq=sigma_eq)
            assert sigma_eq <= traj.terminal.sigma <= 2.0 * sigma_eq

    @pytest.mark.parametrize("a0", [-1.0000001e-8, -1.05e-8, -3e-8])
    def test_gaussian_start_near_threshold_lands(self, gaussian, a0):
        traj = integrate(gaussian, [a0], tau_max=1.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert 1e-8 <= traj.terminal.sigma <= 2e-8

    def test_convergence_order_at_least_3_5(self, bernoulli):
        # fixed-tau endpoint isolates the integrator from the stopping rule
        exact = 0.5 * (1.0 - math.cos(0.5 + math.pi / 3.0))
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            t = integrate(bernoulli, [0.25], tau_max=0.5, h=h)
            assert abs(t.terminal.tau - 0.5) <= 1e-12
            errs.append(abs(t.terminal.A[0] - exact))
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
        t_a = integrate(bernoulli, [0.25], tau_max=2.0)
        t_b = integrate(rep, [0.0625], tau_max=2.0)
        assert len(t_a) == len(t_b)
        for sa, sb in zip(t_a.samples, t_b.samples):
            assert abs(sa.tau - sb.tau) <= 1e-9
            assert abs(sa.A[0] - math.sqrt(sb.A[0])) <= 1e-5

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
            assert ts.terminal.tau == tt.terminal.tau
            assert np.array_equal(ts.terminal.A, tt.terminal.A)
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
        assert np.max(np.abs(traj.terminal.A - target)) <= 1e-6
        assert entropy_production_check(traj).max_residual <= 1e-4

    def test_tabulated_terminal_tau_matches_ray_quadrature(self, tabulated_3x50):
        fam, A0, tau_eq = tabulated_3x50
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.terminal.tau - tau_eq) <= 1e-6

    def test_tabulated_landing_needs_no_extra_rk4_steps(self, tabulated_3x50, monkeypatch):
        # every RK4 step but a few halvings is an accepted, recorded sample
        calls = []
        rk4_step = flow._rk4_step

        def counting(*args):
            calls.append(None)
            return rk4_step(*args)

        monkeypatch.setattr(flow, "_rk4_step", counting)
        fam, A0, _ = tabulated_3x50
        traj = integrate(fam, A0, tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert len(calls) <= len(traj) + 5

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

            def metric_matrix(self, A, warm=None):
                return self.inner.metric_matrix(A, warm=warm)

        with pytest.raises(StepCollapseError) as err:
            integrate(Hostile(), [0.25], tau_max=1.0)
        partial = err.value.trajectory
        assert partial is not None
        assert partial.terminal_status == "error"
        assert len(partial) >= 1


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
        assert float(mid[1]) == bernoulli_traj.samples[k].A[0]
        assert float(mid[3]) == bernoulli_traj.samples[k].S

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
