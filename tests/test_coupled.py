import math

import numpy as np
import pytest
from scipy.integrate import quad

from entroflow import (
    AtEquilibriumError,
    BernoulliFamily,
    CompositeSystem,
    GaussianMeanFamily,
    IdealGasFamily,
    InfeasibleMeanError,
    as_manifold,
    entropy,
    entropy_production_check,
    fd_metric_oracle,
    integrate,
    metric,
    solve_lambda,
    unit_velocity,
)


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(1.0, fixed_n=1.0), [4.0])

    def test_label_mismatch(self):
        with pytest.raises(ValueError, match="not compatible"):
            CompositeSystem(BernoulliFamily(), IdealGasFamily(1.0, fixed_n=1.0), [1.0])

    def test_gaussian_pair_is_allowed(self):
        cs = CompositeSystem(GaussianMeanFamily(), GaussianMeanFamily(), [1.0])
        assert cs.dim == 1


class TestCompositeEntropy:
    def test_two_maxima(self, bernoulli_pair):
        assert bernoulli_pair.entropy([0.5]) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-12
        )

    def test_ideal_gas_substitution(self):
        cs = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(1.0), [4.0, 2.0])
        got = cs.entropy([1.0, 1.0])
        expected = entropy(IdealGasFamily(1.0), [1.0, 1.0]) + entropy(
            IdealGasFamily(1.0), [3.0, 1.0]
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_boundary_is_an_error(self, bernoulli_pair, equal_gas_pair):
        with pytest.raises(InfeasibleMeanError):
            bernoulli_pair.entropy([1.0])  # subsystem 2 at A' = 0
        with pytest.raises(InfeasibleMeanError):
            equal_gas_pair.entropy([4.0, 1.0])  # E' = 0


class TestCompositeMetric:
    def test_symmetric_point_value(self, bernoulli_pair):
        assert metric(bernoulli_pair, [0.5]).g[0, 0] == pytest.approx(
            8.0, rel=1e-12
        )

    def test_off_symmetric_value(self, bernoulli_pair):
        # both subsystems contribute 1/(0.25 * 0.75)
        assert metric(bernoulli_pair, [0.25]).g[0, 0] == pytest.approx(
            32.0 / 3.0, rel=1e-12
        )

    def test_equals_subsystem_sum(self, equal_gas_pair):
        A = np.array([1.3, 0.8])
        g = metric(equal_gas_pair, A).g
        g1 = metric(equal_gas_pair.sys1, A).g
        g2 = metric(equal_gas_pair.sys2, equal_gas_pair.A_total - A).g
        assert np.max(np.abs(g - (g1 + g2))) <= 1e-10 * np.max(np.abs(g))

    def test_matches_fd_oracle(self, equal_gas_pair, bernoulli_pair, rng):
        for _ in range(10):
            A = np.array([rng.uniform(0.8, 3.0), rng.uniform(0.4, 1.5)])
            g = metric(equal_gas_pair, A).g
            oracle = fd_metric_oracle(equal_gas_pair, A, step=1e-5)
            assert np.max(np.abs(g - oracle)) <= 1e-5 * np.max(np.abs(g))
        for _ in range(10):
            A = np.array([rng.uniform(0.1, 0.9)])
            g = metric(bernoulli_pair, A).g
            oracle = fd_metric_oracle(bernoulli_pair, A)
            assert np.max(np.abs(g - oracle)) <= 1e-5 * np.max(np.abs(g))


class TestCoupledVelocity:
    def test_equilibrium_raises(self, bernoulli_pair):
        with pytest.raises(AtEquilibriumError):
            unit_velocity(as_manifold(bernoulli_pair).point([0.5]))

    def test_force_difference_drives_motion(self, bernoulli_pair):
        v = unit_velocity(as_manifold(bernoulli_pair).point([0.25]))[0]
        assert v > 0.0  # toward the shared maximum at 0.5
        lam1 = solve_lambda(BernoulliFamily(), [0.25])[0]
        lam2 = solve_lambda(BernoulliFamily(), [0.75])[0]
        assert lam1 - lam2 == pytest.approx(2.0 * math.log(3.0), abs=1e-10)

    def test_heat_flows_to_the_colder_vessel(self, gas_e_only_pair):
        # lam_E = 3N/(2E): vessel 1 at E=1 is colder (larger 1/T) and gains energy
        v = unit_velocity(as_manifold(gas_e_only_pair).point([1.0]))[0]
        assert v > 0.0
        lam1 = solve_lambda(gas_e_only_pair.sys1, [1.0])[0]
        lam2 = solve_lambda(gas_e_only_pair.sys2, [3.0])[0]
        assert lam1 == pytest.approx(1.5, abs=1e-14)
        assert lam2 == pytest.approx(0.5, abs=1e-14)

    def test_unit_speed(self, equal_gas_pair):
        A = np.array([1.2, 0.7])
        v = unit_velocity(as_manifold(equal_gas_pair).point(A))
        g = metric(equal_gas_pair, A).g
        assert abs(v @ g @ v - 1.0) <= 1e-12


class TestIntegrateCoupled:
    def test_bernoulli_midpoint(self, bernoulli_pair):
        traj = integrate(bernoulli_pair, [0.25], tau_max=2.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.terminal.A[0] - 0.5) <= 1e-4
        # identical subsystems reduce to a rescaled two-point relaxation
        assert abs(traj.terminal.tau - math.sqrt(2.0) * math.pi / 6.0) <= 1e-7

    def test_gas_en_midpoint_and_forces(self, coupled_gas_traj):
        term = coupled_gas_traj.terminal
        assert coupled_gas_traj.terminal_status == "equilibrium-reached"
        assert np.max(np.abs(term.A - np.array([2.0, 1.0]))) <= 1e-3
        assert np.max(np.abs(term.lam - term.lam_prime)) <= 1e-6

    def test_gas_en_arclength_reduction(self, coupled_gas_traj):
        # on the symmetry ray A = s (2, 1) the forces stay parallel to the
        # ray and the arclength reduces to sqrt(2) * int ds / sqrt(s(2-s))
        # over s in [1/2, 1], which is exactly sqrt(2) * pi / 6
        assert abs(coupled_gas_traj.terminal.tau - math.sqrt(2.0) * math.pi / 6.0) <= 1e-6

    def test_conservation_residual(self, coupled_gas_traj, equal_gas_pair):
        for s in coupled_gas_traj.samples:
            assert s.conservation_residual <= 1e-12
            assert np.max(np.abs(s.A + s.A_prime - equal_gas_pair.A_total)) <= 1e-12

    def test_e_only_matches_quadrature_arclength(self, gas_e_only_pair):
        traj = integrate(gas_e_only_pair, [1.0], tau_max=6.0)
        assert abs(traj.terminal.A[0] - 2.0) <= 1e-3
        oracle, err = quad(
            lambda e: math.sqrt(1.5 * (1.0 / e**2 + 1.0 / (4.0 - e) ** 2)), 1.0, 2.0
        )
        assert err < 1e-9
        assert abs(traj.terminal.tau - oracle) <= 1e-6

    def test_entropy_production(self, coupled_gas_traj):
        S = [s.S for s in coupled_gas_traj.samples]
        assert all(S[k + 1] >= S[k] - 1e-10 for k in range(len(S) - 1))
        assert entropy_production_check(coupled_gas_traj).max_residual <= 1e-4

    def test_asymmetric_volumes_equalize_forces_not_states(self):
        cs = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(2.0), [4.0, 2.0])
        traj = integrate(cs, [1.0, 0.5], tau_max=10.0)
        term = traj.terminal
        assert traj.terminal_status == "equilibrium-reached"
        # forces equal...
        assert np.max(np.abs(term.lam - term.lam_prime)) <= 1e-6
        # ...at the V-weighted split, away from the midpoint
        assert np.max(np.abs(term.A - np.array([4.0 / 3.0, 2.0 / 3.0]))) <= 1e-3
        assert np.max(np.abs(term.A - np.array([2.0, 1.0]))) > 0.5

    def test_equilibrium_start_raises(self, bernoulli_pair):
        with pytest.raises(AtEquilibriumError):
            integrate(bernoulli_pair, [0.5], tau_max=1.0)

    def test_flat_gaussian_pair_exact_arclength(self):
        # composite metric is constant (= 2), so the relaxation from
        # A = 0.3 to the midpoint 0.5 has arclength sqrt(2) * 0.2 exactly
        cs = CompositeSystem(GaussianMeanFamily(), GaussianMeanFamily(), [1.0])
        traj = integrate(cs, [0.3], tau_max=2.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.terminal.A[0] - 0.5) <= 1e-6
        assert abs(traj.terminal.tau - math.sqrt(2.0) * 0.2) <= 1e-7

    def test_speed_column(self, coupled_gas_traj):
        for s in coupled_gas_traj.samples:
            assert abs(s.speed - 1.0) <= 1e-6
