import math

import numpy as np
import pytest
from scipy.integrate import quad

from entroflow import (
    AtEquilibriumError,
    BernoulliFamily,
    CompositeSystem,
    DiscreteSpace,
    GaussianMeanFamily,
    IdealGasFamily,
    InfeasibleMeanError,
    TabulatedFamily,
    as_manifold,
    entropy,
    entropy_production_check,
    integrate,
    metric,
    solve_lambda,
    unit_velocity,
)
from helpers import composite_arclength, fd_metric_oracle, rk4_rows, tabulated_mean


def gas_energy_metric(energy):
    # -S'' of N [ln(V/N) + (3/2) ln(E/N)] at N = V = 1
    return 1.5 / energy**2


def bernoulli_metric(a):
    return 1.0 / (a * (1.0 - a))


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
        assert abs(traj.A[-1, 0] - 0.5) <= 1e-4
        # identical subsystems reduce to a rescaled two-point relaxation
        assert abs(traj.tau[-1] - math.sqrt(2.0) * math.pi / 6.0) <= 1e-12

    def test_gas_en_midpoint_and_forces(self, coupled_gas_traj):
        t = coupled_gas_traj
        assert t.terminal_status == "equilibrium-reached"
        assert np.max(np.abs(t.A[-1] - np.array([2.0, 1.0]))) <= 1e-3
        assert np.max(np.abs(t.lam[-1] - t.lam_prime[-1])) <= 1e-6

    def test_gas_en_arclength_reduction(self, coupled_gas_traj):
        # on the symmetry ray A = s (2, 1) the forces stay parallel to the
        # ray and the arclength reduces to sqrt(2) * int ds / sqrt(s(2-s))
        # over s in [1/2, 1], which is exactly sqrt(2) * pi / 6
        assert abs(coupled_gas_traj.tau[-1] - math.sqrt(2.0) * math.pi / 6.0) <= 1e-12

    def test_conservation_residual(self, coupled_gas_traj, equal_gas_pair):
        t = coupled_gas_traj
        assert np.all(t.conservation_residual <= 1e-12)
        assert np.max(np.abs(t.A + t.A_prime - equal_gas_pair.A_total)) <= 1e-12

    def test_e_only_matches_quadrature_arclength(self, gas_e_only_pair):
        # the shipped two-vessel-gas-E-only scenario
        traj = integrate(gas_e_only_pair, [1.0], tau_max=6.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.A[-1, 0] - 2.0) <= 1e-12
        oracle = composite_arclength(gas_energy_metric, gas_energy_metric, 4.0, 1.0, 2.0)
        reference, err = quad(
            lambda e: math.sqrt(1.5 * (1.0 / e**2 + 1.0 / (4.0 - e) ** 2)), 1.0, 2.0
        )
        assert err < 1e-9
        assert abs(oracle - reference) <= 1e-9
        assert abs(traj.tau[-1] - oracle) <= 1e-12

    def test_tabulated_pair_matches_quadrature_arclength(self, two_point):
        # two Bernoulli tables: every point goes through the Newton solver
        # and the connection through the third cumulant
        traj = integrate(CompositeSystem(two_point, two_point, [1.0]), [0.25], tau_max=2.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.A[-1, 0] - 0.5) <= 1e-12
        oracle = composite_arclength(bernoulli_metric, bernoulli_metric, 1.0, 0.25, 0.5)
        assert abs(traj.tau[-1] - oracle) <= 1e-12

    def test_entropy_production(self, coupled_gas_traj):
        assert np.all(np.diff(coupled_gas_traj.S) >= -1e-10)
        assert entropy_production_check(coupled_gas_traj).max_residual <= 1e-4

    def test_asymmetric_volumes_equalize_forces_not_states(self):
        cs = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(2.0), [4.0, 2.0])
        traj = integrate(cs, [1.0, 0.5], tau_max=10.0)
        assert traj.terminal_status == "equilibrium-reached"
        # forces equal...
        assert np.max(np.abs(traj.lam[-1] - traj.lam_prime[-1])) <= 1e-6
        # ...at the V-weighted split, away from the midpoint
        assert np.max(np.abs(traj.A[-1] - np.array([4.0 / 3.0, 2.0 / 3.0]))) <= 1e-3
        assert np.max(np.abs(traj.A[-1] - np.array([2.0, 1.0]))) > 0.5

    def test_equilibrium_start_raises(self, bernoulli_pair):
        with pytest.raises(AtEquilibriumError):
            integrate(bernoulli_pair, [0.5], tau_max=1.0)

    def test_flat_gaussian_pair_exact_arclength(self):
        # composite metric is constant (= 2), so the relaxation from
        # A = 0.3 to the midpoint 0.5 has arclength sqrt(2) * 0.2 exactly
        cs = CompositeSystem(GaussianMeanFamily(), GaussianMeanFamily(), [1.0])
        traj = integrate(cs, [0.3], tau_max=2.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert abs(traj.A[-1, 0] - 0.5) <= 1e-6
        assert abs(traj.tau[-1] - math.sqrt(2.0) * 0.2) <= 1e-12

    def test_speed_column(self, coupled_gas_traj):
        assert np.all(np.abs(coupled_gas_traj.speed - 1.0) <= 1e-6)


class TestForceRayContinuation:
    """A composite's flow is the curve F(A) = t F0, t from 1 down to 0."""

    @pytest.mark.parametrize(
        "pair, A0",
        [
            ("bernoulli_pair", [0.25]),
            ("equal_gas_pair", [1.0, 0.5]),
            ("gas_e_only_pair", [1.0]),
        ],
    )
    def test_rows_match_rk4(self, request, pair, A0):
        system = request.getfixturevalue(pair)
        ray = integrate(system, A0, tau_max=10.0)
        taus, rows_rk4 = rk4_rows(system, A0, 1e-3, 10.0)
        near = np.abs(ray.tau[:, None] - taus[None, :]) <= 1e-12
        rows, partners = np.nonzero(near)
        assert len(rows) >= len(ray) - 20  # all but the landing rows
        assert np.max(np.abs(ray.A[rows] - rows_rk4[partners])) <= 1e-10

    @pytest.mark.parametrize("margin", [1e-2, 1e-6, 1e-9])
    @pytest.mark.parametrize("one_row", [False, True], ids=["h=1e-3", "h=tau_max"])
    @pytest.mark.parametrize("pair, A0", [("bernoulli_pair", [0.25]), ("gas_e_only_pair", [1.0])])
    def test_maximum_just_past_or_before_tau_max(self, request, pair, A0, one_row, margin):
        # whether the maximum comes before tau_max is read off the table of
        # tau, which holds the maximum's tau exactly, in one row or in many
        system = request.getfixturevalue(pair)
        if pair == "bernoulli_pair":
            tau_eq = math.sqrt(2.0) * math.pi / 6.0
        else:
            tau_eq = composite_arclength(gas_energy_metric, gas_energy_metric, 4.0, 1.0, 2.0)
        short, past = tau_eq - margin, tau_eq + margin
        traj = integrate(system, A0, tau_max=short, h=short if one_row else 1e-3)
        assert traj.terminal_status == "tau-budget-exhausted"
        assert traj.tau[-1] == short
        # near the maximum sigma is the tau left to reach it
        assert abs(traj.sigma[-1] - margin) <= 1e-2 * margin
        traj = integrate(system, A0, tau_max=past, h=past if one_row else 1e-3)
        assert traj.terminal_status == "equilibrium-reached"
        assert traj.sigma[-1] == 0.0
        assert abs(traj.tau[-1] - tau_eq) <= 1e-12

    @pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
    def test_bernoulli_pair_terminal_tau_is_exact_at_any_spacing(self, bernoulli_pair, h):
        traj = integrate(bernoulli_pair, [0.25], tau_max=2.0, h=h)
        assert traj.terminal_status == "equilibrium-reached"
        assert traj.sigma[-1] == 0.0
        assert abs(traj.tau[-1] - math.sqrt(2.0) * math.pi / 6.0) <= 1e-12
        exact = np.sin(math.pi / 6.0 + traj.tau / (2.0 * math.sqrt(2.0))) ** 2
        assert np.max(np.abs(traj.A[:, 0] - exact)) <= 1e-12

    @pytest.mark.parametrize("h", [0.05, 0.2, 3.0])
    def test_e_only_terminal_tau_is_exact_at_any_spacing(self, gas_e_only_pair, h):
        # the table of tau does not depend on the spacing of the rows
        traj = integrate(gas_e_only_pair, [1.0], tau_max=6.0, h=h)
        assert traj.terminal_status == "equilibrium-reached"
        oracle = composite_arclength(gas_energy_metric, gas_energy_metric, 4.0, 1.0, 2.0)
        assert abs(traj.tau[-1] - oracle) <= 1e-12

    @pytest.mark.parametrize(
        "settings, status",
        [
            (dict(tau_max=2.0, sigma_eq=1e-15), "equilibrium-reached"),
            (dict(tau_max=1e-9, h=1e-12), "tau-budget-exhausted"),
        ],
        ids=["landing-to-1e-15", "spacing-1e-12"],
    )
    @pytest.mark.parametrize("pair, A0", [("bernoulli_pair", [0.25]), ("gas_e_only_pair", [1.0])])
    def test_steps_at_rounding_scale_do_not_stall(self, request, pair, A0, settings, status):
        # rows 1e-12 apart, or landing rows down to sigma = 2e-15, are placed
        # on the same table of tau, whatever their spacing
        traj = integrate(request.getfixturevalue(pair), A0, **settings)
        assert traj.terminal_status == status
        if status == "tau-budget-exhausted":
            assert traj.tau[-1] == settings["tau_max"]
            assert len(traj) == 1001

    @pytest.mark.parametrize("a0", [1e-6, 1.0 - 1e-9])
    def test_start_near_the_boundary(self, bernoulli_pair, a0):
        # l runs from 13.8 (or -20.7) to 0; the first nodes start from l at
        # t = 1, where a full Newton step overshoots by orders of magnitude
        traj = integrate(bernoulli_pair, [a0], tau_max=5.0)
        assert traj.terminal_status == "equilibrium-reached"
        tau_eq = 2.0 * math.sqrt(2.0) * (math.pi / 4.0 - math.asin(math.sqrt(min(a0, 1.0 - a0))))
        assert abs(traj.tau[-1] - tau_eq) <= 1e-11
        assert abs(traj.A[-1, 0] - 0.5) <= 1e-15

    def test_far_start_of_a_gas_pair_converges(self):
        # vessels of volume 1 and 7: a start with 0.01 of the energy and 1.9
        # of the 2 particles in the small vessel is far from every node, and
        # its Newton steps leave lam_E > 0 or overshoot unless damped
        pair = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(7.0), [4.0, 2.0])
        traj = integrate(pair, [0.01, 1.9], tau_max=50.0, h=0.01)
        assert traj.terminal_status == "equilibrium-reached" and traj.sigma[-1] == 0.0
        # equal temperatures and densities: N = 2/8, E = 4/8
        assert np.max(np.abs(traj.A[-1] - [0.5, 0.25])) <= 1e-12
        assert np.all(np.diff(traj.S) > 0.0)

    def test_a_start_outside_a_domain_restarts_from_the_linear_start(self, monkeypatch):
        # with 8e-6 of the 2 particles in the small vessel, the series of l
        # over a panel still being split overshoots a natural domain at some
        # new nodes; they restart from the piecewise-linear interpolation of
        # the solved nodes, which lies inside both domains
        interpolations = []
        interp = np.interp

        def counting_interp(*args, **kwargs):
            interpolations.append(None)
            return interp(*args, **kwargs)

        monkeypatch.setattr(np, "interp", counting_interp)
        pair = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(20.0), [4.0, 2.0])
        traj = integrate(pair, [2.9417656819116895, 8.055627693397808e-06], tau_max=200.0, h=0.1)
        assert interpolations
        assert traj.terminal_status == "equilibrium-reached"
        # equal temperatures and densities: N = 2 / 21, E = 4 / 21
        assert np.max(np.abs(traj.A[-1] - [4.0 / 21.0, 2.0 / 21.0])) <= 1e-12

    @pytest.mark.parametrize("e0", [1e-6, 1e-12])
    def test_start_with_almost_no_energy_in_one_vessel(self, e0):
        # lam_E runs from 1.9e12 at t = 1 to 0.76 at t = 0: the first nodes
        # need dozens of halved steps and grow their steps back, nodes near
        # t = 1 stop on steps below the rounding of lam_E, and the rate
        # f ~ 1 / (t + 1e-13) peaks inside the first start panel of the
        # table of tau, so its first estimate is 2e8 times too large
        n1, n2, total = 1.2462278585353084, 2.535564351485701, 7.421325004712049
        vessels = IdealGasFamily(1.0, fixed_n=n1), IdealGasFamily(6.0, fixed_n=n2)
        pair = CompositeSystem(*vessels, [total])
        traj = integrate(pair, [e0], tau_max=80.0, h=0.1)
        assert traj.terminal_status == "equilibrium-reached"
        e_eq = total * n1 / (n1 + n2)  # equal temperatures
        assert abs(traj.A[-1, 0] - e_eq) <= 1e-12 * e_eq
        rate = lambda e: math.sqrt(1.5 * n1 / e**2 + 1.5 * n2 / (total - e) ** 2)
        edges = np.geomspace(e0, e_eq, 40)
        tau_eq = sum(quad(rate, a, b, epsabs=0.0, epsrel=1e-13)[0]
                     for a, b in zip(edges, edges[1:]))
        assert abs(traj.tau[-1] - tau_eq) <= 1e-11

    def test_one_point_evaluation_per_run(self, bernoulli_pair, monkeypatch):
        # the start; every row comes from the families' batched forward maps
        calls = []
        point = CompositeSystem.point

        def counting_point(self, *args, **kwargs):
            calls.append(None)
            return point(self, *args, **kwargs)

        monkeypatch.setattr(CompositeSystem, "point", counting_point)
        traj = integrate(bernoulli_pair, [0.25], tau_max=2.0)
        assert traj.terminal_status == "equilibrium-reached"
        assert len(calls) == 1

    def test_table_pair_matches_rk4_and_both_families(self):
        # a 3 x 50 table paired with itself: no closed form anywhere, so the
        # rows rest on the batched Newton solve of each node alone
        rng = np.random.default_rng(50)
        weights, stats = rng.uniform(0.5, 2.0, 50), rng.normal(size=(3, 50))
        fam = TabulatedFamily(DiscreteSpace(list(range(50)), weights), stats)
        A0 = tabulated_mean(weights, stats, rng.normal(0.0, 0.5, 3))
        A_T = A0 + tabulated_mean(weights, stats, rng.normal(0.0, 0.5, 3))
        pair = CompositeSystem(fam, fam, A_T)
        ray = integrate(pair, A0, tau_max=10.0, h=0.01)
        taus, rows_rk4 = rk4_rows(pair, A0, 0.01, 10.0)
        assert ray.terminal_status == "equilibrium-reached" and ray.sigma[-1] == 0.0
        near = np.abs(ray.tau[:, None] - taus[None, :]) <= 1e-12
        rows, partners = np.nonzero(near)
        assert len(rows) >= len(ray) - 20  # all but the landing rows
        # RK4's own error at this spacing is 3e-10
        assert np.max(np.abs(ray.A[rows] - rows_rk4[partners])) <= 1e-9
        for lam, lam_prime, A in zip(ray.lam, ray.lam_prime, ray.A):
            assert np.max(np.abs(fam.mean_parameters(lam) - A)) <= 1e-12
            assert np.max(np.abs(fam.mean_parameters(lam_prime) - (A_T - A))) <= 1e-12
