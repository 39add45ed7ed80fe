import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    BernoulliFamily,
    DiscreteSpace,
    IdealGasFamily,
    InfeasibleMeanError,
    FamilyManifold,
    SingularModelError,
    TabulatedFamily,
    entropy,
    solve_lambda,
)
from helpers import fd_gradient, random_tabulated, random_feasible_mean


def bernoulli_lambda(A):
    # analytic inversion of the two-point family
    return math.log((1.0 - A) / A)


def bernoulli_entropy(A):
    return -A * math.log(A) - (1.0 - A) * math.log(1.0 - A)


class TestSolveLambda:
    def test_symmetric_point(self, bernoulli):
        assert abs(solve_lambda(bernoulli, [0.5])[0]) <= 1e-12

    def test_analytic_inversion(self, bernoulli):
        got = solve_lambda(bernoulli, [0.25])[0]
        assert got == pytest.approx(bernoulli_lambda(0.25), abs=1e-12)
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gaussian_inversion(self, gaussian):
        assert solve_lambda(gaussian, [-2.0])[0] == pytest.approx(2.0, abs=1e-12)

    def test_warm_start_agrees_with_cold(self, two_point):
        cold = solve_lambda(two_point, [0.3])
        warm = solve_lambda(two_point, [0.3], init=cold + 1e-4)
        assert cold[0] == pytest.approx(bernoulli_lambda(0.3), abs=1e-12)
        assert np.max(np.abs(cold - warm)) <= 1e-10

    def test_infeasible_bernoulli(self, bernoulli):
        for bad in ([0.0], [1.0], [1.5], [-0.2]):
            with pytest.raises(InfeasibleMeanError):
                solve_lambda(bernoulli, bad)

    def test_infeasible_ideal_gas(self, ideal_gas):
        with pytest.raises(InfeasibleMeanError):
            solve_lambda(ideal_gas, [-1.0, 2.0])
        with pytest.raises(InfeasibleMeanError):
            solve_lambda(ideal_gas, [1.0, 0.0])

    def test_out_of_hull_tabulated_diverges(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        target = fam.stats.max(axis=1) + 1.0
        with pytest.raises(InfeasibleMeanError):
            solve_lambda(fam, target)

    def test_degenerate_family_reports_singular(self):
        fam = TabulatedFamily(DiscreteSpace([0, 1], [1.0, 1.0]), [[1.0, 1.0]])
        with pytest.raises(SingularModelError):
            solve_lambda(fam, [1.5])

    def test_ideal_gas_bypasses_solver(self, ideal_gas):
        lam = solve_lambda(ideal_gas, [3.0, 2.0])
        assert lam[0] == pytest.approx(1.5 * 2.0 / 3.0, abs=1e-14)
        assert lam[1] == pytest.approx(
            math.log(2.0 / 2.0) + 1.5 * math.log(3.0 / 2.0), abs=1e-14
        )

    def test_round_trip_100_points_per_family(
        self, bernoulli, two_point, gaussian2, ideal_gas, rng
    ):
        families = [bernoulli, two_point, gaussian2, random_tabulated(rng, 2, 6)]
        for fam in families:
            for _ in range(100):
                A = random_feasible_mean(rng, fam)
                back = fam.mean_parameters(solve_lambda(fam, A))
                assert np.max(np.abs(back - A)) <= 1e-9
        for _ in range(100):
            A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
            back = ideal_gas.mean_parameters(solve_lambda(ideal_gas, A))
            assert np.max(np.abs(back - A)) <= 1e-9 * np.max(np.abs(A))


class TestEntropy:
    def test_bernoulli_max(self, bernoulli):
        assert entropy(bernoulli, [0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bernoulli_two_term_oracle(self, bernoulli):
        assert entropy(bernoulli, [0.25]) == pytest.approx(
            bernoulli_entropy(0.25), abs=1e-12
        )

    def test_ideal_gas_closed_form(self):
        for n in (1.0, 2.0, 3.0):
            fam = IdealGasFamily(volume=n)  # V = N so V/N = 1
            got = entropy(fam, [1.5 * n, n])  # E/N = 1.5
            assert got == pytest.approx(n * (1.5 * math.log(1.5) + 2.5), abs=1e-12)

    def test_legendre_identity(self, bernoulli, two_point, gaussian, ideal_gas, rng):
        cases = [
            (bernoulli, np.array([rng.uniform(0.05, 0.95)])),
            (two_point, np.array([rng.uniform(0.05, 0.95)])),
            (gaussian, rng.normal(size=1)),
            (ideal_gas, np.array([rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0)])),
        ]
        for fam, A in cases:
            lam = solve_lambda(fam, A)
            s = entropy(fam, A)
            # duality gap: S(A) - log Z(lam) - lam . A = 0
            assert abs(s - fam.log_partition(lam) - lam @ A) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        a1=st.floats(0.05, 0.95),
        a2=st.floats(0.05, 0.95),
        t=st.floats(0.01, 0.99),
    )
    def test_concavity(self, a1, a2, t):
        fam = BernoulliFamily()
        mix = t * a1 + (1.0 - t) * a2
        lhs = entropy(fam, [mix])
        rhs = t * entropy(fam, [a1]) + (1.0 - t) * entropy(fam, [a2])
        assert lhs >= rhs - 1e-12

    def test_concavity_tabulated(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        for _ in range(20):
            A1 = random_feasible_mean(rng, fam)
            A2 = random_feasible_mean(rng, fam)
            t = rng.uniform(0.01, 0.99)
            mix = t * A1 + (1.0 - t) * A2
            assert entropy(fam, mix) >= t * entropy(fam, A1) + (1.0 - t) * entropy(
                fam, A2
            ) - 1e-12


class TestEntropyGradient:
    def test_maximum(self, bernoulli):
        assert abs(solve_lambda(bernoulli, [0.5])[0]) <= 1e-12

    def test_analytic(self, bernoulli):
        got = solve_lambda(bernoulli, [0.25])[0]
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_ideal_gas_inverse_temperature(self, ideal_gas):
        grad = solve_lambda(ideal_gas, [3.0, 2.0])
        assert grad[0] == pytest.approx(1.5 * 2.0 / 3.0, abs=1e-14)

    def test_matches_fd_of_entropy(self, bernoulli, two_point, ideal_gas, rng):
        for fam, A in [
            (bernoulli, np.array([0.3])),
            (bernoulli, np.array([0.8])),
            (two_point, np.array([0.3])),
            (two_point, np.array([0.8])),
            (ideal_gas, np.array([2.5, 1.5])),
        ]:
            grad = solve_lambda(fam, A)
            fd = fd_gradient(lambda x: entropy(fam, x), A)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))

    def test_matches_fd_tabulated(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=7)
        for _ in range(5):
            A = random_feasible_mean(rng, fam)
            grad = solve_lambda(fam, A)
            fd = fd_gradient(lambda x: entropy(fam, x), A)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


class TestManifoldPoint:
    def test_caches_are_consistent(self, bernoulli):
        pt = FamilyManifold(bernoulli).point([0.25])
        assert np.max(np.abs(bernoulli.mean_parameters(pt.force) - pt.A)) <= 1e-10
        assert abs(pt.S - bernoulli.log_partition(pt.force) - pt.force @ pt.A) <= 1e-10

    def test_ideal_gas_point(self, ideal_gas):
        pt = FamilyManifold(ideal_gas).point([3.0, 2.0])
        assert abs(pt.S - ideal_gas.log_partition(pt.force) - pt.force @ pt.A) <= 1e-10

    def test_immutable(self, bernoulli):
        pt = FamilyManifold(bernoulli).point([0.25])
        with pytest.raises(AttributeError):
            pt.S = 0.0
