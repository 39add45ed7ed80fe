"""Closed-form Legendre maps of the Bernoulli and Gaussian families.

The closed forms are checked against independent routes: Newton on the
equivalent two-point table, finite differences of the log-partition and the
finite-difference entropy Hessian.  Work counts pin down that a point on a
closed-form family makes one ``legendre`` call, never reaches the forward
map and validates its input once, and that its connection calls the family
no more.
"""

import math

import numpy as np
import pytest

from entroflow import (
    BernoulliFamily,
    CompositeSystem,
    FamilyManifold,
    GaussianMeanFamily,
    IdealGasFamily,
    InfeasibleMeanError,
    SingularModelError,
    christoffel,
    as_manifold,
)
from helpers import (
    MetricStub, count_calls, fd_gradient, fd_hessian, fd_metric_oracle, log_partition_oracle,
)


class TestBernoulliAgainstNewton:
    def test_twenty_points_agree_with_two_point_table(self, bernoulli, two_point):
        closed, newton = FamilyManifold(bernoulli), FamilyManifold(two_point)
        for a in np.linspace(0.01, 0.99, 20):
            p, q = closed.point([a]), newton.point([a])
            assert abs(p.force[0] - q.force[0]) <= 1e-12
            assert abs(p.S - q.S) <= 1e-12
            assert abs(p.g[0, 0] - q.g[0, 0]) <= 1e-12 * q.g[0, 0]
            assert abs(p.sigma - q.sigma) <= 1e-12

    def test_textbook_values(self, bernoulli):
        a = 0.2
        pt = FamilyManifold(bernoulli).point([a])
        assert pt.force[0] == pytest.approx(math.log(4.0), abs=1e-15)
        assert pt.S == pytest.approx(-a * math.log(a) - (1 - a) * math.log(1 - a), abs=1e-15)
        assert pt.g[0, 0] == pytest.approx(1.0 / (a * (1.0 - a)), rel=1e-15)


class TestGaussianClosedForms:
    def test_against_log_partition_differences(self, gaussian2, rng):
        for _ in range(10):
            A = rng.uniform(-2.0, 2.0, 2)
            lam = as_manifold(gaussian2).point(A).force
            # A = -grad log Z(lam) and g = (Hess log Z(lam))^-1
            log_z = lambda l: log_partition_oracle(gaussian2, l)  # noqa: E731
            mean = -fd_gradient(log_z, lam)
            assert np.max(np.abs(mean - A)) <= 1e-8
            cov = fd_hessian(log_z, lam)
            g = FamilyManifold(gaussian2).point(A).g
            assert np.max(np.abs(g @ cov - np.eye(2))) <= 1e-6
            assert abs(FamilyManifold(gaussian2).point(A).S - log_z(lam) - lam @ A) <= 1e-12

    def test_against_fd_metric_oracle(self, rng):
        fam = GaussianMeanFamily(dim=3)
        for _ in range(10):
            A = rng.uniform(-3.0, 3.0, 3)
            g = FamilyManifold(fam).point(A).g
            assert np.max(np.abs(g - fd_metric_oracle(fam, A))) <= 1e-5


class TestWorkCounts:
    @pytest.mark.parametrize(
        "family, A",
        [(BernoulliFamily(), [0.3]), (GaussianMeanFamily(dim=2), [0.4, -1.2]),
         (IdealGasFamily(volume=2.0), [3.0, 2.0]),
         (IdealGasFamily(volume=2.0, fixed_n=1.5), [3.0])],
        ids=["bernoulli", "gaussian", "gas", "gas-fixed-n"],
    )
    def test_point_makes_one_legendre_call_and_christoffel_none(self, monkeypatch, family, A):
        cls = type(family)
        methods = [name for name in dir(cls)
                   if not name.startswith("__") and callable(getattr(cls, name))]
        counts = count_calls(monkeypatch, cls, methods)
        pt = FamilyManifold(family).point(A)
        assert pt.sigma > 0.0
        assert (counts["legendre"], counts["check_feasible"], counts["natural_states"]) == (1, 1, 0)
        counts.update(dict.fromkeys(counts, 0))
        christoffel(FamilyManifold(family), pt)
        assert sum(counts.values()) == 0

    def test_composite_point_inverts_one_metric(self, monkeypatch, bernoulli_pair):
        calls = []
        original = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(m) or original(m))
        pt = bernoulli_pair.point([0.3])
        assert pt.sigma > 0.0
        assert len(calls) == 1

    def test_composite_point_factors_each_subsystem_once(self, monkeypatch, bernoulli_pair):
        # the sum of two checked metrics is positive definite: no third
        # factorization
        calls = []
        original = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m) or original(m))
        pt = bernoulli_pair.point([0.3])
        assert len(calls) == 2
        assert np.array_equal(pt.g, 0.5 * (pt.g + pt.g.T))

    def test_metric_sum_must_be_finite(self):
        # two finite metrics whose sum overflows
        big = MetricStub([[1.5e308]])
        with np.errstate(over="ignore"), pytest.raises(SingularModelError, match="not finite"):
            CompositeSystem(big, big, [0.0]).point([0.0])


class TestInfeasibleInputs:
    CASES = [
        (BernoulliFamily(), [0.0]),
        (BernoulliFamily(), [1.0]),
        (BernoulliFamily(), [1.5]),
        (BernoulliFamily(), [math.nan]),
        (GaussianMeanFamily(), [math.nan]),
        (IdealGasFamily(volume=1.0), [0.0, 1.0]),
        (IdealGasFamily(volume=1.0), [-1.0, 1.0]),
        (IdealGasFamily(volume=1.0, fixed_n=1.0), [0.0]),
    ]

    @pytest.mark.parametrize("family, A", CASES)
    def test_point_solve_and_entropy_raise(self, family, A):
        with pytest.raises(InfeasibleMeanError):
            FamilyManifold(family).point(A)
        with pytest.raises(InfeasibleMeanError):
            as_manifold(family).point(A).force
        with pytest.raises(InfeasibleMeanError):
            FamilyManifold(family).point(A).S

    def test_composite_boundary_raises(self):
        pair = CompositeSystem(BernoulliFamily(), BernoulliFamily(), [1.0])
        with pytest.raises(InfeasibleMeanError):
            pair.point([1.0])


class TestLazyInverse:
    def test_inverse_is_byte_equal_to_eager_inverse(self, rng):
        matrices = [rng.normal(size=(3, 3)) for _ in range(5)]
        matrices = [m @ m.T + 3.0 * np.eye(3) for m in matrices]
        # -Hess S of Bernoulli at 0.3 and of the gas at (E, N) = (3, 2)
        matrices += [
            np.array([[1.0 / (0.3 * 0.7)]]),
            np.array([[1.5 * 2.0 / 3.0**2, -1.5 / 3.0], [-1.5 / 3.0, 2.5 / 2.0]]),
        ]
        for m in matrices:
            g = 0.5 * (m + m.T)
            inv = np.linalg.inv(g)
            eager = 0.5 * (inv + inv.T)
            pt = FamilyManifold(MetricStub(m)).point(np.zeros(len(m)))
            assert pt.g_inv.tobytes() == eager.tobytes()
