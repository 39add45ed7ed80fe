"""Closed-form Legendre maps of the Bernoulli and Gaussian families.

The closed forms are checked against independent routes: Newton on the
equivalent two-point table, finite differences of the log-partition and the
finite-difference entropy Hessian.  Work counts pin down that a point on a
closed-form family never reaches the partition-function evaluations and
validates its input once.
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
    MetricTensor,
    entropy,
    fd_metric_oracle,
    solve_lambda,
)
from helpers import fd_gradient, fd_hessian

EVALUATIONS = ("log_partition", "mean_parameters", "covariance")


def count_calls(monkeypatch, cls, names):
    """Wrap ``cls.<name>`` for each name and return the live call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def wrapper(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return counts


class TestBernoulliAgainstNewton:
    def test_twenty_points_agree_with_two_point_table(self, bernoulli, two_point):
        closed, newton = FamilyManifold(bernoulli), FamilyManifold(two_point)
        for a in np.linspace(0.01, 0.99, 20):
            p, q = closed.point([a]), newton.point([a])
            assert abs(p.force[0] - q.force[0]) <= 1e-12
            assert abs(p.S - q.S) <= 1e-12
            assert abs(p.metric.g[0, 0] - q.metric.g[0, 0]) <= 1e-12 * q.metric.g[0, 0]
            assert abs(p.sigma - q.sigma) <= 1e-12

    def test_textbook_values(self, bernoulli):
        a = 0.2
        pt = FamilyManifold(bernoulli).point([a])
        assert pt.force[0] == pytest.approx(math.log(4.0), abs=1e-15)
        assert pt.S == pytest.approx(-a * math.log(a) - (1 - a) * math.log(1 - a), abs=1e-15)
        assert pt.metric.g[0, 0] == pytest.approx(1.0 / (a * (1.0 - a)), rel=1e-15)


class TestGaussianClosedForms:
    def test_against_log_partition_differences(self, gaussian2, rng):
        for _ in range(10):
            A = rng.uniform(-2.0, 2.0, 2)
            lam = solve_lambda(gaussian2, A)
            # A = -grad log Z(lam) and g = (Hess log Z(lam))^-1
            mean = -fd_gradient(gaussian2.log_partition, lam)
            assert np.max(np.abs(mean - A)) <= 1e-8
            cov = fd_hessian(gaussian2.log_partition, lam)
            g = FamilyManifold(gaussian2).point(A).metric.g
            assert np.max(np.abs(g @ cov - np.eye(2))) <= 1e-6
            assert abs(entropy(gaussian2, A) - gaussian2.log_partition(lam) - lam @ A) <= 1e-12

    def test_against_fd_metric_oracle(self, rng):
        fam = GaussianMeanFamily(dim=3)
        for _ in range(10):
            A = rng.uniform(-3.0, 3.0, 3)
            g = FamilyManifold(fam).point(A).metric.g
            assert np.max(np.abs(g - fd_metric_oracle(fam, A))) <= 1e-5


class TestWorkCounts:
    @pytest.mark.parametrize(
        "family, A",
        [(BernoulliFamily(), [0.3]), (GaussianMeanFamily(dim=2), [0.4, -1.2])],
        ids=["bernoulli", "gaussian"],
    )
    def test_point_skips_partition_function_and_checks_once(self, monkeypatch, family, A):
        counts = count_calls(monkeypatch, type(family), EVALUATIONS + ("check_feasible",))
        pt = FamilyManifold(family).point(A)
        assert pt.sigma > 0.0
        assert {k: counts[k] for k in EVALUATIONS} == dict.fromkeys(EVALUATIONS, 0)
        assert counts["check_feasible"] == 1

    def test_composite_point_inverts_one_metric(self, monkeypatch, bernoulli_pair):
        calls = []
        original = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(m) or original(m))
        pt = bernoulli_pair.point([0.3])
        assert pt.sigma > 0.0
        assert len(calls) == 1


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
            solve_lambda(family, A)
        with pytest.raises(InfeasibleMeanError):
            entropy(family, A)

    def test_composite_boundary_raises(self):
        pair = CompositeSystem(BernoulliFamily(), BernoulliFamily(), [1.0])
        with pytest.raises(InfeasibleMeanError):
            pair.point([1.0])


class TestLazyInverse:
    def test_inverse_is_byte_equal_to_eager_inverse(self, bernoulli, ideal_gas, rng):
        matrices = [rng.normal(size=(3, 3)) for _ in range(5)]
        matrices = [m @ m.T + 3.0 * np.eye(3) for m in matrices]
        matrices += [
            bernoulli.neg_entropy_hessian(np.array([0.3])),
            ideal_gas.neg_entropy_hessian(np.array([3.0, 2.0])),
        ]
        for m in matrices:
            g = 0.5 * (m + m.T)
            inv = np.linalg.inv(g)
            eager = 0.5 * (inv + inv.T)
            assert MetricTensor.from_matrix(m).g_inv.tobytes() == eager.tobytes()
