import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from entroflow import (
    BernoulliFamily,
    DiscreteSpace,
    DomainError,
    GaussianMeanFamily,
    IdealGasFamily,
    InfeasibleMeanError,
    ParseError,
    SingularModelError,
    TabulatedFamily,
    UnknownMicrostateError,
    ValidationError,
    solve_lambda,
    tabulated_from_json,
)
from helpers import fd_gradient, fd_hessian, random_tabulated, tabulated_states


def bernoulli_as_tabulated():
    return TabulatedFamily(DiscreteSpace([0, 1], [1.0, 1.0]), [[0.0, 1.0]])


class TestLogPartition:
    def test_bernoulli_uniform(self, bernoulli):
        assert bernoulli.log_partition([0.0]) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_bernoulli_two_term_sum_oracle(self, bernoulli):
        lam = math.log(3.0)
        # direct two-term summation: m=1 on x in {0,1}
        oracle = math.log(math.exp(-lam * 0.0) + math.exp(-lam * 1.0))
        assert bernoulli.log_partition([lam]) == pytest.approx(oracle, abs=1e-14)
        assert oracle == pytest.approx(math.log(4.0 / 3.0), abs=1e-14)

    def test_gaussian_quadrature_oracle(self, gaussian):
        val = gaussian.log_partition([0.0])
        assert val == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-14)
        integral, _ = quad(lambda x: math.exp(-0.5 * x * x), -np.inf, np.inf)
        assert val == pytest.approx(math.log(integral), abs=1e-10)

    def test_large_lambda_does_not_overflow(self, bernoulli):
        # naive summation would overflow: exp(500) is inf
        assert bernoulli.log_partition([-500.0]) == pytest.approx(500.0, rel=1e-12)
        fam = random_tabulated(np.random.default_rng(0), n_dim=2, n_points=5)
        assert np.isfinite(fam.log_partition([300.0, -300.0]))

    def test_nonfinite_lambda_rejected(self, bernoulli):
        with pytest.raises(DomainError):
            bernoulli.log_partition([np.nan])
        with pytest.raises(DomainError):
            bernoulli.log_partition([np.inf])


class TestMeanParameters:
    def test_bernoulli_symmetric(self, bernoulli):
        assert bernoulli.mean_parameters([0.0])[0] == pytest.approx(0.5, abs=1e-14)

    def test_bernoulli_two_term_oracle(self, bernoulli):
        lam = math.log(3.0)
        z = 1.0 + math.exp(-lam)
        oracle = math.exp(-lam) / z
        got = bernoulli.mean_parameters([lam])[0]
        assert got == pytest.approx(oracle, abs=1e-14)
        assert got == pytest.approx(0.25, abs=1e-13)

    def test_gaussian_quadrature_oracle(self, gaussian):
        got = gaussian.mean_parameters([2.0])[0]
        assert got == pytest.approx(-2.0, abs=1e-13)
        z, _ = quad(lambda x: math.exp(-0.5 * x * x - 2.0 * x), -np.inf, np.inf)
        num, _ = quad(lambda x: x * math.exp(-0.5 * x * x - 2.0 * x), -np.inf, np.inf)
        assert got == pytest.approx(num / z, abs=1e-9)

    @pytest.mark.parametrize("lam", [[-1.2], [0.0], [0.7], [2.5]])
    def test_matches_fd_gradient_of_log_partition(self, bernoulli, lam):
        grad = fd_gradient(lambda l: -bernoulli.log_partition(l), np.asarray(lam))
        got = bernoulli.mean_parameters(lam)
        assert np.max(np.abs(got - grad)) <= 1e-6 * max(1.0, np.max(np.abs(got)))

    def test_tabulated_matches_fd_gradient(self, rng):
        fam = random_tabulated(rng, n_dim=3, n_points=7)
        for _ in range(5):
            lam = rng.uniform(-1.0, 1.0, 3)
            grad = fd_gradient(lambda l: -fam.log_partition(l), lam)
            got = fam.mean_parameters(lam)
            assert np.max(np.abs(got - grad)) <= 1e-6 * max(1.0, np.max(np.abs(got)))


class TestCovariance:
    def test_bernoulli_fair_coin(self, bernoulli):
        assert bernoulli.covariance([0.0])[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_bernoulli_two_term_oracle(self, bernoulli):
        lam = math.log(3.0)
        p = bernoulli.mean_parameters([lam])[0]
        assert bernoulli.covariance([lam])[0, 0] == pytest.approx(p * (1 - p), abs=1e-14)
        assert bernoulli.covariance([lam])[0, 0] == pytest.approx(0.1875, abs=1e-13)

    def test_gaussian_unit_variance(self, gaussian, rng):
        for _ in range(5):
            lam = rng.normal(size=1)
            assert gaussian.covariance(lam)[0, 0] == 1.0

    def test_matches_fd_hessian_of_log_partition(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        for _ in range(5):
            lam = rng.uniform(-1.0, 1.0, 2)
            hess = fd_hessian(fam.log_partition, lam, step=1e-4)
            got = fam.covariance(lam)
            assert np.max(np.abs(got - hess)) <= 1e-5 * np.max(np.abs(got))

    def test_symmetric_and_cholesky(self, rng):
        fam = random_tabulated(rng, n_dim=3, n_points=8)
        for _ in range(10):
            cov = fam.covariance(rng.uniform(-1.0, 1.0, 3))
            assert np.array_equal(cov, cov.T)
            np.linalg.cholesky(cov)

    def test_degenerate_statistics_raise(self):
        fam = TabulatedFamily(DiscreteSpace([0, 1], [1.0, 1.0]), [[2.0, 2.0]])
        with pytest.raises(SingularModelError):
            fam.covariance([0.5])


def ray_rate_cases():
    """(family, lam0) pairs: the closed forms and random tables, one of them
    offset by 1e6."""
    rng = np.random.default_rng(31)
    cases = [
        (BernoulliFamily(), np.array([1.3])),
        (BernoulliFamily(), np.array([-7.5])),
        (GaussianMeanFamily(), np.array([-2.0])),
        (GaussianMeanFamily(dim=3), np.array([0.7, -1.1, 2.3])),
    ]
    for n_dim, n_points in [(1, 4), (2, 6), (3, 50)]:
        fam = random_tabulated(rng, n_dim=n_dim, n_points=n_points)
        cases.append((fam, rng.normal(0.0, 0.8, n_dim)))
    space = DiscreteSpace([0, 1, 2, 3], [1.0, 2.0, 0.5, 1.0])
    offset = TabulatedFamily(space, 1e6 + np.array([[0.0, 1.0, 2.5, 4.0], [1.0, -1.0, 0.5, 0.0]]))
    cases.append((offset, np.array([0.6, -0.9])))
    return cases


RAY_RATE_CASES = ray_rate_cases()
RAY_RATE_IDS = ["bernoulli", "bernoulli-far", "gaussian", "gaussian3",
                "table1x4", "table2x6", "table3x50", "table-offset-1e6"]


def covariance_rate(fam, lam0, t):
    return math.sqrt(float(lam0 @ fam.covariance(t * lam0) @ lam0))


class TestRayRate:
    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_matches_the_covariance(self, fam, lam0):
        ts = np.array([0.0, 1e-3, 0.5, 1.0])
        got = fam.ray_rate(lam0)(ts)
        want = np.array([covariance_rate(fam, lam0, t) for t in ts])
        assert got.shape == ts.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(RAY_RATE_CASES), t=st.floats(0.0, 1.0))
    def test_matches_the_covariance_anywhere_on_the_ray(self, case, t):
        fam, lam0 = case
        want = covariance_rate(fam, lam0, t)
        assert abs(fam.ray_rate(lam0)(np.array([t]))[0] - want) <= 1e-13 * want

    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_batched_call_equals_single_calls(self, fam, lam0):
        rate = fam.ray_rate(lam0)
        ts = np.linspace(0.0, 1.0, 7)
        singles = [rate(np.array([t]))[0] for t in ts]
        assert rate(ts).tolist() == singles

    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_lam0_is_domain_checked(self, fam, lam0):
        bad = lam0.copy()
        bad[-1] = math.inf
        with pytest.raises(DomainError):
            fam.ray_rate(bad)

    def test_ideal_gas_declares_no_kernel(self, ideal_gas):
        # its natural domain excludes lam = 0, so no ray ends at a maximum
        with pytest.raises(NotImplementedError):
            ideal_gas.ray_rate([1.0, 0.5])


def states_oracle(fam, lam0, ts):
    """(A, S, covariance) at t lam0 for each t, from closed forms or by
    direct summation over the table."""
    lams = np.multiply.outer(np.asarray(ts, dtype=float), lam0)
    if isinstance(fam, GaussianMeanFamily):
        A = -lams
        S = 0.5 * fam.n_dim * math.log(2.0 * math.pi) - 0.5 * np.sum(A * A, axis=1)
        return A, S, np.broadcast_to(np.eye(fam.n_dim), (len(ts), fam.n_dim, fam.n_dim))
    if isinstance(fam, BernoulliFamily):
        return tabulated_states([1.0, 1.0], [[0.0, 1.0]], lams)
    return tabulated_states(fam.space.weights, fam.stats, lams)


def assert_states_match(fam, lam0, ts):
    A, S, g, g_inv = fam.ray_states(lam0)(np.asarray(ts, dtype=float))
    want_A, want_S, want_cov = states_oracle(fam, lam0, ts)
    k, d = len(ts), fam.n_dim
    assert A.shape == (k, d) and S.shape == (k,) and g.shape == g_inv.shape == (k, d, d)
    assert np.all(np.abs(A - want_A) <= 1e-13 * np.maximum(1.0, np.abs(want_A)))
    assert np.all(np.abs(S - want_S) <= 1e-13 * np.maximum(1.0, np.abs(want_S)))
    scale = np.max(np.abs(want_cov), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(g_inv - want_cov) <= 1e-13 * scale)
    # g is the inverse metric's inverse, and exactly symmetric
    assert np.allclose(g @ want_cov, np.eye(d), rtol=0.0, atol=1e-11)
    assert np.array_equal(g, g.transpose(0, 2, 1))


class TestRayStates:
    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_matches_the_moments(self, fam, lam0):
        assert_states_match(fam, lam0, [0.0, 1e-3, 0.5, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(RAY_RATE_CASES), t=st.floats(0.0, 1.0))
    def test_matches_the_moments_anywhere_on_the_ray(self, case, t):
        assert_states_match(*case, [t])

    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_batched_call_equals_single_calls(self, fam, lam0):
        states = fam.ray_states(lam0)
        ts = np.linspace(0.0, 1.0, 7)
        whole = states(ts)
        for i, t in enumerate(ts):
            for got, single in zip(whole, states(np.array([t]))):
                assert np.array_equal(got[i], single[0])

    def test_ideal_gas_declares_no_states(self, ideal_gas):
        with pytest.raises(NotImplementedError):
            ideal_gas.ray_states([1.0, 0.5])


def natural_states_cases():
    """(family, lams) pairs: every family, both ideal gases, random tables
    and a table offset by 1e9, at rows inside the natural domain."""
    rng = np.random.default_rng(37)
    gas_lams = np.column_stack([rng.uniform(0.1, 4.0, 6), rng.normal(0.0, 1.0, 6)])
    cases = [
        (BernoulliFamily(), rng.normal(0.0, 5.0, (6, 1))),
        (GaussianMeanFamily(), rng.normal(0.0, 2.0, (6, 1))),
        (GaussianMeanFamily(dim=3), rng.normal(0.0, 2.0, (6, 3))),
        (IdealGasFamily(2.0), gas_lams),
        (IdealGasFamily(2.0, fixed_n=1.5), gas_lams[:, :1]),
    ]
    for n_dim, n_points in [(1, 4), (3, 50)]:
        cases.append((random_tabulated(rng, n_dim=n_dim, n_points=n_points),
                      rng.normal(0.0, 0.8, (6, n_dim))))
    offset = random_tabulated(rng, n_dim=2, n_points=8)
    offset = TabulatedFamily(offset.space, 1e9 + offset.stats)
    cases.append((offset, rng.normal(0.0, 0.8, (6, 2))))
    return cases


NATURAL_CASES = natural_states_cases()
NATURAL_IDS = ["bernoulli", "gaussian", "gaussian3", "gas-EN", "gas-E",
               "table1x4", "table3x50", "table-offset-1e9"]


class TestNaturalStates:
    @pytest.mark.parametrize("fam, lams", NATURAL_CASES, ids=NATURAL_IDS)
    def test_matches_the_single_point_maps(self, fam, lams):
        A, S, cov = fam.natural_states(lams)
        k, d = lams.shape
        assert A.shape == (k, d) and S.shape == (k,) and cov.shape == (k, d, d)
        for i, lam in enumerate(lams):
            mean = fam.mean_parameters(lam)
            assert np.all(np.abs(A[i] - mean) <= 1e-13 * np.maximum(1.0, np.abs(mean)))
            # log Z and lam . A each round at the scale of lam . A
            entropy = fam.log_partition(lam) + float(lam @ mean)
            scale = 1.0 + abs(entropy) + abs(float(lam @ mean))
            assert abs(S[i] - entropy) <= 1e-13 * scale
            want = fam.covariance(lam)
            assert np.all(np.abs(cov[i] - want) <= 1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("fixed_n", [None, 1.5], ids=["gas-EN", "gas-E"])
    def test_rows_outside_the_gas_domain_are_not_finite(self, fixed_n):
        fam = IdealGasFamily(2.0, fixed_n=fixed_n)
        lams = np.array([[1.0, 0.5], [0.0, 0.5], [-2.0, 0.5], [3.0, -1.0]])[:, :fam.n_dim]
        A, S, cov = fam.natural_states(lams)
        inside = np.array([True, False, False, True])
        for rows, finite in ((inside, True), (~inside, False)):
            for x in (A[rows], S[rows], cov[rows]):
                assert np.all(np.isfinite(x) == finite)


class TestLogDensity:
    def test_bernoulli_examples(self, bernoulli):
        assert bernoulli.log_density([0.0], 1) == pytest.approx(math.log(0.5), abs=1e-14)
        lam = math.log(3.0)
        assert bernoulli.log_density([lam], 1) == pytest.approx(math.log(0.25), abs=1e-13)
        assert bernoulli.log_density([lam], 0) == pytest.approx(math.log(0.75), abs=1e-13)

    def test_unknown_microstate(self, bernoulli):
        with pytest.raises(UnknownMicrostateError):
            bernoulli.log_density([0.0], 2)

    def test_tabulated_unknown_label(self, rng):
        fam = random_tabulated(rng, n_dim=1, n_points=4)
        with pytest.raises(UnknownMicrostateError):
            fam.log_density([0.0], "nope")

    def test_ideal_gas_has_no_density(self, ideal_gas):
        with pytest.raises(UnknownMicrostateError):
            ideal_gas.log_density([1.0, 0.0], 0)

    @settings(max_examples=30)
    @given(lam=st.floats(-5.0, 5.0))
    def test_discrete_normalization(self, lam):
        fam = bernoulli_as_tabulated()
        total = sum(math.exp(fam.log_density([lam], x)) for x in (0, 1))
        assert abs(total - 1.0) <= 1e-12

    def test_tabulated_normalization(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        for _ in range(10):
            lam = rng.uniform(-2.0, 2.0, 2)
            total = sum(math.exp(fam.log_density(lam, x)) for x in fam.space.points)
            assert abs(total - 1.0) <= 1e-12

    def test_gaussian_normalization_quadrature(self, gaussian):
        for lam in (-1.3, 0.0, 2.0):
            total, _ = quad(
                lambda x: math.exp(gaussian.log_density([lam], [x])), -np.inf, np.inf
            )
            assert abs(total - 1.0) <= 1e-8


class TestLogPartitionConvexity:
    def test_midpoint_convexity(self, rng):
        # log Z is convex in lam for every family
        fam = random_tabulated(rng, n_dim=3, n_points=7)
        for _ in range(20):
            a = rng.uniform(-2.0, 2.0, 3)
            b = rng.uniform(-2.0, 2.0, 3)
            mid = fam.log_partition(0.5 * (a + b))
            assert mid <= 0.5 * (fam.log_partition(a) + fam.log_partition(b)) + 1e-12


class TestClosedFormVsTabulated:
    def test_bernoulli_agreement(self, bernoulli):
        tab = bernoulli_as_tabulated()
        for lam in np.linspace(-4.0, 4.0, 17):
            z1, z2 = bernoulli.log_partition([lam]), tab.log_partition([lam])
            assert abs(z1 - z2) <= 1e-10 * max(1.0, abs(z1))
            a1, a2 = bernoulli.mean_parameters([lam]), tab.mean_parameters([lam])
            assert np.max(np.abs(a1 - a2)) <= 1e-10 * max(1.0, np.max(np.abs(a1)))
            c1, c2 = bernoulli.covariance([lam]), tab.covariance([lam])
            assert np.max(np.abs(c1 - c2)) <= 1e-10 * np.max(np.abs(c1))


class TestIdealGas:
    def test_natural_domain(self, ideal_gas):
        with pytest.raises(DomainError):
            ideal_gas.log_partition([-1.0, 0.0])
        with pytest.raises(DomainError):
            ideal_gas.log_partition([0.0, 0.0])

    def test_duality_consistency(self, ideal_gas, rng):
        # log Z, mean and covariance must be one consistent Legendre system
        for _ in range(10):
            lam = np.array([rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)])
            mean = ideal_gas.mean_parameters(lam)
            grad = fd_gradient(lambda l: -ideal_gas.log_partition(l), lam)
            assert np.max(np.abs(mean - grad)) <= 1e-6 * np.max(np.abs(mean))
            cov = ideal_gas.covariance(lam)
            hess = fd_hessian(ideal_gas.log_partition, lam, step=1e-4)
            assert np.max(np.abs(cov - hess)) <= 1e-5 * np.max(np.abs(cov))

    def test_fixed_n_variant(self):
        gas = IdealGasFamily(volume=1.0, fixed_n=1.0)
        assert gas.n_dim == 1
        assert gas.labels == ("E",)
        lam = gas.solve_mean([2.0])
        assert lam[0] == pytest.approx(1.5 / 2.0, abs=1e-14)
        grad = fd_gradient(lambda l: -gas.log_partition(l), lam)
        assert grad[0] == pytest.approx(2.0, rel=1e-7)

    def test_labels(self, ideal_gas, bernoulli):
        assert ideal_gas.labels == ("E", "N")
        assert bernoulli.labels == ("a1",)


class TestConstruction:
    def test_space_needs_two_points(self):
        with pytest.raises(ValueError):
            DiscreteSpace([0], [1.0])

    def test_space_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DiscreteSpace([0, 0], [1.0, 1.0])

    def test_space_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            DiscreteSpace([0, 1], [1.0, 0.0])
        with pytest.raises(ValueError):
            DiscreteSpace([0, 1], [1.0, -2.0])

    def test_rank_deficient_statistics_rejected(self):
        space = DiscreteSpace([0, 1, 2], [1.0, 1.0, 1.0])
        with pytest.raises(SingularModelError):
            TabulatedFamily(space, [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])

    def test_stats_shape_checked(self):
        space = DiscreteSpace([0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            TabulatedFamily(space, [[0.0, 1.0, 2.0]])

    def test_stats_magnitude_bounded(self):
        # the third cumulant cubes centred statistics: 1e300 would overflow
        space = DiscreteSpace([0, 1, 2], [1.0, 1.0, 1.0])
        TabulatedFamily(space, [[-1e100, 0.0, 1e100]])
        with pytest.raises(ValueError, match="magnitude"):
            TabulatedFamily(space, [[1e300, 1.0, 3.0]])

    @pytest.mark.parametrize("A", [[0.0], [3.0], [-0.5], [1e300]])
    def test_mean_outside_statistic_range_infeasible(self, A):
        fam = TabulatedFamily(DiscreteSpace(["a", "b", "c"], [1.0, 2.0, 1.0]), [[0.0, 1.0, 3.0]])
        with pytest.raises(InfeasibleMeanError, match="outside the open range"):
            fam.check_feasible(A)
        with pytest.raises(InfeasibleMeanError):
            solve_lambda(fam, A)
        assert fam.check_feasible([2.999])[0] == 2.999

    def test_gaussian_dim_validation(self):
        with pytest.raises(ValueError):
            GaussianMeanFamily(dim=0)

    def test_gas_volume_validation(self):
        with pytest.raises(ValueError):
            IdealGasFamily(volume=-1.0)


class TestJsonLoading:
    def write(self, tmp_path, doc, raw=None):
        path = tmp_path / "family.json"
        path.write_text(raw if raw is not None else json.dumps(doc, indent=1))
        return path

    def test_valid_document(self, tmp_path, bernoulli):
        path = self.write(
            tmp_path,
            {"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]},
        )
        fam = tabulated_from_json(path)
        assert fam.n_dim == 1
        assert fam.log_partition([0.3]) == pytest.approx(
            bernoulli.log_partition([0.3]), abs=1e-14
        )

    def test_unknown_key_with_line(self, tmp_path):
        path = self.write(
            tmp_path,
            {"points": [0, 1], "weights": [1, 1], "stats": [[0, 1]], "wieghts": [1]},
        )
        with pytest.raises(ParseError, match=r"line \d+.*wieghts"):
            tabulated_from_json(path)

    def test_missing_key(self, tmp_path):
        path = self.write(tmp_path, {"points": [0, 1], "weights": [1, 1]})
        with pytest.raises(ValidationError, match="stats"):
            tabulated_from_json(path)

    def test_nonpositive_weight_reports_line(self, tmp_path):
        path = self.write(
            tmp_path, {"points": [0, 1], "weights": [1.0, 0.0], "stats": [[0, 1]]}
        )
        with pytest.raises(ValidationError, match=r"line \d+.*weights\[1\]"):
            tabulated_from_json(path)

    def test_ragged_stats(self, tmp_path):
        path = self.write(
            tmp_path, {"points": [0, 1], "weights": [1, 1], "stats": [[0.0]]}
        )
        with pytest.raises(ValidationError, match="stats"):
            tabulated_from_json(path)

    @pytest.mark.parametrize(
        "field, value",
        [("points", 5), ("weights", {"a": 1}), ("stats", [[{}, 1.0]]), ("stats", [3.0])],
    )
    def test_fields_of_the_wrong_type_are_violations(self, tmp_path, field, value):
        doc = {"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]], field: value}
        with pytest.raises(ValidationError, match=field):
            tabulated_from_json(self.write(tmp_path, doc))

    def test_invalid_json_reports_line(self, tmp_path):
        path = self.write(tmp_path, None, raw='{"points": [0, 1],\n  "weights": }')
        with pytest.raises(ParseError, match="line 2"):
            tabulated_from_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            tabulated_from_json(tmp_path / "absent.json")
