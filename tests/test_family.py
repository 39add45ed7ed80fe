import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from entroflow import (
    BernoulliFamily,
    DomainError,
    GaussianMeanFamily,
    IdealGasFamily,
    InfeasibleMeanError,
    ParseError,
    SingularModelError,
    FamilyManifold,
    TabulatedFamily,
    ValidationError,
    as_manifold,
    tabulated_from_json,
)
from entroflow import family as family_module
from entroflow.family import _BinnedRay
from helpers import (
    OracleTable,
    fd_gradient, fd_hessian, log_partition_oracle, long_double_ray, natural_row, random_tabulated,
    states_oracle,
)


def bernoulli_as_tabulated():
    return TabulatedFamily([1.0, 1.0], [[0.0, 1.0]])


class TestLogPartition:
    def test_bernoulli_uniform(self, bernoulli):
        assert natural_row(bernoulli, [0.0])[0] == pytest.approx(math.log(2.0), abs=1e-14)

    def test_bernoulli_two_term_sum_oracle(self, bernoulli):
        lam = math.log(3.0)
        # direct two-term summation: m=1 on x in {0,1}
        oracle = math.log(math.exp(-lam * 0.0) + math.exp(-lam * 1.0))
        assert natural_row(bernoulli, [lam])[0] == pytest.approx(oracle, abs=1e-14)
        assert oracle == pytest.approx(math.log(4.0 / 3.0), abs=1e-14)

    def test_gaussian_quadrature_oracle(self, gaussian):
        val = natural_row(gaussian, [0.0])[0]
        assert val == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-14)
        integral, _ = quad(lambda x: math.exp(-0.5 * x * x), -np.inf, np.inf)
        assert val == pytest.approx(math.log(integral), abs=1e-10)

    def test_large_lambda_does_not_overflow(self, bernoulli):
        # naive summation would overflow: exp(500) is inf
        assert natural_row(bernoulli, [-500.0])[0] == pytest.approx(500.0, rel=1e-12)
        fam = random_tabulated(np.random.default_rng(0), n_dim=2, n_points=5)
        assert all(np.all(np.isfinite(x)) for x in natural_row(fam, [300.0, -300.0]))

    def test_nonfinite_lambda_rejected(self, bernoulli):
        for bad in ([np.nan], [np.inf]):
            with pytest.raises(DomainError):
                bernoulli.check_natural_domain(bad)
            with pytest.raises(DomainError):
                bernoulli.ray(bad)


class TestMeanParameters:
    def test_bernoulli_symmetric(self, bernoulli):
        assert natural_row(bernoulli, [0.0])[1][0] == pytest.approx(0.5, abs=1e-14)

    def test_bernoulli_two_term_oracle(self, bernoulli):
        lam = math.log(3.0)
        z = 1.0 + math.exp(-lam)
        oracle = math.exp(-lam) / z
        got = natural_row(bernoulli, [lam])[1][0]
        assert got == pytest.approx(oracle, abs=1e-14)
        assert got == pytest.approx(0.25, abs=1e-13)

    def test_gaussian_quadrature_oracle(self, gaussian):
        got = natural_row(gaussian, [2.0])[1][0]
        assert got == pytest.approx(-2.0, abs=1e-13)
        z, _ = quad(lambda x: math.exp(-0.5 * x * x - 2.0 * x), -np.inf, np.inf)
        num, _ = quad(lambda x: x * math.exp(-0.5 * x * x - 2.0 * x), -np.inf, np.inf)
        assert got == pytest.approx(num / z, abs=1e-9)

    @pytest.mark.parametrize("lam", [[-1.2], [0.0], [0.7], [2.5]])
    def test_matches_fd_gradient_of_log_partition(self, bernoulli, lam):
        grad = fd_gradient(lambda l: -natural_row(bernoulli, l)[0], np.asarray(lam))
        got = natural_row(bernoulli, lam)[1]
        assert np.max(np.abs(got - grad)) <= 1e-6 * max(1.0, np.max(np.abs(got)))

    def test_tabulated_matches_fd_gradient(self, rng):
        fam = random_tabulated(rng, n_dim=3, n_points=7)
        for _ in range(5):
            lam = rng.uniform(-1.0, 1.0, 3)
            grad = fd_gradient(lambda l: -natural_row(fam, l)[0], lam)
            got = natural_row(fam, lam)[1]
            assert np.max(np.abs(got - grad)) <= 1e-6 * max(1.0, np.max(np.abs(got)))


class TestCovariance:
    def test_bernoulli_fair_coin(self, bernoulli):
        assert natural_row(bernoulli, [0.0])[2][0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_bernoulli_two_term_oracle(self, bernoulli):
        lam = math.log(3.0)
        _, mean, cov = natural_row(bernoulli, [lam])
        assert cov[0, 0] == pytest.approx(mean[0] * (1 - mean[0]), abs=1e-14)
        assert cov[0, 0] == pytest.approx(0.1875, abs=1e-13)

    def test_gaussian_unit_variance(self, gaussian, rng):
        for _ in range(5):
            lam = rng.normal(size=1)
            assert natural_row(gaussian, lam)[2][0, 0] == 1.0

    def test_matches_fd_hessian_of_log_partition(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        for _ in range(5):
            lam = rng.uniform(-1.0, 1.0, 2)
            hess = fd_hessian(lambda l: natural_row(fam, l)[0], lam, step=1e-4)
            got = natural_row(fam, lam)[2]
            assert np.max(np.abs(got - hess)) <= 1e-5 * np.max(np.abs(got))

    def test_symmetric_and_cholesky(self, rng):
        fam = random_tabulated(rng, n_dim=3, n_points=8)
        for cov in fam.natural_states(rng.uniform(-1.0, 1.0, (10, 3)))[2]:
            assert np.array_equal(cov, cov.T)
            np.linalg.cholesky(cov)

    def test_degenerate_statistics_raise(self):
        # a constant statistic, whose variance vanishes, cannot be tabulated
        with pytest.raises(SingularModelError):
            FamilyManifold(TabulatedFamily([1.0, 1.0], [[2.0, 2.0]])).point([2.0])


def chunked_table():
    """A 3x5000 table: RAY_CHUNK // 15000 rounds to one row of
    ``natural_states`` per run, so 7 rows take seven runs; its ray at
    TABLE_LAM0 is binned."""
    rng = np.random.default_rng(5000)
    weights, stats = rng.uniform(0.5, 2.0, 5000), rng.normal(size=(3, 5000))
    return OracleTable(weights, stats)


TABLE_LAM0 = 0.3 * np.array([0.6, -0.8, 0.0])


def ray_rate_cases():
    """(family, lam0) pairs: the closed forms, random tables, one of them
    offset by 1e6, and a 3x5000 table, whose ray is binned, as it is and
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
    offset = OracleTable([1.0, 2.0, 0.5, 1.0],
                             1e6 + np.array([[0.0, 1.0, 2.5, 4.0], [1.0, -1.0, 0.5, 0.0]]))
    cases.append((offset, np.array([0.6, -0.9])))
    table = chunked_table()
    cases.append((table, TABLE_LAM0))
    cases.append((OracleTable(table.weights, 1e6 + table.stats), TABLE_LAM0))
    return cases


RAY_RATE_CASES = ray_rate_cases()
RAY_RATE_IDS = ["bernoulli", "bernoulli-far", "gaussian", "gaussian3",
                "table1x4", "table2x6", "table3x50", "table-offset-1e6",
                "table3x5000", "table3x5000-offset-1e6"]


GAS_CASES = [(IdealGasFamily(2.0), np.array([0.75, -0.4])),
             (IdealGasFamily(2.0, fixed_n=1.5), np.array([2.25]))]
GAS_IDS = ["gas", "gas-fixed-n"]


def covariance_rate(fam, lam0, t):
    return math.sqrt(float(lam0 @ states_oracle(fam, t * lam0)[2][0] @ lam0))


class TestRayRate:
    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_matches_the_covariance(self, fam, lam0):
        ts = np.array([0.0, 1e-3, 0.5, 1.0])
        got = fam.ray(lam0).rate(ts)
        want = np.array([covariance_rate(fam, lam0, t) for t in ts])
        assert got.shape == ts.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(RAY_RATE_CASES), t=st.floats(0.0, 1.0))
    def test_matches_the_covariance_anywhere_on_the_ray(self, case, t):
        fam, lam0 = case
        want = covariance_rate(fam, lam0, t)
        assert abs(fam.ray(lam0).rate(np.array([t]))[0] - want) <= 1e-13 * want

    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_batched_call_equals_single_calls(self, fam, lam0):
        rate = fam.ray(lam0).rate
        ts = np.linspace(0.0, 1.0, 7)
        singles = [rate(np.array([t]))[0] for t in ts]
        assert rate(ts).tolist() == singles

    @pytest.mark.parametrize("fam, lam0", RAY_RATE_CASES, ids=RAY_RATE_IDS)
    def test_lam0_is_domain_checked(self, fam, lam0):
        bad = lam0.copy()
        bad[-1] = math.inf
        with pytest.raises(DomainError):
            fam.ray(bad)

    @pytest.mark.parametrize("fam, lam0", GAS_CASES, ids=GAS_IDS)
    def test_ideal_gas_kernel_matches_the_covariance(self, fam, lam0):
        # its natural domain excludes lam = 0, where f diverges like 1 / t
        ts = np.array([1e-3, 0.5, 1.0])
        want = np.array([covariance_rate(fam, lam0, t) for t in ts])
        assert np.all(np.abs(fam.ray(lam0).rate(ts) - want) <= 1e-13 * want)
        with pytest.raises(DomainError):
            fam.ray(-lam0)


def states_on_ray(fam, lam0, ts):
    """The states of the ray's rows at each t, as the flow reads them."""
    return fam.ray(lam0).states(np.asarray(ts, dtype=float))


def assert_states_match(fam, lam0, ts):
    A, S, cov = states_on_ray(fam, lam0, ts)
    want_A, want_S, want_cov = states_oracle(fam, np.multiply.outer(np.asarray(ts, dtype=float), lam0))
    k, d = len(ts), fam.n_dim
    assert A.shape == (k, d) and S.shape == (k,) and cov.shape == (k, d, d)
    assert np.all(np.abs(A - want_A) <= 1e-13 * np.maximum(1.0, np.abs(want_A)))
    assert np.all(np.abs(S - want_S) <= 1e-13 * np.maximum(1.0, np.abs(want_S)))
    scale = np.max(np.abs(want_cov), axis=(1, 2))[:, None, None]
    assert np.all(np.abs(cov - want_cov) <= 1e-13 * scale)


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
        ts = np.linspace(0.0, 1.0, 7)
        whole = states_on_ray(fam, lam0, ts)
        for i, t in enumerate(ts):
            for got, single in zip(whole, states_on_ray(fam, lam0, [t])):
                assert np.array_equal(got[i], single[0])

    @pytest.mark.parametrize("fam, lam0", GAS_CASES, ids=GAS_IDS)
    def test_ideal_gas_states_match_its_closed_forms(self, fam, lam0):
        ts = np.array([1e-3, 0.5, 1.0])
        A, S, cov = states_on_ray(fam, lam0, ts)
        want_A, want_S, want_cov = states_oracle(fam, np.multiply.outer(ts, lam0))
        for i in range(len(ts)):
            assert np.all(np.abs(A[i] / want_A[i] - 1.0) <= 1e-13)
            assert abs(S[i] - want_S[i]) <= 1e-13 * abs(S[i])
            assert np.all(np.abs(cov[i] - want_cov[i]) <= 1e-13 * np.max(np.abs(want_cov[i])))


def ray_tables():
    """(weights, stats, lam0, binned) of tables whose rays take either path."""
    rng = np.random.default_rng(50)
    small = (rng.uniform(0.5, 2.0, 50), rng.normal(size=(3, 50)), rng.normal(0.0, 0.8, 3), False)
    table = chunked_table()
    rng = np.random.default_rng(20)
    centres = rng.normal(size=(3, 6))
    clustered = (np.exp(rng.uniform(-20.0, 20.0, 5000)),
                 centres[:, rng.integers(0, 6, 5000)] + 1e-3 * rng.normal(size=(3, 5000)),
                 np.array([0.8, -0.5, 0.3]), True)
    rng = np.random.default_rng(308)
    spread = (rng.uniform(0.5, 2.0, 5000), rng.normal(size=(3, 5000)),
              np.array([20.0, -15.0, 8.0]), False)
    rng = np.random.default_rng(8)
    wide = (rng.uniform(0.5, 2.0, 5000), rng.normal(size=(8, 5000)),
            0.1 * rng.normal(size=8), True)
    return [small, (table.weights, table.stats, TABLE_LAM0, True), clustered, spread,
            wide]


RAY_TABLES = ray_tables()
RAY_TABLE_IDS = ["table3x50", "table3x5000", "clustered3x5000", "spread3x5000", "table8x5000"]
BINNED_TABLES = [case for case in RAY_TABLES if case[3]]
BINNED_IDS = [name for name, case in zip(RAY_TABLE_IDS, RAY_TABLES) if case[3]]


def ray_table(weights, stats):
    return TabulatedFamily(weights, stats)


def ray_errors(ray, weights, stats, lam0, ts):
    """The largest relative distances of the ray's f, A, S and covariance
    from the long-double sums, each over the rows at ``ts``."""
    f, A, S, cov = long_double_ray(weights, stats, lam0, ts)
    got_A, got_S, got_cov = ray.states(ts)
    ld = np.longdouble
    return np.array([
        np.max(np.abs(ray.rate(ts).astype(ld) - f) / f),
        np.max(np.max(np.abs(got_A.astype(ld) - A), axis=1) / np.maximum(1.0, np.max(np.abs(A), axis=1))),
        np.max(np.abs(got_S.astype(ld) - S) / np.abs(S)),
        np.max(np.max(np.abs(got_cov.astype(ld) - cov), axis=(1, 2)) / np.max(np.abs(cov), axis=(1, 2))),
    ], dtype=float)


class TestTableRayPaths:
    @pytest.mark.parametrize("weights, stats, lam0, binned", RAY_TABLES, ids=RAY_TABLE_IDS)
    def test_the_path_follows_points_and_bins(self, weights, stats, lam0, binned):
        # binned where the bins' Taylor terms are at most a quarter of the
        # points: not on 50 points, nor where lam0 spreads y over hundreds
        # of bins
        assert isinstance(ray_table(weights, stats).ray(lam0), _BinnedRay) == binned

    @pytest.mark.parametrize("n_points, span", [(5000, 30.0), (20000, 140.0)],
                             ids=["at-most-255-bins", "more-than-255-bins"])
    def test_bins_sorted_as_small_keys_keep_the_int64_order(self, n_points, span):
        # y = lam0 . (a - c) spans about ``span``, so span / BIN_WIDTH bins:
        # 8-bit keys for the first table and 16-bit for the second, whose
        # rows are the bits of the rows from an int64 stable order
        rng = np.random.default_rng(n_points)
        family = TabulatedFamily(rng.uniform(0.5, 2.0, n_points),
                                 rng.uniform(0.0, 1.0, (2, n_points)))
        lam0 = np.array([span, 0.3])
        y = lam0 @ family._shifted
        cells = np.floor((y - np.min(y)) / family_module.BIN_WIDTH).astype(np.int64)
        order = np.argsort(cells, kind="stable")
        starts = np.flatnonzero(np.diff(cells[order], prepend=-1))
        assert (len(starts) <= 255) == (n_points == 5000)
        got, want = family.ray(lam0), _BinnedRay(family, lam0, y, order, starts)
        assert isinstance(got, _BinnedRay)
        ts = np.linspace(0.0, 1.0, 11)
        assert got.rate(ts).tobytes() == want.rate(ts).tobytes()
        for column, expected in zip(got.states(ts), want.states(ts)):
            assert column.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", BINNED_TABLES, ids=BINNED_IDS)
    def test_binned_ray_matches_long_double_sums(self, monkeypatch, case):
        # within 1e-15 of the long-double sums, and no farther from them
        # than the direct kernel on the same ray, up to one rounding of the
        # value itself
        weights, stats, lam0, _ = case
        fam, ts = ray_table(weights, stats), np.linspace(0.0, 1.0, 21)
        binned_errors = ray_errors(fam.ray(lam0), weights, stats, lam0, ts)
        monkeypatch.setattr(family_module, "BINNED_SHARE", 0.0)
        direct = fam.ray(lam0)
        assert not isinstance(direct, _BinnedRay)
        direct_errors = ray_errors(direct, weights, stats, lam0, ts)
        assert np.all(binned_errors <= 1e-15)
        assert np.all(binned_errors <= direct_errors + np.finfo(float).eps)

    @pytest.mark.parametrize(
        "case, tol", [(RAY_TABLES[0], 1e-15), (RAY_TABLES[3], 2e-13)], ids=["table3x50", "spread3x5000"]
    )
    def test_direct_ray_matches_long_double_sums(self, case, tol):
        # with |lam0| = 26, S = log Z + lam . A cancels terms of about 100
        # to below 1 at t = 1, so it keeps only about 1e-13 of its size
        weights, stats, lam0, _ = case
        ts = np.linspace(0.0, 1.0, 21)
        assert np.all(ray_errors(ray_table(weights, stats).ray(lam0), weights, stats, lam0, ts)
                      <= tol)

    @pytest.mark.parametrize("case", BINNED_TABLES, ids=BINNED_IDS)
    def test_binned_batched_call_equals_single_calls(self, case):
        weights, stats, lam0, _ = case
        ray = ray_table(weights, stats).ray(lam0)
        ts = np.linspace(0.0, 1.0, 7)
        rates, whole = ray.rate(ts), ray.states(ts)
        for i, t in enumerate(ts):
            assert rates[i] == ray.rate(np.array([t]))[0]
            for got, single in zip(whole, ray.states(np.array([t]))):
                assert np.array_equal(got[i], single[0])

    @pytest.mark.parametrize("t", [-1e-3, 1.0 + 1e-12, math.nan])
    def test_binned_ray_takes_t_in_the_unit_interval(self, t):
        weights, stats, lam0, _ = BINNED_TABLES[0]
        ray = ray_table(weights, stats).ray(lam0)
        for kernel in (ray.rate, ray.states):
            with pytest.raises(ValueError, match="0 <= t <= 1"):
                kernel(np.array([0.5, t]))


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
    offset = OracleTable(offset.weights, 1e9 + offset.stats)
    cases.append((offset, rng.normal(0.0, 0.8, (6, 2))))
    return cases


NATURAL_CASES = natural_states_cases()
NATURAL_IDS = ["bernoulli", "gaussian", "gaussian3", "gas-EN", "gas-E",
               "table1x4", "table3x50", "table-offset-1e9"]


class TestNaturalStates:
    @pytest.mark.parametrize("fam, lams", NATURAL_CASES, ids=NATURAL_IDS)
    def test_matches_the_oracle_states(self, fam, lams):
        A, S, cov = fam.natural_states(lams)
        k, d = lams.shape
        assert A.shape == (k, d) and S.shape == (k,) and cov.shape == (k, d, d)
        want_A, want_S, want_cov = states_oracle(fam, lams)
        for i, lam in enumerate(lams):
            mean = want_A[i]
            assert np.all(np.abs(A[i] - mean) <= 1e-13 * np.maximum(1.0, np.abs(mean)))
            # log Z and lam . A each round at the scale of lam . A
            scale = 1.0 + abs(want_S[i]) + abs(float(lam @ mean))
            assert abs(S[i] - want_S[i]) <= 1e-13 * scale
            want = want_cov[i]
            assert np.all(np.abs(cov[i] - want) <= 1e-13 * np.max(np.abs(want)))

    def test_batched_call_equals_single_calls_across_runs(self):
        fam = chunked_table()
        lams = np.multiply.outer(np.linspace(0.0, 1.0, 7), TABLE_LAM0) + 0.0
        whole = fam.natural_states(lams)
        for i, lam in enumerate(lams):
            for got, single in zip(whole, fam.natural_states(lam[None, :])):
                assert np.array_equal(got[i], single[0])

    @pytest.mark.parametrize("fixed_n", [None, 1.5], ids=["gas-EN", "gas-E"])
    def test_rows_outside_the_gas_domain_are_not_finite(self, fixed_n):
        fam = IdealGasFamily(2.0, fixed_n=fixed_n)
        lams = np.array([[1.0, 0.5], [0.0, 0.5], [-2.0, 0.5], [3.0, -1.0]])[:, :fam.n_dim]
        A, S, cov = fam.natural_states(lams)
        inside = np.array([True, False, False, True])
        for rows, finite in ((inside, True), (~inside, False)):
            for x in (A[rows], S[rows], cov[rows]):
                assert np.all(np.isfinite(x) == finite)


class TestLogPartitionConvexity:
    def test_midpoint_convexity(self, rng):
        # log Z is convex in lam for every family
        fam = random_tabulated(rng, n_dim=3, n_points=7)
        for _ in range(20):
            a = rng.uniform(-2.0, 2.0, 3)
            b = rng.uniform(-2.0, 2.0, 3)
            mid = natural_row(fam, 0.5 * (a + b))[0]
            assert mid <= 0.5 * (natural_row(fam, a)[0] + natural_row(fam, b)[0]) + 1e-12


class TestClosedFormVsTabulated:
    def test_bernoulli_agreement(self, bernoulli):
        tab = bernoulli_as_tabulated()
        for lam in np.linspace(-4.0, 4.0, 17):
            (z1, a1, c1), (z2, a2, c2) = natural_row(bernoulli, [lam]), natural_row(tab, [lam])
            assert abs(z1 - z2) <= 1e-10 * max(1.0, abs(z1))
            assert np.max(np.abs(a1 - a2)) <= 1e-10 * max(1.0, np.max(np.abs(a1)))
            assert np.max(np.abs(c1 - c2)) <= 1e-10 * np.max(np.abs(c1))


class TestIdealGas:
    def test_natural_domain(self, ideal_gas):
        for bad in ([-1.0, 0.0], [0.0, 0.0]):
            with pytest.raises(DomainError):
                ideal_gas.check_natural_domain(bad)
            with pytest.raises(DomainError):
                ideal_gas.ray(bad)

    def test_duality_consistency(self, ideal_gas, rng):
        # log Z, mean and covariance must be one consistent Legendre system
        for _ in range(10):
            lam = np.array([rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0)])
            log_z, mean, cov = natural_row(ideal_gas, lam)
            assert abs(log_z - log_partition_oracle(ideal_gas, lam)) <= 1e-12 * abs(log_z)
            grad = fd_gradient(lambda l: -log_partition_oracle(ideal_gas, l), lam)
            assert np.max(np.abs(mean - grad)) <= 1e-6 * np.max(np.abs(mean))
            hess = fd_hessian(lambda l: log_partition_oracle(ideal_gas, l), lam, step=1e-4)
            assert np.max(np.abs(cov - hess)) <= 1e-5 * np.max(np.abs(cov))

    def test_fixed_n_variant(self):
        gas = IdealGasFamily(volume=1.0, fixed_n=1.0)
        assert gas.n_dim == 1
        assert gas.labels == ("E",)
        lam = as_manifold(gas).point([2.0]).force  # lam_E = 1.5 N / E
        assert lam[0] == pytest.approx(1.5 / 2.0, abs=1e-14)
        grad = fd_gradient(lambda l: -log_partition_oracle(gas, l), lam)
        assert grad[0] == pytest.approx(2.0, rel=1e-7)
        assert natural_row(gas, lam)[1][0] == pytest.approx(2.0, rel=1e-14)

    def test_labels(self, ideal_gas, bernoulli):
        assert ideal_gas.labels == ("E", "N")
        assert bernoulli.labels == ("a1",)


class TestConstruction:
    @pytest.mark.parametrize("weights", [[], [1.0]], ids=["none", "one"])
    def test_needs_two_points(self, weights):
        with pytest.raises(ValueError, match="^a discrete space needs at least 2 points$"):
            TabulatedFamily(weights, [[0.0] * len(weights)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -2.0],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    def test_rejects_a_weight_that_is_not_finite_and_positive(self, bad, index):
        weights = [1.0, 2.0, 0.5]
        weights[index] = bad
        with pytest.raises(ValueError, match=r"^all weights must be finite and > 0$"):
            TabulatedFamily(weights, [[0.0, 1.0, 3.0]])
        # the weights are checked before the statistics
        with pytest.raises(ValueError, match=r"^all weights must be finite and > 0$"):
            TabulatedFamily(weights, [[0.0, math.nan, 3.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, -1e300],
                             ids=["nan", "inf", "-inf", "1e300", "-1e300"])
    @pytest.mark.parametrize("row, index", [(0, 0), (0, -1), (2, 0), (2, -1)],
                             ids=["first-row-first", "first-row-last", "later-row-first",
                                  "later-row-last"])
    def test_rejects_a_statistic_that_is_not_finite_or_too_large(self, bad, row, index):
        # a NaN in a later row, after rows of finite ranges, makes that
        # row's minimum and maximum NaN, which the range check must not miss
        stats = [[0.0, 1.0, 3.0, -1.0], [1.0, -1.0, 0.5, 2.0], [2.0, 0.5, -3.0, 1.0]]
        stats[row][index] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(FINITE_STATS)}$"):
            TabulatedFamily([1.0, 2.0, 0.5, 1.0], stats)

    def test_rank_deficient_statistics_rejected(self):
        with pytest.raises(SingularModelError,
                           match="^statistics matrix is rank-deficient; the family is degenerate$"):
            TabulatedFamily([1.0, 1.0, 1.0], [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])

    @pytest.mark.parametrize("n_points", [4, 50, 5000])
    def test_a_statistic_that_sums_two_others_is_rejected(self, n_points):
        rng = np.random.default_rng(n_points)
        stats = rng.normal(size=(2, n_points))
        weights = rng.uniform(0.5, 2.0, n_points)
        TabulatedFamily(weights, stats)
        with pytest.raises(SingularModelError, match="rank-deficient"):
            TabulatedFamily(weights, np.vstack([stats, stats[0] + stats[1]]))

    def test_a_statistic_that_shifts_another_is_rejected(self):
        # a2 = a1 + 1: linearly independent, but affinely dependent, so the
        # covariance is singular at every lam
        with pytest.raises(SingularModelError, match="rank-deficient"):
            TabulatedFamily([1.0, 2.0, 1.0, 1.0], [[0.0, 1.0, 2.0, 5.0], [1.0, 2.0, 3.0, 6.0]])

    def test_more_statistics_than_points_are_rejected(self):
        with pytest.raises(SingularModelError, match="rank-deficient"):
            TabulatedFamily([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0], [2.0, 3.0]])

    def test_stats_shape_checked(self):
        with pytest.raises(ValueError, match="n_dim x n_points"):
            TabulatedFamily([1.0, 1.0], [[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="weights must be a vector"):
            TabulatedFamily([[1.0, 1.0]], [[0.0, 1.0]])

    def test_stats_magnitude_bounded(self):
        # the third cumulant cubes centred statistics: 1e300 would overflow
        TabulatedFamily([1.0, 1.0, 1.0], [[-1e100, 0.0, 1e100]])
        with pytest.raises(ValueError, match="magnitude"):
            TabulatedFamily([1.0, 1.0, 1.0], [[1e300, 1.0, 3.0]])

    @pytest.mark.parametrize("A", [[0.0], [3.0], [-0.5], [1e300]])
    def test_mean_outside_statistic_range_infeasible(self, A):
        fam = TabulatedFamily([1.0, 2.0, 1.0], [[0.0, 1.0, 3.0]])
        with pytest.raises(InfeasibleMeanError, match="outside the open range"):
            fam.check_feasible(A)
        with pytest.raises(InfeasibleMeanError):
            as_manifold(fam).point(A).force
        assert fam.check_feasible([2.999])[0] == 2.999

    def test_gaussian_dim_validation(self):
        with pytest.raises(ValueError):
            GaussianMeanFamily(dim=0)

    def test_gas_volume_validation(self):
        with pytest.raises(ValueError):
            IdealGasFamily(volume=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key", ["volume", "fixed_n"])
    def test_gas_rejects_a_nonfinite_volume_or_number(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
            IdealGasFamily(**dict({"volume": 1.0, "fixed_n": 1.0}, **{key: value}))


FINITE_STATS = "statistic values must be finite and at most 1e+100 in magnitude"


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
        assert natural_row(fam, [0.3])[0] == pytest.approx(
            natural_row(bernoulli, [0.3])[0], abs=1e-14
        )

    def test_unknown_key_with_line(self, tmp_path):
        # reported as a scenario's unknown keys are, with the key's line
        path = self.write(
            tmp_path,
            {"points": [0, 1], "weights": [1, 1], "stats": [[0, 1]], "wieghts": [1]},
        )
        line = 1 + path.read_text().splitlines().index(' "wieghts": [')
        with pytest.raises(ParseError) as info:
            tabulated_from_json(path)
        assert str(info.value) == f"unknown key 'wieghts' (line {line})"

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

    @pytest.mark.parametrize("points", [[0, 0], ["a", "b", "a"], [1, "1"]])
    def test_labels_must_be_unique(self, tmp_path, points):
        # labels are the document's: they are checked once, by their text
        doc = {"points": points, "weights": [1.0] * len(points),
               "stats": [list(map(float, range(len(points))))]}
        with pytest.raises(ValidationError) as info:
            tabulated_from_json(self.write(tmp_path, doc))
        assert info.value.violations == ["line 2: point labels must be unique"]

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize(
        "token, weight_message, stat_message",
        [
            ("NaN", "line 2: weights[{i}] must be a finite number > 0, got nan", FINITE_STATS),
            ("Infinity", "all weights must be finite and > 0", FINITE_STATS),
            ("true", "line 2: weights[{i}] must be a finite number > 0, got True",
             "line 3: stats[1] must list one number per point"),
            ("null", "line 2: weights[{i}] must be a finite number > 0, got None",
             "line 3: stats[1] must list one number per point"),
            ('"x"', "line 2: weights[{i}] must be a finite number > 0, got 'x'",
             "line 3: stats[1] must list one number per point"),
        ],
        ids=["nan", "infinity", "true", "null", "string"],
    )
    @pytest.mark.parametrize("field", ["weights", "stats"])
    def test_bad_entry_at_either_end(self, tmp_path, field, token, weight_message,
                                     stat_message, index):
        # the type-set check and the NaN-safe positivity check pass the
        # table on, or fall back to the loop that names the first offender
        weights, stats = ["1.0", "2.0", "0.5"], ["0.0", "1.0", "3.0"]
        (weights if field == "weights" else stats)[index] = token
        raw = ('{"points": ["a", "b", "c"],\n "weights": [%s],\n'
               ' "stats": [[1.0, -1.0, 0.5], [%s]]}\n' % (", ".join(weights), ", ".join(stats)))
        message = weight_message.format(i=index % 3) if field == "weights" else stat_message
        with pytest.raises(ValidationError) as info:
            tabulated_from_json(self.write(tmp_path, None, raw=raw))
        assert info.value.violations == [message]

    def test_invalid_json_reports_line(self, tmp_path):
        path = self.write(tmp_path, None, raw='{"points": [0, 1],\n  "weights": }')
        with pytest.raises(ParseError, match="line 2"):
            tabulated_from_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            tabulated_from_json(tmp_path / "absent.json")
