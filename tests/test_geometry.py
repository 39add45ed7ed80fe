import math

import numpy as np
import pytest

from entroflow import (
    AtEquilibriumError,
    FamilyManifold,
    CompositeSystem,
    IdealGasFamily,
    SingularModelError,
    TabulatedFamily,
    as_manifold,
    christoffel,
    covariant_acceleration,
    field_strength,
    onsager_matrix,
    unit_velocity,
)
from entroflow.geometry import _inverses
from helpers import (
    MetricStub,
    count_calls,
    fd_christoffel,
    fd_field_strength,
    fd_flow_acceleration,
    fd_jacobian,
    fd_metric_oracle,
    random_feasible_mean,
    random_tabulated,
    seeded_table,
    squared_bernoulli,
    states_oracle,
)


def bernoulli_metric(A):
    return 1.0 / (A * (1.0 - A))


def stub_point(g):
    """The point of a family whose ``legendre`` gives the metric g."""
    family = MetricStub(g)
    return FamilyManifold(family).point(np.zeros(family.n_dim))


def test_as_manifold_takes_only_a_family_or_a_manifold():
    with pytest.raises(TypeError, match="not a family or state manifold: object"):
        as_manifold(object())


class TestPointMetric:
    def test_closed_form_metric_invariants(self, rng):
        for _ in range(10):
            m = rng.normal(size=(3, 3))
            pt = stub_point(m @ m.T + 3.0 * np.eye(3))
            assert np.array_equal(pt.g, pt.g.T)
            assert np.array_equal(pt.g_inv, pt.g_inv.T)
            assert np.max(np.abs(pt.g @ pt.g_inv - np.eye(3))) <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(SingularModelError):
            stub_point([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularModelError):
            stub_point([[0.0]])

    @pytest.mark.parametrize(
        "matrix", [[[math.nan]], [[math.inf]], [[1.0, math.nan], [math.nan, 1.0]]]
    )
    def test_rejects_non_finite(self, matrix):
        with pytest.raises(SingularModelError, match="not finite"):
            stub_point(matrix)

    def test_a_singular_matrix_of_a_stack_inverts_to_nan_alone(self):
        # one exactly singular matrix makes the batched inverse raise; the
        # others are then inverted one by one, to the same exact values
        stack = np.array([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]],
                          [[4.0, 0.0], [0.0, 0.5]]])
        out = _inverses(stack)
        assert np.array_equal(out[0], [[1.0, -1.0], [-1.0, 2.0]])
        assert np.all(np.isnan(out[1]))
        assert np.array_equal(out[2], [[0.25, 0.0], [0.0, 2.0]])


class TestMetric:
    def test_bernoulli_values(self, bernoulli):
        assert as_manifold(bernoulli).point([0.5]).g[0, 0] == pytest.approx(4.0, rel=1e-12)
        assert as_manifold(bernoulli).point([0.25]).g[0, 0] == pytest.approx(
            bernoulli_metric(0.25), rel=1e-12
        )

    def test_gaussian_flat(self, gaussian, rng):
        for _ in range(5):
            assert as_manifold(gaussian).point(rng.normal(size=1)).g[0, 0] == pytest.approx(
                1.0, rel=1e-12
            )

    def test_duality_with_covariance(self, bernoulli, ideal_gas, rng):
        for fam, A in [
            (bernoulli, np.array([0.3])),
            (ideal_gas, np.array([2.0, 1.5])),
        ]:
            g = as_manifold(fam).point(A).g
            cov = states_oracle(fam, as_manifold(fam).point(A).force)[2][0]
            assert np.max(np.abs(g @ cov - np.eye(fam.n_dim))) <= 1e-9

    def test_matches_fd_oracle_bernoulli_example(self, bernoulli):
        oracle = fd_metric_oracle(bernoulli, [0.5], step=1e-4)
        assert oracle[0, 0] == pytest.approx(4.0, rel=1e-5)

    def test_matches_fd_oracle_gaussian_example(self, gaussian):
        oracle = fd_metric_oracle(gaussian, [0.0], step=1e-4)
        assert oracle[0, 0] == pytest.approx(1.0, rel=1e-5)

    def test_matches_fd_oracle_ideal_gas_example(self, ideal_gas):
        # V=2, (E, N) = (3, 2): -Hess S = [[1.5 N / E^2, -1.5 / E], [-1.5 / E, 2.5 / N]]
        E, N = 3.0, 2.0
        analytic = np.array([[1.5 * N / E**2, -1.5 / E], [-1.5 / E, 2.5 / N]])
        oracle = fd_metric_oracle(ideal_gas, [E, N], step=1e-5)
        assert np.max(np.abs(oracle - analytic)) <= 1e-4 * np.max(np.abs(analytic))
        assert np.array_equal(as_manifold(ideal_gas).point([E, N]).g, analytic)

    def test_oracle_agreement_50_random_points(
        self, bernoulli, gaussian2, ideal_gas, rng
    ):
        for _ in range(50):
            A = np.array([rng.uniform(0.1, 0.9)])
            g = as_manifold(bernoulli).point(A).g
            assert np.max(np.abs(g - fd_metric_oracle(bernoulli, A))) <= 1e-5 * np.max(
                np.abs(g)
            )
        for _ in range(50):
            A = rng.uniform(-2.0, 2.0, 2)
            g = as_manifold(gaussian2).point(A).g
            assert np.max(np.abs(g - fd_metric_oracle(gaussian2, A))) <= 1e-5
        for _ in range(50):
            A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
            g = as_manifold(ideal_gas).point(A).g
            assert np.max(
                np.abs(g - fd_metric_oracle(ideal_gas, A, step=1e-5))
            ) <= 1e-5 * np.max(np.abs(g))

    def test_oracle_agreement_tabulated(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        for _ in range(20):
            A = random_feasible_mean(rng, fam)
            g = as_manifold(fam).point(A).g
            assert np.max(np.abs(g - fd_metric_oracle(fam, A))) <= 1e-5 * np.max(
                np.abs(g)
            )


class TestSigma:
    def test_vanishes_at_maximum(self, bernoulli, gaussian):
        assert as_manifold(bernoulli).point([0.5]).sigma <= 1e-12
        assert as_manifold(gaussian).point([0.0]).sigma <= 1e-12

    def test_bernoulli_derived_value(self, bernoulli):
        expected = math.log(3.0) * math.sqrt(0.25 * 0.75)
        assert as_manifold(bernoulli).point([0.25]).sigma == pytest.approx(expected, rel=1e-12)

    def test_gaussian_derived_value(self, gaussian):
        assert as_manifold(gaussian).point([-2.0]).sigma == pytest.approx(2.0, rel=1e-12)

    def test_zero_iff_gradient_zero(self, bernoulli, rng):
        for _ in range(20):
            A = np.array([rng.uniform(0.05, 0.95)])
            s = as_manifold(bernoulli).point(A).sigma
            grad = as_manifold(bernoulli).point(A).force
            assert (s <= 1e-12) == (np.max(np.abs(grad)) <= 1e-12)


class TestChristoffel:
    def test_bernoulli_symmetric_point(self, bernoulli):
        assert christoffel(bernoulli, [0.5])[0, 0, 0] == 0.0

    def test_bernoulli_analytic(self, bernoulli):
        # 1-D Levi-Civita: (1/2) g^-1 dg/dA = (2A - 1) / (2 A (1 - A))
        got = christoffel(bernoulli, [0.25])[0, 0, 0]
        expected = (2 * 0.25 - 1.0) / (2 * 0.25 * 0.75)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(-4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("a", [1e-9, 1.0 - 1e-9], ids=["near-0", "near-1"])
    def test_bernoulli_exact_near_boundary(self, bernoulli, a):
        got = christoffel(bernoulli, [a])[0, 0, 0]
        assert got == pytest.approx((2 * a - 1.0) / (2 * a * (1.0 - a)), rel=1e-13)

    def test_pair_of_two_point_tables(self, monkeypatch, two_point):
        # Bernoulli twice by Newton: g_T = 2 / (A (1 - A)), and both halves
        # of dg_T = dg(A) - dg'(1 - A) come from a table's third cumulant
        counts = count_calls(monkeypatch, TabulatedFamily, ["cumulants"])
        a = 0.3
        pair = CompositeSystem(two_point, two_point, [1.0])
        pt = pair.point([a])
        got = christoffel(pair, pt)[0, 0, 0]
        assert counts["cumulants"] == 2
        assert got == pytest.approx((2 * a - 1.0) / (2 * a * (1.0 - a)), rel=1e-14, abs=0.0)
        assert pt.g[0, 0] == pytest.approx(2.0 / (a * (1.0 - a)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("system", ["bernoulli", "two_point", "ideal_gas", "bernoulli_pair"])
    def test_a_point_alone_fixes_gamma(self, request, system):
        system = request.getfixturevalue(system)
        A = [3.0, 2.0] if isinstance(system, IdealGasFamily) else [0.3]
        want = christoffel(system, A)
        assert christoffel(None, as_manifold(system).point(A)).tobytes() == want.tobytes()

    def test_gaussian_flat(self, gaussian2, rng):
        gam = christoffel(gaussian2, rng.normal(size=2))
        assert np.max(np.abs(gam)) <= 1e-10

    def test_exact_lower_symmetry(self, equal_gas_pair):
        gam = christoffel(equal_gas_pair, [1.3, 0.8])
        assert np.array_equal(gam, gam.transpose(0, 2, 1))

    def test_metric_compatibility(self, ideal_gas, rng):
        # covariant derivative of g vanishes: d_c g_ab = Gamma^d_ca g_db + Gamma^d_cb g_ad
        for _ in range(5):
            A = np.array([rng.uniform(1.0, 4.0), rng.uniform(0.8, 2.5)])
            gam = christoffel(ideal_gas, A)
            g = as_manifold(ideal_gas).point(A).g
            dg_all = fd_jacobian(lambda x: as_manifold(ideal_gas).point(x).g, A)
            for c in range(2):
                predicted = np.einsum("da,db->ab", gam[:, c, :], g) + np.einsum(
                    "db,ad->ab", gam[:, c, :], g
                )
                assert np.max(np.abs(dg_all[:, :, c] - predicted)) <= 1e-7


def _fd_cases(rng):
    tab = random_tabulated(rng, n_dim=3, n_points=7)
    return [
        (tab, random_feasible_mean(rng, tab)),
        (IdealGasFamily(volume=2.0), np.array([3.0, 2.0])),
        (IdealGasFamily(volume=1.0, fixed_n=1.5), np.array([2.5])),
    ]


class TestAgainstFiniteDifferences:
    """The exact connection, field strength and acceleration against central
    differences of the metric and of the flow field."""

    def test_christoffel(self, equal_gas_pair, rng):
        for system, A in _fd_cases(rng) + [(equal_gas_pair, np.array([1.3, 0.8]))]:
            gam = christoffel(system, A)
            oracle = fd_christoffel(system, A)
            assert np.max(np.abs(gam - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_christoffel_of_a_pair_of_tables(self):
        (fam1, A1), (fam2, A2) = seeded_table(3, 50), seeded_table(4, 50)
        pair = CompositeSystem(fam1, fam2, A1 + A2)
        gam, oracle = christoffel(pair, A1), fd_christoffel(pair, A1)
        assert np.array_equal(gam, gam.transpose(0, 2, 1))
        assert np.max(np.abs(gam - oracle)) <= 1e-8 * np.max(np.abs(oracle))

    def test_field_strength_and_acceleration(self, equal_gas_pair, rng):
        for system, A in _fd_cases(rng) + [(equal_gas_pair, np.array([1.2, 0.7]))]:
            f = field_strength(system, A)
            acc = covariant_acceleration(system, A)
            f_oracle = fd_field_strength(system, A)
            acc_oracle = fd_flow_acceleration(system, A)
            assert np.max(np.abs(f - f_oracle)) <= 1e-5 * max(1.0, np.max(np.abs(f_oracle)))
            assert np.max(np.abs(acc - acc_oracle)) <= 1e-5 * max(
                1.0, np.max(np.abs(acc_oracle))
            )


#: (system fixture, its entropy maximum, a direction off it)
NEAR_MAXIMUM = [("bernoulli", [0.5], [-1.0]), ("bernoulli", [0.5], [1.0]),
                ("equal_gas_pair", [2.0, 1.0], [0.6, -0.8]),
                ("equal_gas_pair", [2.0, 1.0], [-0.6, -0.8])]
NEAR_MAXIMUM_IDS = ["bernoulli-below", "bernoulli-above", "gas-pair-ahead", "gas-pair-behind"]


class TestNearTheMaximum:
    """1e-12 off the entropy maximum sigma is about 1e-12, and the direction
    of the flow is defined: only the maximum itself, where sigma = 0, is
    refused."""

    @pytest.mark.parametrize("name, maximum, direction", NEAR_MAXIMUM, ids=NEAR_MAXIMUM_IDS)
    def test_unit_speed(self, request, name, maximum, direction):
        system = request.getfixturevalue(name)
        pt = as_manifold(system).point(np.add(maximum, 1e-12 * np.array(direction)))
        v = unit_velocity(pt)
        assert 0.0 < pt.sigma < 1e-11
        assert abs(v @ pt.g @ v - 1.0) <= 1e-12

    @pytest.mark.parametrize("name, maximum, direction", NEAR_MAXIMUM, ids=NEAR_MAXIMUM_IDS)
    def test_tensors_against_the_oracles_to_first_order(self, request, name, maximum, direction):
        # f and D v / dtau vanish at the maximum to first order in the offset
        # s.  At s = 1e-12 central differences cannot resolve them: a step
        # below s moves A by a few ulps, and lam carries its rounding, 1e-4
        # of the force there.  So each tensor at s = 1e-12, over s, is held
        # against its oracle at s = 1e-2 on the same line, over s; the O(s)
        # terms and that rounding leave about 2e-3 of the largest entry.
        system = request.getfixturevalue(name)
        near, far = (np.add(maximum, s * np.array(direction)) for s in (1e-12, 1e-2))
        pairs = [(field_strength(system, near) / 1e-12,
                  fd_field_strength(system, far, 1e-7) / 1e-2),
                 (covariant_acceleration(system, near) / 1e-12,
                  fd_flow_acceleration(system, far, 1e-7) / 1e-2)]
        for got, oracle in pairs:
            assert np.max(np.abs(got - oracle)) <= 5e-3 * max(1.0, np.max(np.abs(oracle)))

    @pytest.mark.parametrize("name, maximum",
                             [("bernoulli", [0.5]), ("equal_gas_pair", [2.0, 1.0])])
    def test_the_maximum_itself_raises(self, request, name, maximum):
        system = request.getfixturevalue(name)
        assert as_manifold(system).point(maximum).sigma == 0.0
        for call in (lambda: unit_velocity(as_manifold(system).point(maximum)),
                     lambda: covariant_acceleration(system, maximum),
                     lambda: field_strength(system, maximum),
                     lambda: onsager_matrix(system, maximum)):
            with pytest.raises(AtEquilibriumError):
                call()


class TestCovariantAcceleration:
    def test_one_dimensional_flows_are_geodesic(self, bernoulli, gaussian):
        for fam, pts in [(bernoulli, [0.2, 0.35, 0.7]), (gaussian, [-1.5, 0.4, 2.0])]:
            for a in pts:
                acc = covariant_acceleration(fam, [a])
                assert np.max(np.abs(acc)) <= 1e-14

    def test_flat_product_family_is_geodesic(self, gaussian2):
        acc = covariant_acceleration(gaussian2, [-1.0, 0.7])
        assert np.max(np.abs(acc)) <= 1e-14

    def test_coupled_gas_nonzero_and_orthogonal(self, equal_gas_pair):
        A = np.array([1.1, 0.6])
        acc = covariant_acceleration(equal_gas_pair, A)
        assert np.linalg.norm(acc) > 1e-3
        pt = equal_gas_pair.point(A)
        v = unit_velocity(pt)
        inner = acc @ pt.g @ v
        assert abs(inner) <= 1e-12 * max(1.0, np.linalg.norm(acc))

    def test_accepts_explicit_velocity(self, bernoulli, equal_gas_pair):
        v = unit_velocity(as_manifold(bernoulli).point([0.3]))
        acc = covariant_acceleration(bernoulli, [0.3], A_dot=v)
        assert np.max(np.abs(acc)) <= 1e-14
        A = np.array([1.1, 0.6])
        v = unit_velocity(equal_gas_pair.point(A))
        along_flow = covariant_acceleration(equal_gas_pair, A)
        explicit = covariant_acceleration(equal_gas_pair, A, A_dot=v)
        assert np.max(np.abs(explicit - along_flow)) <= 1e-12


class TestFieldStrength:
    def test_one_dimensional_is_zero(self, bernoulli):
        f = field_strength(bernoulli, [0.25])
        assert f.shape == (1, 1)
        assert f[0, 0] == 0.0

    def test_antisymmetry_exact(self, equal_gas_pair, ideal_gas):
        for system, A in [
            (equal_gas_pair, np.array([1.2, 0.7])),
            (ideal_gas, np.array([2.0, 1.2])),
        ]:
            f = field_strength(system, A)
            assert np.max(np.abs(f + f.T)) == 0.0

    def test_velocity_norm_preserved(self, equal_gas_pair):
        A = np.array([1.2, 0.7])
        f = field_strength(equal_gas_pair, A)
        v = unit_velocity(equal_gas_pair.point(A))
        assert abs(v @ f @ v) <= 1e-14

    def test_acceleration_identity(self, equal_gas_pair):
        # D v / dtau = g_inv . f . v along the flow
        for A in ([1.1, 0.6], [1.5, 0.8], [0.9, 0.55]):
            A = np.array(A)
            pt = equal_gas_pair.point(A)
            v = unit_velocity(pt)
            lhs = covariant_acceleration(equal_gas_pair, A)
            rhs = pt.g_inv @ field_strength(equal_gas_pair, A) @ v
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_rejected_near_equilibrium(self, equal_gas_pair):
        with pytest.raises(AtEquilibriumError):
            field_strength(equal_gas_pair, [2.0, 1.0])


class TestTensorTransformation:
    def test_bernoulli_quadratic_chart(self, bernoulli):
        # B = A^2 on (0, 1); the direct Fisher information in the B chart
        # must equal the tensor transform of the A-chart metric.
        for a in (0.3, 0.5, 0.7):
            b_coord = a * a
            jac = 2.0 * a
            transformed = as_manifold(bernoulli).point([a]).g[0, 0] / jac**2

            def log_p1(b):
                return 0.5 * math.log(b)

            def log_p0(b):
                return math.log(1.0 - math.sqrt(b))

            h = 1e-6
            d1 = (log_p1(b_coord + h) - log_p1(b_coord - h)) / (2 * h)
            d0 = (log_p0(b_coord + h) - log_p0(b_coord - h)) / (2 * h)
            fisher = a * d1**2 + (1.0 - a) * d0**2
            assert transformed == pytest.approx(fisher, rel=1e-6)

    def test_reparametrized_manifold_agrees(self, bernoulli):
        rep = squared_bernoulli(bernoulli)
        for a in (0.25, 0.6):
            direct = rep.point([a * a]).g[0, 0]
            expected = bernoulli_metric(a) / (2.0 * a) ** 2
            assert direct == pytest.approx(expected, rel=1e-12)
            # sigma is a scalar invariant of the chart
            assert rep.point(np.array([a * a])).sigma == pytest.approx(
                as_manifold(bernoulli).point([a]).sigma, rel=1e-10
            )
