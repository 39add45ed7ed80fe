import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    BernoulliFamily,
    IdealGasFamily,
    InfeasibleMeanError,
    FamilyManifold,
    SingularModelError,
    TabulatedFamily,
    as_manifold,
)
from entroflow import duality
from entroflow.cli import main
from helpers import (
    fd_gradient, log_partition_oracle, random_feasible_mean, random_tabulated, seeded_table,
    states_oracle, tabulated_states,
)


def bernoulli_lambda(A):
    # analytic inversion of the two-point family
    return math.log((1.0 - A) / A)


def bernoulli_entropy(A):
    return -A * math.log(A) - (1.0 - A) * math.log(1.0 - A)


class TestSolveLambda:
    def test_symmetric_point(self, bernoulli):
        assert abs(as_manifold(bernoulli).point([0.5]).force[0]) <= 1e-12

    def test_analytic_inversion(self, bernoulli):
        got = as_manifold(bernoulli).point([0.25]).force[0]
        assert got == pytest.approx(bernoulli_lambda(0.25), abs=1e-12)
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gaussian_inversion(self, gaussian):
        assert as_manifold(gaussian).point([-2.0]).force[0] == pytest.approx(2.0, abs=1e-12)

    def test_infeasible_bernoulli(self, bernoulli):
        for bad in ([0.0], [1.0], [1.5], [-0.2]):
            with pytest.raises(InfeasibleMeanError):
                as_manifold(bernoulli).point(bad).force

    def test_infeasible_ideal_gas(self, ideal_gas):
        with pytest.raises(InfeasibleMeanError):
            as_manifold(ideal_gas).point([-1.0, 2.0]).force
        with pytest.raises(InfeasibleMeanError):
            as_manifold(ideal_gas).point([1.0, 0.0]).force

    def test_out_of_hull_tabulated_diverges(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        target = fam.stats.max(axis=1) + 1.0
        with pytest.raises(InfeasibleMeanError):
            as_manifold(fam).point(target).force

    def test_a_mean_just_past_the_hull_diverges(self):
        # (0.51, 0.5) lies inside both statistics' ranges, 0.01 past the
        # triangle's edge A1 + A2 = 1: the Newton iterates run off along it
        fam = TabulatedFamily([1, 1, 1], [[0, 1, 0], [0, 0, 1]])
        with pytest.raises(InfeasibleMeanError, match="diverged"):
            as_manifold(fam).point([0.51, 0.5])

    def test_degenerate_family_reports_singular(self):
        # a constant statistic is affinely dependent: the table is rejected
        # when it is made
        with pytest.raises(SingularModelError):
            as_manifold(TabulatedFamily([1.0, 1.0], [[1.0, 1.0]])).point([1.5]).force

    def test_ideal_gas_bypasses_solver(self, ideal_gas):
        lam = as_manifold(ideal_gas).point([3.0, 2.0]).force
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
                back = states_oracle(fam, as_manifold(fam).point(A).force)[0][0]
                assert np.max(np.abs(back - A)) <= 1e-9
        for _ in range(100):
            A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
            back = states_oracle(ideal_gas, as_manifold(ideal_gas).point(A).force)[0][0]
            assert np.max(np.abs(back - A)) <= 1e-9 * np.max(np.abs(A))


class TestEntropy:
    def test_bernoulli_max(self, bernoulli):
        assert as_manifold(bernoulli).point([0.5]).S == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bernoulli_two_term_oracle(self, bernoulli):
        assert as_manifold(bernoulli).point([0.25]).S == pytest.approx(
            bernoulli_entropy(0.25), abs=1e-12
        )

    def test_ideal_gas_closed_form(self):
        for n in (1.0, 2.0, 3.0):
            fam = IdealGasFamily(volume=n)  # V = N so V/N = 1
            got = as_manifold(fam).point([1.5 * n, n]).S  # E/N = 1.5
            assert got == pytest.approx(n * (1.5 * math.log(1.5) + 2.5), abs=1e-12)

    def test_legendre_identity(self, bernoulli, two_point, gaussian, ideal_gas, rng):
        cases = [
            (bernoulli, np.array([rng.uniform(0.05, 0.95)])),
            (two_point, np.array([rng.uniform(0.05, 0.95)])),
            (gaussian, rng.normal(size=1)),
            (ideal_gas, np.array([rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0)])),
        ]
        for fam, A in cases:
            lam = as_manifold(fam).point(A).force
            s = as_manifold(fam).point(A).S
            # duality gap: S(A) - log Z(lam) - lam . A = 0
            assert abs(s - log_partition_oracle(fam, lam) - lam @ A) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        a1=st.floats(0.05, 0.95),
        a2=st.floats(0.05, 0.95),
        t=st.floats(0.01, 0.99),
    )
    def test_concavity(self, a1, a2, t):
        fam = BernoulliFamily()
        mix = t * a1 + (1.0 - t) * a2
        point = as_manifold(fam).point
        lhs = point([mix]).S
        rhs = t * point([a1]).S + (1.0 - t) * point([a2]).S
        assert lhs >= rhs - 1e-12

    def test_concavity_tabulated(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=6)
        for _ in range(20):
            A1 = random_feasible_mean(rng, fam)
            A2 = random_feasible_mean(rng, fam)
            t = rng.uniform(0.01, 0.99)
            mix = t * A1 + (1.0 - t) * A2
            point = as_manifold(fam).point
            assert point(mix).S >= t * point(A1).S + (1.0 - t) * point(A2).S - 1e-12


class TestEntropyGradient:
    def test_maximum(self, bernoulli):
        assert abs(as_manifold(bernoulli).point([0.5]).force[0]) <= 1e-12

    def test_analytic(self, bernoulli):
        got = as_manifold(bernoulli).point([0.25]).force[0]
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_ideal_gas_inverse_temperature(self, ideal_gas):
        grad = as_manifold(ideal_gas).point([3.0, 2.0]).force
        assert grad[0] == pytest.approx(1.5 * 2.0 / 3.0, abs=1e-14)

    def test_matches_fd_of_entropy(self, bernoulli, two_point, ideal_gas, rng):
        for fam, A in [
            (bernoulli, np.array([0.3])),
            (bernoulli, np.array([0.8])),
            (two_point, np.array([0.3])),
            (two_point, np.array([0.8])),
            (ideal_gas, np.array([2.5, 1.5])),
        ]:
            grad = as_manifold(fam).point(A).force
            fd = fd_gradient(lambda x: as_manifold(fam).point(x).S, A)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))

    def test_matches_fd_tabulated(self, rng):
        fam = random_tabulated(rng, n_dim=2, n_points=7)
        for _ in range(5):
            A = random_feasible_mean(rng, fam)
            grad = as_manifold(fam).point(A).force
            fd = fd_gradient(lambda x: as_manifold(fam).point(x).S, A)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


class TestManifoldPoint:
    def test_caches_are_consistent(self, bernoulli):
        pt = FamilyManifold(bernoulli).point([0.25])
        assert np.max(np.abs(states_oracle(bernoulli, pt.force)[0][0] - pt.A)) <= 1e-10
        assert abs(pt.S - log_partition_oracle(bernoulli, pt.force) - pt.force @ pt.A) <= 1e-10

    def test_ideal_gas_point(self, ideal_gas):
        pt = FamilyManifold(ideal_gas).point([3.0, 2.0])
        assert abs(pt.S - log_partition_oracle(ideal_gas, pt.force) - pt.force @ pt.A) <= 1e-10

    def test_immutable(self, bernoulli):
        pt = FamilyManifold(bernoulli).point([0.25])
        with pytest.raises(AttributeError):
            pt.S = 0.0


SHAPES = [(3, 50), (8, 200)]
SHAPE_IDS = ["3x50", "8x200"]


def probe_table(n_dim, n_points):
    """A seeded table, as the benchmark's probes read, and a mean inside it."""
    return seeded_table(7, n_points, n_dim=n_dim, norm=0.6)


def watch_forward_work(monkeypatch):
    """Record the natural parameters of every ``natural_states`` call on a
    table, count ``cumulants`` calls and the trials of the Newton solve."""
    work = {"rows": [], "cumulants": 0, "trials": 0}
    states, cumulants, forward = (TabulatedFamily.natural_states, TabulatedFamily.cumulants,
                                  duality._forward)

    def watched_states(self, lams):
        work["rows"].append(np.array(lams, dtype=float))
        return states(self, lams)

    def watched_cumulants(self, lam):
        work["cumulants"] += 1
        return cumulants(self, lam)

    def watched_forward(*args):
        work["trials"] += 1
        return forward(*args)

    monkeypatch.setattr(TabulatedFamily, "natural_states", watched_states)
    monkeypatch.setattr(TabulatedFamily, "cumulants", watched_cumulants)
    monkeypatch.setattr(duality, "_forward", watched_forward)
    return work


class TestOneForwardPassPerTrial:
    """A cold Newton solve reads the table once per trial, and the point and
    a probe read it no further but for one third-cumulant pass."""

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_a_cold_solve_reads_one_row_per_trial(self, monkeypatch, shape):
        fam, A = probe_table(*shape)
        work = watch_forward_work(monkeypatch)
        lam, _, _ = duality.solve_lambda(fam, fam.check_feasible(A))
        rows = work["rows"]
        # the start, every Newton step and halving, and the polish: each is
        # one row of one call, and no row is read twice
        assert work["trials"] >= 4 and len(rows) == work["trials"]
        assert all(r.shape == (1, fam.n_dim) for r in rows)
        assert len({r.tobytes() for r in rows}) == len(rows)
        assert np.any([np.array_equal(r[0], lam) for r in rows[-2:]])
        assert work["cumulants"] == 0

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_the_point_reads_only_its_solve(self, monkeypatch, shape):
        fam, A = probe_table(*shape)
        work = watch_forward_work(monkeypatch)
        duality.solve_lambda(fam, fam.check_feasible(A))
        trials = work["trials"]
        work.update(rows=[], trials=0)
        pt = FamilyManifold(fam).point(A)
        assert work["trials"] == trials and len(work["rows"]) == trials
        assert work["cumulants"] == 0
        # S and the metric come from the solve's last row, at the point's lam
        want_A, want_S, want_cov = tabulated_states(fam.weights, fam.stats, pt.force)
        assert abs(pt.S - want_S[0]) <= 1e-13 * abs(want_S[0])
        assert np.max(np.abs(pt.g_inv - want_cov[0])) <= 1e-13 * np.max(np.abs(want_cov[0]))
        assert np.max(np.abs(want_A[0] - A)) <= 1e-13

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_a_probe_makes_one_cumulants_pass(self, monkeypatch, tmp_path, capsys, shape):
        fam, A = probe_table(*shape)
        work = watch_forward_work(monkeypatch)
        duality.solve_lambda(fam, fam.check_feasible(A))
        trials = work["trials"]
        work.update(rows=[], trials=0)
        path = tmp_path / "table.json"
        table = {"points": [f"x{i}" for i in range(len(fam.weights))],
                 "weights": fam.weights.tolist(), "stats": fam.stats.tolist()}
        path.write_text(json.dumps({"name": "t", "mode": "single", "family": table,
                                    "A0": A.tolist(), "integrator": {"tau_max": 1.0}}))
        point = [np.format_float_positional(x, unique=True, trim="0") for x in A]
        assert main(["probe", str(path), "--point", *point]) == 0
        assert f"Gamma[{fam.n_dim - 1}][{fam.n_dim - 1}]" in capsys.readouterr().out
        # the parsed point is A itself, so the probe's solve is the one above
        assert len(work["rows"]) == work["trials"] == trials
        assert work["cumulants"] == 1


def wide_table(seed, scale):
    """Seeded weights and 2x40 statistics of spread ``scale``, and a mean
    inside their hull."""
    rng = np.random.default_rng(seed)
    stats = rng.standard_normal((2, 40)) * scale
    weights = rng.uniform(0.5, 2.0, 40)
    return weights, stats, 0.3 * stats.mean(1) + 0.2 * stats.max(1)


class TestWideStatistics:
    """The mean rounds at the scale of the statistics, so the solve stops
    within what rounding puts into it; an absolute 1e-10 alone left 3 of 20
    of these tables unsolved at 1e6 and 17 of 20 at 1e9."""

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e7, 1e8, 1e9, 1e20, 1e50])
    def test_the_solve_meets_the_mean_at_any_scale(self, scale):
        for seed in range(20):
            weights, stats, A0 = wide_table(seed, scale)
            lam = as_manifold(TabulatedFamily(weights, stats)).point(A0).force
            # the mean at lam, summed directly
            y = lam @ stats
            p = weights * np.exp(-(y - y.min()))
            assert np.max(np.abs(stats @ (p / p.sum()) - A0)) <= 1e-13 * scale, seed

    def test_validate_run_and_probe_exit_0(self, tmp_path, capsys):
        weights, stats, A0 = wide_table(0, 1e8)
        doc = {"name": "wide", "mode": "single", "A0": A0.tolist(),
               "family": {"points": [f"x{i}" for i in range(40)],
                          "weights": weights.tolist(), "stats": stats.tolist()},
               "integrator": {"tau_max": 2.0},
               "analyses": [{"kind": "entropy_production_check"}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "wide-summary.json").read_text())
        assert summary["terminal_status"] == "equilibrium-reached"
        assert summary["analyses"]["entropy_production_check"]["max_residual"] <= 1e-13
        point = [np.format_float_positional(x, unique=True, trim="0") for x in A0]
        assert main(["probe", str(path), "--point", *point]) == 0
        assert "Gamma[1][1]" in capsys.readouterr().out
