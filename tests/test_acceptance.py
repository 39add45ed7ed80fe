"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from entroflow import (
    CompositeSystem,
    GaussianMeanFamily,
    IdealGasFamily,
    as_manifold,
    covariant_acceleration,
    entropy_production_check,
    field_strength,
    integrate,
    onsager_matrix,
    unit_velocity,
)
from entroflow.cli import build_system, catalog_names, catalog_path, parse_config, run_scenario
from helpers import (
    fd_metric_oracle, pooled_fit, random_feasible_mean, random_tabulated, rk4_rows,
    squared_bernoulli, states_oracle,
)


@pytest.fixture(scope="module")
def catalog_runs():
    """Parsed configs and integrated trajectories for every shipped scenario."""
    runs = {}
    for name in catalog_names():
        cfg = parse_config(catalog_path(name))
        system = build_system(cfg)
        traj = integrate(system, cfg.A0, tau_max=cfg.tau_max, h=cfg.h)
        runs[name] = (cfg, system, traj)
    return runs


def test_c01_duality_round_trip_suite(bernoulli, ideal_gas, rng):
    families = [bernoulli, GaussianMeanFamily(1)]
    families += [random_tabulated(rng) for _ in range(5)]
    started = time.perf_counter()
    for fam in families:
        for _ in range(100):
            A = random_feasible_mean(rng, fam)
            back = states_oracle(fam, as_manifold(fam).point(A).force)[0][0]
            assert np.max(np.abs(back - A)) <= 1e-9
    for _ in range(100):
        A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
        back = states_oracle(ideal_gas, as_manifold(ideal_gas).point(A).force)[0][0]
        assert np.max(np.abs(back - A)) <= 1e-9 * np.max(np.abs(A))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"\n[PASS] criterion 1: duality round trip <= 1e-9 on 100 points x "
        f"{len(families) + 1} families ({elapsed:.2f} s)"
    )


def test_c02_metric_against_fd_oracle(bernoulli, gaussian2, ideal_gas, rng):
    started = time.perf_counter()
    checked = 0
    for _ in range(50):
        A = np.array([rng.uniform(0.1, 0.9)])
        g = as_manifold(bernoulli).point(A).g
        assert np.max(np.abs(g - fd_metric_oracle(bernoulli, A))) <= 1e-5 * np.max(np.abs(g))
        checked += 1
    for _ in range(50):
        A = rng.uniform(-2.0, 2.0, 2)
        g = as_manifold(gaussian2).point(A).g
        assert np.max(np.abs(g - fd_metric_oracle(gaussian2, A))) <= 1e-5 * np.max(np.abs(g))
        checked += 1
    for _ in range(50):
        A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
        g = as_manifold(ideal_gas).point(A).g
        assert np.max(np.abs(g - fd_metric_oracle(ideal_gas, A, step=1e-5))) <= 1e-5 * np.max(
            np.abs(g)
        )
        checked += 1
    tab = random_tabulated(rng, n_dim=2, n_points=6)
    for _ in range(50):
        A = random_feasible_mean(rng, tab)
        g = as_manifold(tab).point(A).g
        assert np.max(np.abs(g - fd_metric_oracle(tab, A))) <= 1e-5 * np.max(np.abs(g))
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\n[PASS] criterion 2: metric vs finite-difference entropy Hessian "
        f"<= 1e-5 relative at {checked} points ({elapsed:.2f} s)"
    )


def test_c03_bernoulli_relaxation_golden_value(bernoulli):
    started = time.perf_counter()
    traj = integrate(bernoulli, [0.25], tau_max=2.0)
    elapsed = time.perf_counter() - started
    tau_err = abs(traj.tau[-1] - math.pi / 6.0)
    state_err = abs(traj.A[-1, 0] - 0.5)
    assert tau_err <= 1e-12
    assert state_err <= 1e-4
    assert elapsed < 1.0
    print(
        f"\n[PASS] criterion 3: terminal tau = pi/6 +- {tau_err:.2e}, "
        f"terminal A = 0.5 +- {state_err:.2e} ({elapsed:.2f} s)"
    )


def test_c04_flow_invariants_on_every_shipped_scenario(catalog_runs):
    for name, (cfg, system, traj) in catalog_runs.items():
        assert np.all(np.abs(traj.speed - 1.0) <= 1e-6), f"{name}: unit speed violated"
        assert np.all(np.diff(traj.S) >= -1e-10), f"{name}: entropy decreased"
        assert entropy_production_check(traj).max_residual <= 1e-13, (
            f"{name}: dS/dtau deviates from sigma"
        )
    print(
        f"\n[PASS] criterion 4: unit speed <= 1e-6, S non-decreasing and "
        f"entropy check residual <= 1e-13 on {len(catalog_runs)} shipped scenarios"
    )


def test_c05_integrator_rows_meet_the_closed_form(bernoulli_pair):
    # over two equal Bernoulli halves the metric doubles, so arcsin sqrt(A)
    # advances at rate 1 / (2 sqrt 2): the rows lie on the exact trajectory
    # whatever the spacing
    worst = 0.0
    for h in (8e-3, 4e-3, 2e-3):
        traj = integrate(bernoulli_pair, [0.25], tau_max=0.5, h=h)
        exact = np.sin(math.pi / 6.0 + traj.tau / (2.0 * math.sqrt(2.0))) ** 2
        worst = max(worst, float(np.max(np.abs(traj.A[:, 0] - exact))))
    assert worst <= 1e-12
    print(
        f"\n[PASS] criterion 5: Bernoulli-pair rows within {worst:.2e} <= 1e-12 "
        f"of the closed form at h in (8e-3, 4e-3, 2e-3)"
    )


def test_c06_coupled_conservation_and_equalization():
    system = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(1.0), [4.0, 2.0])
    started = time.perf_counter()
    traj = integrate(system, [1.0, 0.5], tau_max=10.0)
    elapsed = time.perf_counter() - started
    assert np.all(traj.conservation_residual <= 1e-12)
    force_gap = np.max(np.abs(traj.lam[-1] - traj.lam_prime[-1]))
    state_err = np.max(np.abs(traj.A[-1] - np.array([2.0, 1.0])))
    assert force_gap <= 1e-6
    assert state_err <= 1e-3
    assert elapsed < 5.0
    print(
        f"\n[PASS] criterion 6: conservation <= 1e-12 at {len(traj)} samples, "
        f"terminal |lam - lam'| = {force_gap:.2e} <= 1e-6, "
        f"terminal state (2,1) +- {state_err:.2e} ({elapsed:.2f} s)"
    )


def test_c07_onsager_reciprocity(rng):
    system = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(1.0), [4.0, 2.0])
    for _ in range(50):
        A = np.array([rng.uniform(0.8, 3.0), rng.uniform(0.4, 1.5)])
        if np.max(np.abs(A - np.array([2.0, 1.0]))) < 0.05:
            continue
        report = onsager_matrix(system, A, clock_rate=1.0)
        assert report.asymmetry == 0.0

    # the force one-form decays parallel to itself along any single
    # trajectory, so the empirical estimate pools matched-sigma windows
    # from two starts with different (conserved) force directions
    t1 = integrate(system, [0.8, 0.7], tau_max=10.0, h=5e-3)
    t2 = integrate(system, [1.45, 0.6], tau_max=10.0, h=5e-3)

    def center_at_sigma(traj, target):
        return int(np.argmin(np.abs(traj.sigma - target)))

    c1, c2 = center_at_sigma(t1, 0.05), center_at_sigma(t2, 0.05)
    fitted = pooled_fit([(t1, c1), (t2, c2)], 1.0, window=5)
    analytic = onsager_matrix(system, t1.A[c1], 1.0).L
    rel = np.max(np.abs(fitted - analytic)) / np.max(np.abs(analytic))
    asym = np.max(np.abs(fitted - fitted.T)) / np.max(np.abs(fitted))
    assert rel <= 0.05
    assert asym <= 0.05
    print(
        f"\n[PASS] criterion 7: analytic L exactly symmetric at 50 points; "
        f"empirical L within {100 * rel:.1f}% of analytic, "
        f"asymmetry {100 * asym:.2f}% <= 5%"
    )


def test_c08_geometry_identities(catalog_runs, bernoulli, gaussian):
    _, system, traj = catalog_runs["two-vessel-gas-EN"]
    interior = traj.A[traj.sigma > 1e-3]
    picks = interior[:: max(1, len(interior) // 10)][:10]
    assert len(picks) == 10
    worst_identity = 0.0
    for A in picks:
        f = field_strength(system, A)
        assert np.max(np.abs(f + f.T)) <= 1e-8
        v = unit_velocity(as_manifold(system).point(A))
        pt = as_manifold(system).point(A)
        lhs = covariant_acceleration(system, A)
        rhs = pt.g_inv @ f @ v
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs))))
    assert worst_identity <= 1e-12

    worst_1d = 0.0
    for fam, points in [(bernoulli, [0.2, 0.35, 0.7]), (gaussian, [-1.5, 0.6])]:
        for a in points:
            worst_1d = max(worst_1d, float(np.max(np.abs(covariant_acceleration(fam, [a])))))
    assert worst_1d <= 1e-14
    print(
        f"\n[PASS] criterion 8: field strength antisymmetric, acceleration "
        f"identity within {worst_identity:.2e} <= 1e-12 at 10 interior points, "
        f"1-D acceleration {worst_1d:.2e} <= 1e-14"
    )


def test_c09_covariance_under_coordinate_change(bernoulli):
    chart = squared_bernoulli(bernoulli)
    base = integrate(bernoulli, [0.25], tau_max=2.0)  # the exact ray
    mapped = chart.forward(base.A)  # its rows in the chart B = A^2
    taus, B = rk4_rows(chart, [0.0625], 1e-3, 2.0)  # RK4 in the chart
    # all three trace A(tau) = sin^2(pi/6 + tau/2), checked at every row
    base_err = np.max(np.abs(base.A[:, 0] - np.sin(math.pi / 6.0 + 0.5 * base.tau) ** 2))
    mapped_err = np.max(np.abs(np.sqrt(mapped[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * base.tau) ** 2))
    worst = float(np.max(np.abs(np.sqrt(B[:, 0]) - np.sin(math.pi / 6.0 + 0.5 * taus) ** 2)))
    assert base_err <= 1e-12 and mapped_err <= 1e-12
    assert worst <= 1e-5
    assert abs(base.tau[-1] - math.pi / 6.0) <= 1e-12
    print(
        f"\n[PASS] criterion 9: the trajectory mapped into B = A^2 lies within "
        f"{mapped_err:.2e} <= 1e-12 of the exact curve at all {len(base)} rows, "
        f"RK4 in the chart within {worst:.2e} <= 1e-5"
    )


def test_c10_cli_determinism(tmp_path):
    artifacts = 0
    for name in catalog_names():
        cfg = parse_config(catalog_path(name))
        for sub in ("first", "second"):
            status = run_scenario(cfg, output_dir=tmp_path / sub, log=io.StringIO())
            assert status == 0
        produced = sorted(p.name for p in (tmp_path / "first").iterdir())
        for artifact in produced:
            a = (tmp_path / "first" / artifact).read_bytes()
            b = (tmp_path / "second" / artifact).read_bytes()
            assert a == b, f"{name}/{artifact} differs between runs"
        artifacts = len(produced)
    assert artifacts > 0
    print(
        f"\n[PASS] criterion 10: repeated runs of {len(catalog_names())} catalog "
        f"scenarios produce byte-identical CSV and JSON artifacts"
    )
