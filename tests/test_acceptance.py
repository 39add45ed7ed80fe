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
    FamilyManifold,
    GaussianMeanFamily,
    IdealGasFamily,
    ReparametrizedManifold,
    as_manifold,
    covariant_acceleration,
    entropy_production_check,
    fd_metric_oracle,
    field_strength,
    integrate,
    metric,
    onsager_matrix,
    solve_lambda,
    unit_velocity,
)
from entroflow.cli import build_system, catalog_names, catalog_path, parse_config, run_scenario
from entroflow.onsager import empirical_onsager_pooled
from helpers import random_tabulated, random_feasible_mean


@pytest.fixture(scope="module")
def catalog_runs():
    """Parsed configs and integrated trajectories for every shipped scenario."""
    runs = {}
    for name in catalog_names():
        cfg = parse_config(catalog_path(name))
        system = build_system(cfg)
        traj = integrate(
            system,
            cfg.A0,
            tau_max=cfg.tau_max,
            h=cfg.h,
            sigma_eq=cfg.sigma_eq,
            record_every=cfg.record_every,
        )
        runs[name] = (cfg, system, traj)
    return runs


def test_c01_duality_round_trip_suite(bernoulli, ideal_gas, rng):
    families = [bernoulli, GaussianMeanFamily(1)]
    families += [random_tabulated(rng) for _ in range(5)]
    started = time.perf_counter()
    for fam in families:
        for _ in range(100):
            A = random_feasible_mean(rng, fam)
            back = fam.mean_parameters(solve_lambda(fam, A))
            assert np.max(np.abs(back - A)) <= 1e-9
    for _ in range(100):
        A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
        back = ideal_gas.mean_parameters(solve_lambda(ideal_gas, A))
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
        g = metric(bernoulli, A).g
        assert np.max(np.abs(g - fd_metric_oracle(bernoulli, A))) <= 1e-5 * np.max(np.abs(g))
        checked += 1
    for _ in range(50):
        A = rng.uniform(-2.0, 2.0, 2)
        g = metric(gaussian2, A).g
        assert np.max(np.abs(g - fd_metric_oracle(gaussian2, A))) <= 1e-5 * np.max(np.abs(g))
        checked += 1
    for _ in range(50):
        A = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0)])
        g = metric(ideal_gas, A).g
        assert np.max(np.abs(g - fd_metric_oracle(ideal_gas, A, step=1e-5))) <= 1e-5 * np.max(
            np.abs(g)
        )
        checked += 1
    tab = random_tabulated(rng, n_dim=2, n_points=6)
    for _ in range(50):
        A = random_feasible_mean(rng, tab)
        g = metric(tab, A).g
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
    tau_err = abs(traj.terminal.tau - math.pi / 6.0)
    state_err = abs(traj.terminal.A[0] - 0.5)
    assert tau_err <= 1e-7
    assert state_err <= 1e-4
    assert elapsed < 1.0
    print(
        f"\n[PASS] criterion 3: terminal tau = pi/6 +- {tau_err:.2e}, "
        f"terminal A = 0.5 +- {state_err:.2e} ({elapsed:.2f} s)"
    )


def test_c04_flow_invariants_on_every_shipped_scenario(catalog_runs):
    for name, (cfg, system, traj) in catalog_runs.items():
        for s in traj.samples:
            assert abs(s.speed - 1.0) <= 1e-6, f"{name}: unit speed violated"
        entropies = [s.S for s in traj.samples]
        assert all(
            entropies[k + 1] >= entropies[k] - 1e-10 for k in range(len(entropies) - 1)
        ), f"{name}: entropy decreased"
        assert entropy_production_check(traj).max_residual <= 1e-4, (
            f"{name}: dS/dtau deviates from sigma"
        )
    print(
        f"\n[PASS] criterion 4: unit speed <= 1e-6, S non-decreasing and "
        f"|dS/dtau - sigma| <= 1e-4 on {len(catalog_runs)} shipped scenarios"
    )


def test_c05_integrator_convergence_order(bernoulli):
    exact = 0.5 * (1.0 - math.cos(0.5 + math.pi / 3.0))
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = integrate(bernoulli, [0.25], tau_max=0.5, h=h)
        errors.append(abs(traj.terminal.A[0] - exact))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 3.5
    print(
        f"\n[PASS] criterion 5: observed convergence orders "
        f"{orders[0]:.2f}, {orders[1]:.2f} >= 3.5 over h in (4e-3, 2e-3, 1e-3)"
    )


def test_c06_coupled_conservation_and_equalization():
    system = CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(1.0), [4.0, 2.0])
    started = time.perf_counter()
    traj = integrate(system, [1.0, 0.5], tau_max=10.0)
    elapsed = time.perf_counter() - started
    for s in traj.samples:
        assert s.conservation_residual <= 1e-12
    force_gap = np.max(np.abs(traj.terminal.lam - traj.terminal.lam_prime))
    state_err = np.max(np.abs(traj.terminal.A - np.array([2.0, 1.0])))
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
    t1 = integrate(system, [0.8, 0.7], tau_max=10.0, record_every=5)
    t2 = integrate(system, [1.45, 0.6], tau_max=10.0, record_every=5)

    def center_at_sigma(traj, target):
        sig = np.array([s.sigma for s in traj.samples])
        return int(np.argmin(np.abs(sig - target)))

    c1, c2 = center_at_sigma(t1, 0.05), center_at_sigma(t2, 0.05)
    fitted = empirical_onsager_pooled([(t1, c1), (t2, c2)], 1.0, window=5)
    analytic = onsager_matrix(system, t1.samples[c1].A, 1.0).L
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
    interior = [s for s in traj.samples if s.sigma > 1e-3]
    picks = interior[:: max(1, len(interior) // 10)][:10]
    assert len(picks) == 10
    worst_identity = 0.0
    for s in picks:
        f = field_strength(system, s.A)
        assert np.max(np.abs(f + f.T)) <= 1e-8
        v = unit_velocity(as_manifold(system).point(s.A))
        pt = as_manifold(system).point(s.A)
        lhs = covariant_acceleration(system, s.A)
        rhs = pt.metric.g_inv @ f @ v
        worst_identity = max(worst_identity, float(np.max(np.abs(lhs - rhs))))
    assert worst_identity <= 1e-4

    worst_1d = 0.0
    for fam, points in [(bernoulli, [0.2, 0.35, 0.7]), (gaussian, [-1.5, 0.6])]:
        for a in points:
            worst_1d = max(worst_1d, float(np.max(np.abs(covariant_acceleration(fam, [a])))))
    assert worst_1d <= 1e-8
    print(
        f"\n[PASS] criterion 8: field strength antisymmetric, acceleration "
        f"identity within {worst_identity:.2e} <= 1e-4 at 10 interior points, "
        f"1-D acceleration {worst_1d:.2e} <= 1e-8"
    )


def test_c09_covariance_under_coordinate_change(bernoulli):
    chart = ReparametrizedManifold(
        FamilyManifold(bernoulli),
        forward=lambda A: A**2,
        inverse=lambda B: np.sqrt(B),
        jacobian=lambda A: np.array([[2.0 * A[0]]]),
    )
    base = integrate(bernoulli, [0.25], tau_max=2.0)
    mapped = integrate(chart, [0.0625], tau_max=2.0)
    assert len(base) == len(mapped)
    worst = 0.0
    for sa, sb in zip(base.samples, mapped.samples):
        assert abs(sa.tau - sb.tau) <= 1e-9
        worst = max(worst, abs(sa.A[0] - math.sqrt(sb.A[0])))
    assert worst <= 1e-5
    print(
        f"\n[PASS] criterion 9: trajectory integrated in B = A^2 maps back "
        f"within {worst:.2e} <= 1e-5 at matched tau"
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
