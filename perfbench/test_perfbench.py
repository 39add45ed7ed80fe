"""Tests of the benchmark itself: its oracles, span arithmetic and inputs.

    python3 -m pytest perfbench

Kept out of the package's own test command.  Each oracle must reject a
perturbed answer, so a benchmark that passes cannot be hiding a wrong one.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import RunExpectation, TabulatedOracle, gauss_legendre  # noqa: E402


def _fmt(x) -> str:
    return format(float(x), ".17g")


def run_artifacts(exp: RunExpectation, **override):
    """Summary, CSV and Onsager JSON as a correct run would write them."""
    summary = {
        "terminal_status": "equilibrium-reached",
        "terminal_tau": exp.tau,
        "terminal_A": list(exp.A),
        "terminal_S": exp.S,
    }
    if exp.entropy_check:
        summary["analyses"] = {"entropy_production_check": {"max_residual": 1e-7, "argmax_tau": 0.1}}
    summary.update(override)
    csv_tau = override.get("csv_tau", summary["terminal_tau"])
    csv = "tau,A_1\n0,0.25\n0.5,0.4\n" + f"{_fmt(csv_tau)},0.5\n"
    onsager = json.dumps({"asymmetry": override.get("asymmetry", 0.0)})
    return json.dumps(summary), csv, onsager


def probe_text(exp: oracles.ProbeExpectation, gamma=None, lam=None, metric=None) -> str:
    gamma = exp.gamma if gamma is None else gamma
    lam = exp.lam if lam is None else lam
    metric = exp.metric if metric is None else metric
    lines = [
        "point   = [" + ", ".join(_fmt(x) for x in exp.point) + "]",
        "lambda  = [" + ", ".join(_fmt(x) for x in lam) + "]",
        "sigma   = " + _fmt(exp.sigma),
    ]
    lines += [f"g[{i}]    = [" + ", ".join(_fmt(x) for x in row) + "]" for i, row in enumerate(metric)]
    for a, block in enumerate(gamma):
        lines += [f"Gamma[{a}][{b}] = [" + ", ".join(_fmt(x) for x in row) + "]" for b, row in enumerate(block)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(7)
    doc = workloads.random_table(rng, 3, 50)
    return TabulatedOracle(doc["weights"], doc["stats"]), workloads.unit_vector(rng, 3)


# -- run oracle --------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.CATALOG_EXPECTED))
def test_run_oracle_accepts_the_expected_answer(name):
    exp = workloads.CATALOG_EXPECTED[name]
    assert oracles.check_run(exp, *run_artifacts(exp)) == []


@pytest.mark.parametrize(
    "override",
    [
        {"terminal_tau": math.pi / 6 + 1e-5},
        {"terminal_tau": math.pi / 6 - 1e-5},
        {"terminal_A": [0.5 + 1e-5]},
        {"terminal_S": math.log(2.0) - 1e-5},
        {"terminal_status": "tau-budget-exhausted"},
        {"analyses": {"entropy_production_check": {"max_residual": 2e-4, "argmax_tau": 0.1}}},
        {"analyses": {}},
        {"csv_tau": 0.5},
    ],
)
def test_run_oracle_rejects_a_perturbed_answer(override):
    exp = workloads.CATALOG_EXPECTED["bernoulli-relax"]
    assert oracles.check_run(exp, *run_artifacts(exp, **override))


def test_run_oracle_rejects_onsager_asymmetry():
    exp = workloads.CATALOG_EXPECTED["two-vessel-gas-E-only"]
    assert oracles.check_run(exp, *run_artifacts(exp, asymmetry=1e-17))
    summary, csv, _ = run_artifacts(exp)
    assert oracles.check_run(exp, summary, csv, None)


def test_closed_forms_match_quadrature_of_the_metric():
    expected = workloads.CATALOG_EXPECTED

    def bernoulli(a):
        return 1.0 / np.sqrt(a * (1.0 - a))

    tau = gauss_legendre(bernoulli, 0.25, 0.5, nodes=400)
    assert expected["bernoulli-relax"].tau == pytest.approx(tau, abs=1e-6)
    coupled = gauss_legendre(lambda a: np.sqrt(2.0) * bernoulli(a), 0.25, 0.5, nodes=400)
    assert expected["bernoulli-coupled"].tau == pytest.approx(coupled, abs=1e-6)
    # Two ideal gases along E = 2N, N from 1/2 to 1: metric 1/N + 1/(2 - N).
    gas = gauss_legendre(lambda n: np.sqrt(1.0 / n + 1.0 / (2.0 - n)), 0.5, 1.0)
    assert expected["two-vessel-gas-EN"].tau == pytest.approx(gas, abs=1e-12)


def test_ray_tau_matches_a_fine_trapezoid(table):
    oracle, lam0 = table
    s = np.linspace(0.0, 1.0, 4001)
    speed = [math.sqrt(lam0 @ oracle.covariance(si * lam0) @ lam0) for si in s]
    assert oracle.ray_tau(lam0) == pytest.approx(np.trapezoid(speed, s), rel=1e-6)


# -- probe oracle ------------------------------------------------------------


def test_probe_oracle_accepts_the_expected_answer(table):
    oracle, lam0 = table
    exp = oracles.probe_expectation(oracle, 0.6 * lam0)
    assert oracles.check_probe(exp, probe_text(exp)) == []


def test_probe_oracle_rejects_a_perturbed_answer(table):
    oracle, lam0 = table
    exp = oracles.probe_expectation(oracle, 0.6 * lam0)
    flipped = exp.gamma.copy()
    flipped[0, 1, 2] = -flipped[0, 1, 2]
    flipped[0, 2, 1] = -flipped[0, 2, 1]
    assert oracles.check_probe(exp, probe_text(exp, gamma=flipped))
    assert oracles.check_probe(exp, probe_text(exp, gamma=exp.gamma * (1.0 + 1e-4)))
    assert oracles.check_probe(exp, probe_text(exp, gamma=-exp.gamma))
    assert oracles.check_probe(exp, probe_text(exp, lam=exp.lam * (1.0 + 1e-7)))
    assert oracles.check_probe(exp, probe_text(exp, metric=exp.metric * (1.0 + 1e-7)))
    assert oracles.check_probe(exp, probe_text(exp)[:-40])


def test_christoffel_formula_matches_differences_of_the_metric(table):
    """Gamma^a_bc = 1/2 g^ad d_b g_dc for the Hessian metric g(A) = Cov^-1.

    d/dA_b = -sum_j g_jb d/dlam_j, and g(lam) is differenced in lam.
    """
    oracle, lam0 = table
    lam = 0.6 * lam0
    exp = oracles.probe_expectation(oracle, lam)
    h = 1e-5
    dg_dlam = np.array(
        [
            (np.linalg.inv(oracle.covariance(lam + h * e)) - np.linalg.inv(oracle.covariance(lam - h * e)))
            / (2.0 * h)
            for e in np.eye(3)
        ]
    )
    dg = -np.einsum("jb,jdc->bdc", exp.metric, dg_dlam)
    gamma = 0.5 * np.einsum("ad,bdc->abc", np.linalg.inv(exp.metric), dg)
    assert np.max(np.abs(gamma - exp.gamma)) < 1e-6 * np.max(np.abs(exp.gamma))


# -- spans -------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    #               0: [0, 10]
    #     1: [1, 4]           2: [5, 9]
    #  3: [2, 3]        4: [5, 6.5]  5: [7, 8.75]      6: [11, 12] (a second root)
    start = [0.0, 1.0, 5.0, 2.0, 5.0, 7.0, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 6.5, 8.75, 12.0]
    parent = [-1, 0, 0, 1, 2, 2, -1]
    got = spans.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([3.0, 2.0, 0.75, 1.0, 1.5, 1.75, 1.0])


def test_recorder_links_nested_calls_to_their_parents():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)
    inner = recorder.wrap("inner", lambda: (leaf(), leaf()))
    outer = recorder.wrap("outer", lambda: (inner(), leaf()))
    outer()
    sp = recorder.arrays()
    assert [recorder.kinds[k] for k in sp["kind"]] == ["outer", "inner", "leaf", "leaf", "leaf"]
    assert sp["parent"].tolist() == [-1, 0, 1, 1, 0]
    assert np.all(sp["end"] >= sp["start"])


def test_instrument_counts_a_probe_and_restores_the_package(tmp_path):
    from entroflow import cli, duality, family

    original = (duality.solve_lambda, family.BernoulliFamily.covariance, cli.christoffel)
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps(
        {"name": "b", "mode": "single", "family": {"closed_form": "bernoulli"},
         "A0": [0.25], "integrator": {"tau_max": 2.0}}
    ))
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        assert duality.solve_lambda is not original[0]
        call = recorder.wrap("cli.main", cli.main)
        assert run.execute(call, ["probe", str(cfg), "--point", "0.3"])[2] == 0
    assert (duality.solve_lambda, family.BernoulliFamily.covariance, cli.christoffel) == original
    layers = spans.layer_metrics(recorder, 1)
    assert layers["geometry.metric_matrix.calls"] == 2.0
    assert layers["duality.solves.cold"] == 2.0
    assert layers["duality.solves.warm"] == 2.0
    assert layers["cli.parse_s"] > 0.0 and layers["geometry.christoffel_s"] > 0.0
    assert layers["flow.rk4_steps"] == 0.0 and layers["geometry.points_per_sample"] == 0.0
    assert set(layers) | {"cli.cpu_util", "trace.overhead"} == set(spans.UNITS)


def test_op_times_are_scaled_by_the_kernel_timings_around_them(monkeypatch, tmp_path):
    kernels = iter([0.02, 0.04, 0.08])
    monkeypatch.setattr(run, "reference_kernel", lambda: next(kernels))
    monkeypatch.setattr(run, "KERNEL_EVERY_S", 0.0)
    op = workloads.Op("x", ["run"], tmp_path)
    tally = run.run_passes([op], lambda argv: 0, 0.0, 2, {}, run.HostSpeed())
    assert tally.failures == [] and tally.attempted == 2
    scales = [2 * run.REF_S / (0.02 + 0.04), 2 * run.REF_S / (0.04 + 0.08)]
    assert tally.pass_s == pytest.approx([r * k for r, k in zip(tally.raw_pass_s, scales)])
    assert tally.op_s["x"] == tally.pass_s


def test_kernel_runs_inside_a_long_op_are_timed_and_taken_out(monkeypatch, tmp_path):
    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass
        return time.perf_counter() - t0

    monkeypatch.setattr(run, "reference_kernel", lambda: busy(0.005))
    monkeypatch.setattr(run, "KERNEL_EVERY_S", 0.05)
    windows = []

    def op_call(argv):
        t0 = time.perf_counter()
        busy(0.3)
        windows.append((t0, time.perf_counter()))
        return 0

    op = workloads.Op("x", ["run"], tmp_path)
    speed = run.HostSpeed()
    tally = run.run_passes([op], op_call, 0.0, 2, {}, speed)
    assert tally.failures == []
    for (t0, t1), raw in zip(windows, tally.raw_pass_s):
        inside = [k for at, k in zip(speed.at, speed.kernel_s) if t0 <= at <= t1]
        assert len(inside) >= 3
        assert raw == pytest.approx(t1 - t0 - sum(inside), abs=1e-3)
    assert tally.pass_s == pytest.approx([r * run.REF_S / 0.005 for r in tally.raw_pass_s], rel=0.05)


def test_setup_times_are_spread_over_the_run_and_scaled(monkeypatch):
    kernels = iter([0.02, 0.04, 0.08, 0.08, 0.04, 0.02])
    monkeypatch.setattr(run, "reference_kernel", lambda: next(kernels))
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    setup = run.SetupTimer([], seconds=1e9)
    setup.argv = [sys.executable, "-c", "print(0.5)"]
    speed = run.HostSpeed()
    assert not setup.due(final=False)
    while setup.due(final=True):
        setup.sample(speed)
    assert len(setup.samples) == 3 and setup.spent > 0.0
    scales = [2 * run.REF_S / (0.02 + 0.04), 2 * run.REF_S / (0.08 + 0.08), 2 * run.REF_S / (0.04 + 0.02)]
    assert setup.median(speed) == pytest.approx(statistics.median(0.5 * k for k in scales))


# -- inputs and declared metrics ---------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_configs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.WORKLOADS[name](tmp_path / "a", 5)
    second = workloads.WORKLOADS[name](tmp_path / "b", 5)
    assert [p.read_bytes() for p in first.configs] == [p.read_bytes() for p in second.configs]
    assert [op.name for op in first.ops] == [op.name for op in second.ops]


def test_tabulated_equilibria_sit_at_fixed_points_of_the_final_step(tmp_path):
    workload = workloads.tabulated(tmp_path, 3)
    k = workloads.TABLES_PER_SHAPE
    expected = [
        workloads.TABULATED_TAU - (i + 0.5) * workloads.STEP / k
        for _ in workloads.TABULATED_SHAPES
        for i in range(k)
    ]
    assert [op.runs[op.name].tau for op in workload.ops] == pytest.approx(expected, rel=1e-12)
    assert [op.group for op in workload.ops] == [g for g in workloads.TABULATED_SHAPES for _ in range(k)]


def test_declared_metrics_match_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    tally = run.Tally(pass_s=[2.0, 2.2], op_s={"a": [1.0, 1.1], "b": [1.0, 1.1]}, raw_pass_s=[2.0, 2.2])
    metrics, details = run.end_to_end(tally, 0.1, None, {"a": "g", "b": "g"})
    assert details["report"]["run_s.g"]["value"] == pytest.approx(2.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
