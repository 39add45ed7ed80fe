import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroflow
from entroflow import (
    ParseError,
    StepCollapseError,
    ValidationError,
    integrate,
)
from entroflow import cli
from entroflow.cli import (
    _probe_text,
    build_system,
    catalog_names,
    catalog_path,
    main,
    parse_config,
    run_scenario,
)
from entroflow.coupled import CompositeSystem
from entroflow.family import BernoulliFamily, Ray, TabulatedFamily


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


MINIMAL = {
    "name": "b",
    "mode": "single",
    "family": {"closed_form": "bernoulli"},
    "A0": [0.25],
    "integrator": {"tau_max": 2.0},
}


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.name == "b"
        assert cfg.mode == "single"
        assert cfg.h == 1e-3
        assert cfg.tau_max == 2.0
        assert cfg.sigma_eq == 1e-8
        assert cfg.outputs.trajectory_csv == "b.csv"
        assert cfg.outputs.summary_json == "b-summary.json"
        assert isinstance(build_system(cfg), BernoulliFamily)

    def test_unknown_integrator_key_is_parse_error(self, tmp_path):
        doc = dict(MINIMAL, integrator={"taumax": 2.0})
        with pytest.raises(ParseError, match="taumax"):
            parse_config(write_config(tmp_path, doc))

    def test_unknown_top_level_key(self, tmp_path):
        doc = dict(MINIMAL, extra=1)
        with pytest.raises(ParseError, match="extra"):
            parse_config(write_config(tmp_path, doc))

    def test_unknown_family_key(self, tmp_path):
        doc = dict(MINIMAL, family={"closed_form": "bernoulli", "volum": 1.0})
        with pytest.raises(ParseError, match="volum"):
            parse_config(write_config(tmp_path, doc))

    def test_coupled_missing_total_is_validation_error(self, tmp_path):
        doc = {
            "name": "c",
            "mode": "coupled",
            "families": [{"closed_form": "bernoulli"}, {"closed_form": "bernoulli"}],
            "A0": [0.25],
            "integrator": {"tau_max": 2.0},
        }
        with pytest.raises(ValidationError, match="A_total"):
            parse_config(write_config(tmp_path, doc))

    def test_all_violations_reported_together(self, tmp_path):
        doc = {
            "name": "",
            "mode": "coupled",
            "families": [{"closed_form": "bernoulli"}],
            "A0": [0.25],
            "integrator": {"tau_max": -1.0, "h": 0.0},
        }
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(tmp_path, doc))
        text = str(err.value)
        assert "name" in text
        assert "families" in text
        assert "A_total" in text
        assert "tau_max" in text
        assert "integrator.h" in text

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "mode": }')
        with pytest.raises(ParseError, match="line 2"):
            parse_config(path)

    def test_inline_tabulated_family(self, tmp_path):
        doc = dict(
            MINIMAL,
            family={"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]},
        )
        cfg = parse_config(write_config(tmp_path, doc))
        assert isinstance(build_system(cfg), TabulatedFamily)

    def test_tabulated_path_resolved_relative_to_config(self, tmp_path):
        fam_doc = {"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]}
        (tmp_path / "fam.json").write_text(json.dumps(fam_doc))
        doc = dict(MINIMAL, family={"tabulated": "fam.json"})
        cfg = parse_config(write_config(tmp_path, doc))
        assert isinstance(build_system(cfg), TabulatedFamily)

    def test_coupled_config_builds_composite(self, tmp_path):
        doc = {
            "name": "pair",
            "mode": "coupled",
            "families": [
                {"closed_form": "ideal-gas", "volume": 1.0},
                {"closed_form": "ideal-gas", "volume": 1.0},
            ],
            "A0": [1.0, 0.5],
            "A_total": [4.0, 2.0],
            "integrator": {"tau_max": 10.0},
        }
        cfg = parse_config(write_config(tmp_path, doc))
        assert isinstance(build_system(cfg), CompositeSystem)

    def test_nonfinite_numbers_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            '{"name": "x", "mode": "single", "family": {"closed_form": "bernoulli"},'
            ' "A0": [Infinity], "integrator": {"tau_max": 1.0}}'
        )
        with pytest.raises(ValidationError, match="A0"):
            parse_config(path)


class TestRunScenario:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        log = io.StringIO()
        status = run_scenario(cfg, output_dir=tmp_path / "out", log=log)
        assert status == 0
        csv_text = (tmp_path / "out" / "b.csv").read_text()
        summary = json.loads((tmp_path / "out" / "b-summary.json").read_text())
        assert summary["terminal_status"] == "equilibrium-reached"
        assert summary["terminal_tau"] == pytest.approx(math.pi / 6.0, abs=1e-12)
        assert summary["terminal_A"][0] == pytest.approx(0.5, abs=1e-4)
        # summary equals the last CSV row
        last = csv_text.strip().splitlines()[-1].split(",")
        assert float(last[0]) == summary["terminal_tau"]
        assert float(last[1]) == summary["terminal_A"][0]
        assert float(last[3]) == summary["terminal_S"]

    def test_budget_exhaustion_still_exits_0(self, tmp_path):
        doc = dict(MINIMAL, name="short", integrator={"tau_max": 0.05})
        cfg = parse_config(write_config(tmp_path, doc))
        log = io.StringIO()
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=log) == 0
        summary = json.loads((tmp_path / "out" / "short-summary.json").read_text())
        assert summary["terminal_status"] == "tau-budget-exhausted"
        assert summary["terminal_tau"] == pytest.approx(0.05, abs=1e-12)

    def test_equilibrium_start_exits_2(self, tmp_path):
        doc = dict(MINIMAL, A0=[0.5])
        cfg = parse_config(write_config(tmp_path, doc))
        log = io.StringIO()
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=log) == 2
        assert "AtEquilibriumError" in log.getvalue()

    @pytest.mark.parametrize(
        "change",
        [{"A0": [0.4995]}, {"integrator": {"tau_max": 2.0, "h": 0.5}}],
        ids=["start-near-maximum", "wide-spacing"],
    )
    def test_run_spanning_one_spacing_keeps_rows_for_the_entropy_check(self, tmp_path, change):
        # tau_eq is about 1e-3 = h, or about h = 0.5: rows go on as sigma
        # halves down to 2 sigma_eq before the maximum, so the entropy check
        # still finds interior rows
        doc = dict(MINIMAL, **change, analyses=[{"kind": "entropy_production_check"}])
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=io.StringIO()) == 0
        rows = (tmp_path / "out" / "b.csv").read_text().splitlines()[1:]
        assert len(rows) >= 15
        summary = json.loads((tmp_path / "out" / "b-summary.json").read_text())
        assert summary["terminal_status"] == "equilibrium-reached"
        assert math.isfinite(summary["analyses"]["entropy_production_check"]["max_residual"])

    def test_determinism_byte_identical(self, tmp_path):
        doc = dict(
            MINIMAL,
            name="det",
            analyses=[{"kind": "entropy_production_check"}],
        )
        cfg = parse_config(write_config(tmp_path, doc))
        for sub in ("a", "b"):
            assert run_scenario(cfg, output_dir=tmp_path / sub, log=io.StringIO()) == 0
        for artifact in ("det.csv", "det-summary.json"):
            first = (tmp_path / "a" / artifact).read_bytes()
            second = (tmp_path / "b" / artifact).read_bytes()
            assert first == second

    def test_onsager_analysis_writes_report(self, tmp_path):
        doc = {
            "name": "eonly",
            "mode": "coupled",
            "families": [
                {"closed_form": "ideal-gas", "volume": 1.0, "fixed_n": 1.0},
                {"closed_form": "ideal-gas", "volume": 1.0, "fixed_n": 1.0},
            ],
            "A0": [1.0],
            "A_total": [4.0],
            "integrator": {"tau_max": 6.0},
            "analyses": [{"kind": "onsager", "clock_rate": 2.0}],
        }
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=io.StringIO()) == 0
        report = json.loads((tmp_path / "out" / "eonly-onsager.json").read_text())
        assert report["asymmetry"] == 0.0
        assert report["empirical_L"] is not None

    def test_tabulated_scenario_end_to_end(self, tmp_path):
        fam_doc = {
            "points": [0, 1, 2],
            "weights": [1.0, 2.0, 1.0],
            "stats": [[0.0, 1.0, 2.0]],
        }
        (tmp_path / "three.json").write_text(json.dumps(fam_doc))
        doc = {
            "name": "three-state",
            "mode": "single",
            "family": {"tabulated": "three.json"},
            "A0": [0.4],
            "integrator": {"tau_max": 4.0},
        }
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=io.StringIO()) == 0
        summary = json.loads((tmp_path / "out" / "three-state-summary.json").read_text())
        assert summary["terminal_status"] == "equilibrium-reached"
        # entropy maximum of the weighted three-state chain sits at lam = 0
        fam = build_system(cfg)
        target = fam.mean_parameters([0.0])[0]
        assert summary["terminal_A"][0] == pytest.approx(target, abs=1e-6)

    def test_geometry_probe_analysis(self, tmp_path):
        doc = dict(
            MINIMAL,
            name="probe",
            analyses=[{"kind": "geometry_probe", "points": [[0.25], [0.4]]}],
        )
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=io.StringIO()) == 0
        summary = json.loads((tmp_path / "out" / "probe-summary.json").read_text())
        probes = summary["analyses"]["geometry_probe"]
        assert len(probes) == 2
        assert probes[0]["metric"][0][0] == pytest.approx(16.0 / 3.0, rel=1e-10)

    def test_failed_summary_write_leaves_no_artifact(self, tmp_path):
        # the summary is written last; its directory does not exist, so the
        # write raises FileNotFoundError after the CSV and the Onsager JSON
        doc = dict(
            MINIMAL,
            analyses=[{"kind": "onsager"}],
            outputs={"summary_json": "missing/summary.json"},
        )
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert list(out.iterdir()) == []

    def test_failing_analysis_writes_no_artifacts(self, tmp_path):
        doc = dict(
            MINIMAL,
            name="baddim",
            analyses=[{"kind": "geometry_probe", "points": [[0.3, 0.4]]}],
        )
        cfg = parse_config(write_config(tmp_path, doc))
        log = io.StringIO()
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=log) == 2
        assert "shape" in log.getvalue()
        assert list((tmp_path / "out").iterdir()) == []


class TestMain:
    def test_run_and_validate(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["validate", str(path)]) == 0
        assert "valid scenario" in capsys.readouterr().out
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "b.csv").exists()

    @pytest.mark.parametrize(
        "change, message, run_exit",
        [
            ({"family": {"points": [[0], [1]], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]}},
             "hashable", 2),
            ({"A0": [0.25, 0.3]}, "A0: A must have shape (1,)", 2),
            ({"A0": [1.5]}, "A0: bernoulli mean must lie in (0, 1)", 2),
            ({"analyses": [{"kind": "geometry_probe", "points": [[0.3, 0.4]]}]},
             "analyses[0].points[0]: A must have shape (1,)", 2),
            # rejected when parsed, so run exits 1 like validate
            ({"outputs": {"trajectory_csv": "x.out", "summary_json": "./x.out"}},
             "outputs.summary_json and outputs.trajectory_csv name the same file", 1),
        ],
        ids=["list-labels", "A0-length", "A0-infeasible", "probe-point-length", "same-output-path"],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, change, message, run_exit):
        path = write_config(tmp_path, dict(MINIMAL, **change))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and message in err
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == run_exit
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("form", ["inline", "file"])
    def test_json_booleans_are_not_table_numbers(self, tmp_path, capsys, form):
        # true and false are ints to Python, but not numbers to the schema
        table = {"points": ["a", "b", "c"], "weights": [True, 1.0, 2.0],
                 "stats": [[False, True, 2.0]]}
        if form == "file":
            (tmp_path / "table.json").write_text(json.dumps(table))
            table = {"tabulated": "table.json"}
        path = write_config(tmp_path, dict(MINIMAL, family=table, A0=[1.0]))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "weights[0] must be > 0, got True" in err
        assert "stats[0] must list one number per point" in err
        out = tmp_path / "out"
        # an inline table is checked when parsed, a table file when built
        assert main(["run", str(path), "--output-dir", str(out)]) == (1 if form == "inline" else 2)
        assert not out.exists() or list(out.iterdir()) == []

    def test_record_every_is_an_unknown_key(self, tmp_path, capsys):
        # rows sit at k h, so a thinning factor would only multiply h
        doc = dict(MINIMAL, integrator={"tau_max": 2.0, "record_every": 5})
        path = write_config(tmp_path, doc)
        line = 1 + next(i for i, text in enumerate(path.read_text().splitlines())
                        if '"record_every"' in text)
        message = f"ParseError: unknown key 'integrator.record_every' (line {line})"
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_step_below_the_sample_budget_exits_1(self, tmp_path, capsys):
        # tau_max / h = 2e12 samples: rejected before anything runs
        path = write_config(tmp_path, dict(MINIMAL, integrator={"tau_max": 2.0, "h": 1e-12}))
        assert main(["validate", str(path)]) == 1
        assert "integrator.h must be at least tau_max / 1000000" in capsys.readouterr().err
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        assert "integrator.h" in capsys.readouterr().err

    def test_run_rejects_bad_probe_point_before_integrating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_integrate(*args, **kwargs):
            raise AssertionError("integrate must not run on a rejected config")

        monkeypatch.setattr(entroflow.cli, "integrate", no_integrate)
        doc = dict(MINIMAL, analyses=[{"kind": "geometry_probe", "points": [[0.3, 0.4]]}])
        path = write_config(tmp_path, doc)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("[b] ValidationError: analyses[0].points[0]: A must have shape")
        assert list((tmp_path / "out").iterdir()) == []

    def test_run_diagnostic_goes_to_current_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, A0=[0.5]))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("[b] AtEquilibriumError:") and len(err.splitlines()) == 1

    def test_validate_rejects_typo(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, integrator={"taumax": 1.0}))
        assert main(["validate", str(path)]) == 1
        assert "taumax" in capsys.readouterr().err

    def test_probe_prints_geometry(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["probe", str(path), "--point", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "sigma" in out and "Gamma[0][0]" in out
        sigma_line = next(l for l in out.splitlines() if l.startswith("sigma"))
        assert float(sigma_line.split("=")[1]) == pytest.approx(0.4757130754, abs=1e-9)

    def test_probe_coupled_point(self, capsys):
        assert main(
            ["probe", str(catalog_path("two-vessel-gas-EN")), "--point", "1.2", "0.7"]
        ) == 0
        out = capsys.readouterr().out
        assert "g[1]" in out and "Gamma[1][1]" in out

    def test_probe_negative_exponent_point(self, tmp_path, capsys):
        doc = dict(MINIMAL, family={"closed_form": "gaussian-mean"}, A0=[-2.0])
        path = write_config(tmp_path, doc)
        assert main(["probe", str(path), "--point", "-4e-05"]) == 0
        out = capsys.readouterr().out
        point_line = next(l for l in out.splitlines() if l.startswith("point"))
        assert float(point_line.split("[")[1].rstrip("]")) == -4e-05

    @pytest.mark.parametrize(
        "form, points, exits, message",
        [
            ("inline", [[0], [1]], {"run": 2}, "hashable"),
            ("file", [[0], [1]], {"run": 2}, "hashable"),
            ("inline", 5, {"validate": 1, "run": 1, "probe": 2},
             "family.points: points must list at least 2 labels"),
        ],
        ids=["inline", "file", "non-list-points"],
    )
    def test_list_labels_exit_2_without_traceback(self, tmp_path, form, points, exits, message):
        table = {"points": points, "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]}
        if form == "file":
            (tmp_path / "table.json").write_text(json.dumps(table))
            table = {"tabulated": "table.json"}
        path = write_config(tmp_path, dict(MINIMAL, family=table))
        env = dict(os.environ, PYTHONPATH=str(Path(entroflow.__file__).parents[1]))
        args = {
            "validate": [str(path)],
            "run": [str(path), "--output-dir", str(tmp_path / "out")],
            "probe": [str(path), "--point", "0.3"],
        }
        for command, code in exits.items():
            proc = subprocess.run(
                [sys.executable, "-m", "entroflow.cli", command, *args[command]],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == code, command
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr

    def test_output_dir_that_is_a_file_exits_2_without_traceback(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        env = dict(os.environ, PYTHONPATH=str(Path(entroflow.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "entroflow.cli", "run", str(path),
             "--output-dir", str(blocker)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "FileExistsError" in proc.stderr

    def test_collapsed_run_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the table of tau takes six batched evaluations of both subsystems,
        # 12 batches of Bernoulli states; every batch after those is NaN, so
        # the pair's states at the rows are not finite, and run writes nothing
        states, calls = BernoulliFamily.natural_states, []

        def failing_states(self, lams):
            calls.append(None)
            out = states(self, lams)
            return tuple(x * math.nan for x in out) if len(calls) > 12 else out

        monkeypatch.setattr(BernoulliFamily, "natural_states", failing_states)
        cfg = parse_config(catalog_path("bernoulli-coupled"))
        with pytest.raises(StepCollapseError):
            integrate(build_system(cfg), cfg.A0, tau_max=cfg.tau_max)
        calls.clear()
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", str(catalog_path("bernoulli-coupled")), "--output-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert len(stderr.splitlines()) == 1 and "StepCollapseError" in stderr
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("tau_max, message", [(600.0, "metric"), (1000.0, "arclength rate")])
    def test_gas_overflow_exits_2_without_warning_or_artifacts(self, tmp_path, tau_max, message):
        # with N fixed E = E0 exp(tau / sqrt(1.5)), so E^2 in the covariance
        # overflows near tau = 435, before tau_max; by tau_max = 1000 the
        # table of tau reaches t = exp(-u) = 0, where the rate is not finite
        doc = {
            "name": "gas", "mode": "single", "A0": [1.0],
            "family": {"closed_form": "ideal-gas", "volume": 2.0, "fixed_n": 1.0},
            "integrator": {"tau_max": tau_max, "h": 0.5},
        }
        path = write_config(tmp_path, doc)
        env = dict(os.environ, PYTHONPATH=str(Path(entroflow.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "entroflow.cli", "run", str(path),
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "SingularModelError" in proc.stderr
        assert message in proc.stderr
        assert list((tmp_path / "out").iterdir()) == []

    def test_indefinite_ray_metric_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # one row's covariance, and so its metric, is negative: the batched
        # check names its t
        states = BernoulliFamily.natural_states

        def broken(self, lams):
            A, S, cov = states(self, lams)
            cov = cov.copy()
            cov[len(lams) // 2] = -1.0
            return A, S, cov

        monkeypatch.setattr(BernoulliFamily, "natural_states", broken)
        out = tmp_path / "out"
        assert main(["run", str(catalog_path("bernoulli-relax")), "--output-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert len(stderr.splitlines()) == 1
        assert "SingularModelError: the metric at " in stderr and "not positive definite" in stderr
        assert not out.exists() or list(out.iterdir()) == []

    def test_vanishing_arclength_rate_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # a rate of 0 would stall the ray's Newton step; it is diagnosed as a
        # singular covariance instead
        monkeypatch.setattr(
            BernoulliFamily, "ray",
            lambda self, lam0: Ray(self, lam0, lambda ts: np.zeros(len(ts))),
        )
        out = tmp_path / "out"
        assert main(["run", str(catalog_path("bernoulli-relax")), "--output-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert len(stderr.splitlines()) == 1 and "SingularModelError" in stderr
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("name", catalog_names())
    def test_probe_at_every_shipped_start(self, name, capsys):
        cfg = parse_config(catalog_path(name))
        point = [repr(float(x)) for x in cfg.A0]
        assert main(["probe", str(catalog_path(name)), "--point", *point]) == 0
        out = capsys.readouterr().out
        assert f"Gamma[{len(point) - 1}][{len(point) - 1}]" in out

    def test_probe_solves_its_point_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        solve = entroflow.duality.solve_lambda

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(entroflow.duality, "solve_lambda", counted)
        table = {"points": ["a", "b", "c"], "weights": [1.0, 2.0, 1.0],
                 "stats": [[0.0, 1.0, 3.0]]}
        path = write_config(tmp_path, dict(MINIMAL, family=table, A0=[1.2]))
        assert main(["probe", str(path), "--point", "1.2"]) == 0
        assert "Gamma[0][0]" in capsys.readouterr().out
        assert len(calls) == 1

    def test_probe_infeasible_point_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["probe", str(path), "--point", "1.5"]) == 2
        assert "InfeasibleMeanError" in capsys.readouterr().err

    def test_probe_wrong_length_point_exits_2(self, capsys):
        path = catalog_path("bernoulli-relax")
        assert main(["probe", str(path), "--point", "0.3", "0.4"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ValueError: A must have shape (1,)" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "entroflow" in capsys.readouterr().out

    def test_one_parser_serves_a_sequence_of_commands(self, tmp_path, capsys):
        # main builds its parser on first use; a run, a validate, a probe, a
        # bad flag and --version in one process print and exit as each does
        # in a fresh interpreter (but for the run's wall time)
        path = write_config(tmp_path, MINIMAL)
        env = dict(os.environ, PYTHONPATH=str(Path(entroflow.__file__).parents[1]))
        calls = [
            ["run", str(path), "--output-dir", str(tmp_path / "out")],
            ["validate", str(path)],
            ["probe", str(path), "--point", "0.3"],
            ["run", "--no-such-flag", str(path)],
            ["--version"],
        ]

        def untimed(text):
            return re.sub(r"[0-9.]+ ms\)", "ms)", text)

        cli._parser.cache_clear()
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "entroflow.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (code, out, untimed(err)) == (proc.returncode, proc.stdout, untimed(proc.stderr))
        assert cli._parser.cache_info().misses == 1

    def test_batch_mode(self, tmp_path):
        p1 = write_config(tmp_path, dict(MINIMAL, name="j1"), "one.json")
        p2 = write_config(tmp_path, dict(MINIMAL, name="j2", A0=[0.75]), "two.json")
        out = tmp_path / "out"
        assert main(["run", str(p1), str(p2), "--output-dir", str(out)]) == 0
        assert (out / "j1.csv").exists() and (out / "j2.csv").exists()


class TestCatalog:
    def test_names(self):
        assert catalog_names() == [
            "bernoulli-coupled",
            "bernoulli-relax",
            "gaussian-mean",
            "two-vessel-gas-E-only",
            "two-vessel-gas-EN",
        ]

    def test_all_parse_and_validate(self):
        for name in catalog_names():
            cfg = parse_config(catalog_path(name))
            build_system(cfg)


EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
                     1.7976931348623157e308]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(1, 3))
def test_probe_template_prints_each_value_as_format_17g(data, d):
    # the probe block goes through one %-template; it prints the bytes the
    # per-value format(x, ".17g") did
    def draw(*shape):
        return np.array(data.draw(st.lists(EDGE_FLOATS, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))))).reshape(shape).tolist()

    info = {"point": draw(d), "lambda": draw(d), "sigma": draw(1)[0], "metric": draw(d, d),
            "christoffel": draw(d, d, d)}

    def fmt(row):
        return "[" + ", ".join(format(float(x), ".17g") for x in row) + "]"

    lines = ["point   = " + fmt(info["point"]), "lambda  = " + fmt(info["lambda"]),
             "sigma   = " + format(float(info["sigma"]), ".17g")]
    lines += [f"g[{i}]    = " + fmt(row) for i, row in enumerate(info["metric"])]
    lines += [f"Gamma[{a}][{b}] = " + fmt(row)
              for a, block in enumerate(info["christoffel"]) for b, row in enumerate(block)]
    assert _probe_text(info) == "\n".join(lines)
