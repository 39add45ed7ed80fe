import collections
import dataclasses
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
from entroflow import family as family_module
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
from entroflow.family import BernoulliFamily, GaussianMeanFamily, Ray, TabulatedFamily
from helpers import nan_pair_rows, seeded_table, tabulated_mean


def _closed_form(family, A):
    """lam, the metric -Hess S and its derivative -d^3 S of a Bernoulli,
    Gaussian location or ideal-gas family at the mean A."""
    if isinstance(family, BernoulliFamily):
        a = float(A[0])
        return (np.array([math.log((1.0 - a) / a)]), np.array([[1.0 / (a * (1.0 - a))]]),
                np.array([[[(2.0 * a - 1.0) / (a * (1.0 - a)) ** 2]]]))
    if isinstance(family, GaussianMeanFamily):
        d = len(A)
        return -A, np.eye(d), np.zeros((d, d, d))
    E, V = float(A[0]), family.volume
    if family.fixed_n is not None:
        N = family.fixed_n
        return (np.array([1.5 * N / E]), np.array([[1.5 * N / E**2]]),
                np.array([[[-3.0 * N / E**3]]]))
    N = float(A[1])
    lam = np.array([1.5 * N / E, math.log(V / N) + 1.5 * math.log(E / N)])
    g = np.array([[1.5 * N / E**2, -1.5 / E], [-1.5 / E, 2.5 / N]])
    dg = np.zeros((2, 2, 2))
    dg[0, 0, 0], dg[1, 1, 1] = -3.0 * N / E**3, -2.5 / N**2
    dg[0, 0, 1] = dg[0, 1, 0] = dg[1, 0, 0] = 1.5 / E**2
    return lam, g, dg


def _probe_values(out):
    """The numbers of each probe line keyed by its name: ``g[0]`` and
    ``g[1]`` are joined into ``g``, and each ``Gamma[a][b]`` into ``Gamma``."""
    values = {}
    for line in out.splitlines():
        name, _, numbers = line.partition("=")
        key = name.strip().split("[")[0]
        values.setdefault(key, []).extend(float(x) for x in numbers.strip(" []").split(","))
    return {key: np.array(v) for key, v in values.items()}


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


def changed(change):
    """MINIMAL with ``change`` applied, where a None drops the key."""
    return {key: value for key, value in dict(MINIMAL, **change).items() if value is not None}


#: A heat-and-particle exchange between two ideal gases, a 2-D pair, as a
#: change to MINIMAL.
GAS_PAIR = {
    "mode": "coupled",
    "family": None,
    "families": [{"closed_form": "ideal-gas", "volume": 1.0}] * 2,
    "A0": [1.0, 0.5],
    "A_total": [4.0, 2.0],
}

#: A 2-D Gaussian with an Onsager fit, as a change to MINIMAL, and what
#: validate and run say of an Onsager fit on any 2-D system.
GAUSSIAN_2D_ONSAGER = {"family": {"closed_form": "gaussian-mean", "dim": 2}, "A0": [-2.0, 1.0],
                       "analyses": [{"kind": "onsager"}]}
ONSAGER_2D = ("analyses[0]: an onsager fit needs a system of dimension 1, not 2: "
              "one trajectory probes one force direction")

#: A table on (0, 0), (1, 0) and (0, 1): it attains the open triangle, so
#: (0.9, 0.9), inside both statistics' ranges, has no state.
HULL_TABLE = {"points": ["a", "b", "c"], "weights": [1.0, 1.0, 1.0],
              "stats": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.name == "b"
        assert cfg.mode == "single"
        assert cfg.h == 1e-3
        assert cfg.tau_max == 2.0
        assert cfg.outputs.trajectory_csv == "b.csv"
        assert cfg.outputs.summary_json == "b-summary.json"
        assert isinstance(build_system(cfg), BernoulliFamily)

    def test_unknown_integrator_key_is_parse_error(self, tmp_path):
        doc = dict(MINIMAL, integrator={"taumax": 2.0})
        with pytest.raises(ParseError, match="taumax"):
            parse_config(write_config(tmp_path, doc))

    def test_the_dropped_sigma_eq_key_fails_validate(self, tmp_path, capsys):
        # equilibrium is where the ray ends, with no threshold to set
        doc = dict(MINIMAL, integrator={"tau_max": 2.0, "sigma_eq": 1e-8})
        assert main(["validate", str(write_config(tmp_path, doc))]) == 1
        assert "ParseError: unknown key 'integrator.sigma_eq'" in capsys.readouterr().err

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

    def test_a_path_is_resolved_only_for_a_table_file(self, tmp_path, monkeypatch):
        # resolving walks every component of the path; only a table file,
        # found relative to the config's real directory, needs it, once
        resolved = []
        resolve = Path.resolve

        def counting_resolve(self, *args, **kwargs):
            resolved.append(self)
            return resolve(self, *args, **kwargs)

        (tmp_path / "fam.json").write_text(
            json.dumps({"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]}))
        inline = {"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]}
        pair = {"name": "pair", "mode": "coupled", "A0": [0.25], "A_total": [1.0],
                "integrator": {"tau_max": 2.0}}
        monkeypatch.setattr(Path, "resolve", counting_resolve)
        for doc, count in [
            (MINIMAL, 0),
            (dict(MINIMAL, family=inline), 0),
            (dict(pair, families=[{"closed_form": "bernoulli"}, inline]), 0),
            (dict(MINIMAL, family={"tabulated": "fam.json"}), 1),
            (dict(pair, families=[{"tabulated": "fam.json"}, {"tabulated": "fam.json"}]), 1),
        ]:
            resolved.clear()
            cfg = parse_config(write_config(tmp_path, doc))
            assert len(resolved) == count, doc
            build_system(cfg)

    @pytest.mark.parametrize("link", ["directory", "config"])
    def test_table_file_is_found_from_the_real_directory(self, tmp_path, link):
        # the table lies beside the config's real directory; the config is
        # reached through a symlinked directory, or is itself a symlink
        real = tmp_path / "real"
        (real / "configs").mkdir(parents=True)
        (real / "tables").mkdir()
        (real / "tables" / "fam.json").write_text(
            json.dumps({"points": [0, 1], "weights": [1.0, 1.0], "stats": [[0.0, 1.0]]}))
        path = write_config(real / "configs",
                            dict(MINIMAL, family={"tabulated": "../tables/fam.json"}))
        view = tmp_path / "view"
        view.mkdir()
        if link == "directory":
            (view / "configs").symlink_to(real / "configs", target_is_directory=True)
            path = view / "configs" / path.name
        else:
            (view / path.name).symlink_to(path)
            path = view / path.name
        assert isinstance(build_system(parse_config(path)), TabulatedFamily)

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
        # halves down to 2e-8 before the maximum, so the entropy check
        # still finds interior rows
        doc = dict(MINIMAL, **change, analyses=[{"kind": "entropy_production_check"}])
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=io.StringIO()) == 0
        rows = (tmp_path / "out" / "b.csv").read_text().splitlines()[1:]
        assert len(rows) >= 15
        summary = json.loads((tmp_path / "out" / "b-summary.json").read_text())
        assert summary["terminal_status"] == "equilibrium-reached"
        assert math.isfinite(summary["analyses"]["entropy_production_check"]["max_residual"])

    def test_a_validated_two_row_run_is_checked(self, tmp_path, capsys):
        # tau_eq is about 1.5e-8: the run is its start and the maximum, and
        # the entropy check reads the one row past the start
        doc = dict(MINIMAL, A0=[0.5000000075], analyses=[{"kind": "entropy_production_check"}])
        path, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        assert len((out / "b.csv").read_text().splitlines()) == 3  # the header and two rows
        check = json.loads((out / "b-summary.json").read_text())["analyses"]
        assert check["entropy_production_check"]["max_residual"] <= 1e-13

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

    def test_onsager_defaults_are_the_analysis_defaults(self, tmp_path):
        # a key left out takes the default of empirical_report itself
        doc = {
            "name": "eonly",
            "mode": "coupled",
            "families": [{"closed_form": "ideal-gas", "volume": 1.0, "fixed_n": 1.0}] * 2,
            "A0": [1.0],
            "A_total": [4.0],
            "integrator": {"tau_max": 6.0},
        }
        artifacts = []
        for sub, spec in [("omitted", {}), ("spelled", {"clock_rate": 1.0, "window": 5})]:
            path = write_config(tmp_path, dict(doc, analyses=[dict(kind="onsager", **spec)]))
            out = tmp_path / sub
            assert main(["run", str(path), "--output-dir", str(out)]) == 0
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(artifacts[0]) == ["eonly-onsager.json", "eonly-summary.json", "eonly.csv"]
        assert artifacts[0] == artifacts[1]

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
        target = tabulated_mean(fam_doc["weights"], fam_doc["stats"], [0.0])[0]
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

    def test_geometry_probe_summary_holds_plain_lists(self, tmp_path, monkeypatch):
        # the probe hands arrays on; the summary turns them into lists of
        # floats where it is built
        summaries, dumps = [], json.dumps

        def keeping_dumps(obj, **kwargs):
            summaries.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", keeping_dumps)
        doc = dict(MINIMAL, name="probe",
                   family={"points": [0, 1, 2], "weights": [1.0, 2.0, 1.0],
                           "stats": [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0]]},
                   A0=[1.2, 1.1], analyses=[{"kind": "geometry_probe", "points": [[1.2, 1.1]]}])
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_scenario(cfg, output_dir=tmp_path / "out", log=io.StringIO()) == 0
        (probe,) = summaries[-1]["analyses"]["geometry_probe"]
        assert type(probe["sigma"]) is float
        for key, depth in [("point", 1), ("lambda", 1), ("metric", 2), ("christoffel", 3)]:
            values = [probe[key]]
            for _ in range(depth):
                assert all(type(v) is list for v in values), key
                values = [x for v in values for x in v]
            assert values and all(type(x) is float for x in values), key

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
            ({"family": HULL_TABLE, "A0": [0.2, 0.3],
              "analyses": [{"kind": "geometry_probe", "points": [[0.9, 0.9]]}]},
             "analyses[0].points[0]: covariance collapsed", 2),
            # rejected when parsed, so run exits 1 like validate
            ({"outputs": {"trajectory_csv": "x.out", "summary_json": "./x.out"}},
             "outputs.summary_json and outputs.trajectory_csv name the same file", 1),
            # outputs are keyed by kind, so a second analysis of a kind would
            # silently replace the first
            ({"analyses": [{"kind": "geometry_probe", "points": [[0.3]]},
                           {"kind": "geometry_probe", "points": [[0.4]]}]},
             "analyses[1].kind geometry_probe repeats analyses[0].kind", 1),
            ({"analyses": [{"kind": "onsager"}, {"kind": "entropy_production_check"},
                           {"kind": "onsager", "window": 7}]},
             "analyses[2].kind onsager repeats analyses[0].kind", 1),
            # each kind takes only the keys it reads
            ({"analyses": [{"kind": "entropy_production_check", "window": 7,
                            "points": [[0.3]]}]},
             "ParseError: unknown key 'analyses[0].window' (line", 1),
            ({"analyses": [{"kind": "entropy_production_check", "points": [[0.3]]}]},
             "ParseError: unknown key 'analyses[0].points' (line", 1),
            ({"analyses": [{"kind": "onsager", "points": [[0.9]]}]},
             "ParseError: unknown key 'analyses[0].points' (line", 1),
            ({"analyses": [{"kind": "geometry_probe", "points": [[0.3]], "clock_rate": 2.0}]},
             "ParseError: unknown key 'analyses[0].clock_rate' (line", 1),
            # one trajectory probes one force direction, so the Onsager fit
            # of a system of dimension 2 or more is rank one, whatever its
            # window: a family or a pair
            (dict(GAS_PAIR, analyses=[{"kind": "onsager", "window": 3}]), ONSAGER_2D, 2),
            ({"family": {"closed_form": "gaussian-mean", "dim": 4}, "A0": [1.0, 0.5, 0.2, 0.1],
              "analyses": [{"kind": "onsager"}]},
             "analyses[0]: an onsager fit needs a system of dimension 1, not 4", 2),
            (GAUSSIAN_2D_ONSAGER, ONSAGER_2D, 2),
            (dict(GAS_PAIR, analyses=[{"kind": "onsager"}]), ONSAGER_2D, 2),
            # a feasible mean whose closed forms leave the float range has no
            # state: its Python-float powers underflow into a division by
            # zero, or overflow
            ({"A0": [1e-200]}, "A0: the closed forms at A = [1e-200] leave the float range", 2),
            ({"mode": "coupled", "family": None, "families": [{"closed_form": "bernoulli"}] * 2,
              "A0": [1e-200], "A_total": [1.0]},
             "A0: the closed forms at A = [1e-200] leave the float range", 2),
            ({"family": {"closed_form": "ideal-gas", "volume": 1.0, "fixed_n": 1.0},
              "A0": [1e-300]},
             "A0: the closed forms at A = [1e-300] leave the float range", 2),
            ({"family": {"closed_form": "ideal-gas", "volume": 1.0}, "A0": [1.0, 1e-300]},
             "A0: the closed forms at A = [1.0, 1e-300] leave the float range", 2),
            ({"family": {"closed_form": "ideal-gas", "volume": 1e300, "fixed_n": 1e300},
              "A0": [1e300]},
             "A0: the closed forms at A = [1e+300] leave the float range", 2),
        ],
        ids=["list-labels", "A0-length", "A0-infeasible", "probe-point-length",
             "probe-point-outside-the-hull", "same-output-path", "repeated-probe",
             "repeated-onsager", "entropy-check-window", "entropy-check-points",
             "onsager-points", "probe-clock-rate", "pair-window-3", "4d-default-window",
             "2d-gaussian-onsager", "pair-onsager", "bernoulli-underflow",
             "bernoulli-pair-underflow", "gas-energy-underflow", "gas-number-underflow",
             "gas-overflow"],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, change, message, run_exit):
        path = write_config(tmp_path, changed(change))
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
        assert "weights[0] must be a finite number > 0, got True" in err
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

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"family": {"closed_form": "bernoulli", "dim": 2}}, "family.dim"),
            ({"family": {"closed_form": "gaussian-mean", "volume": 1.0}}, "family.volume"),
            ({"family": {"closed_form": "ideal-gas", "volume": 1.0, "dim": 1}}, "family.dim"),
            ({"family": {"tabulated": "table.json", "weights": [1.0, 1.0]}}, "family.weights"),
            ({"family": dict(HULL_TABLE, dim=2)}, "family.dim"),
            ({"families": [{"closed_form": "bernoulli"}] * 2}, "families"),
            ({"A_total": [1.0]}, "A_total"),
            (dict(GAS_PAIR, family={"closed_form": "bernoulli"}), "family"),
        ],
        ids=["bernoulli-dim", "gaussian-volume", "gas-dim", "table-file-weights",
             "inline-table-dim", "single-families", "single-A_total", "coupled-family"],
    )
    def test_a_key_of_another_kind_mode_or_form_is_unknown(self, tmp_path, capsys, change, key):
        # each family kind, mode and table form declares its own keys
        path = write_config(tmp_path, changed(change))
        needle = f'"{key.rpartition(".")[2]}"'
        line = 1 + next(i for i, text in enumerate(path.read_text().splitlines())
                        if needle in text)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: ParseError: unknown key {key!r} (line {line})\n"

    @pytest.mark.parametrize("name, at", [("b", " (line 6)"), ("dim", "")])
    def test_a_key_names_its_line_only_when_written_once(self, tmp_path, capsys, name, at):
        # a scenario named "dim" writes "dim" on line 2 as well, so the
        # unknown key on line 6 names no line rather than the wrong one
        path = write_config(tmp_path, changed(
            {"name": name, "family": {"closed_form": "bernoulli", "dim": 2}}))
        assert path.read_text().splitlines()[5] == '  "dim": 2'
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: ParseError: unknown key 'family.dim'{at}\n"

    def test_every_bad_value_of_an_analysis_is_named(self, tmp_path, capsys):
        path = write_config(tmp_path, changed(
            {"analyses": [{"kind": "onsager", "window": 2, "center": 1.5}]}))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "analyses[0].window must be an integer >= 3" in err
        assert "analyses[0].center must be an integer sample index" in err

    def test_step_below_the_sample_budget_exits_1(self, tmp_path, capsys):
        # tau_max / h = 2e12 samples: rejected before anything runs
        path = write_config(tmp_path, dict(MINIMAL, integrator={"tau_max": 2.0, "h": 1e-12}))
        assert main(["validate", str(path)]) == 1
        assert "integrator.h must be at least tau_max / 1000000" in capsys.readouterr().err
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        assert "integrator.h" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"analyses": [{"kind": "geometry_probe", "points": [[0.3, 0.4]]}]},
             "analyses[0].points[0]: A must have shape"),
            (dict(GAS_PAIR, analyses=[{"kind": "onsager", "window": 3}]), ONSAGER_2D),
            (GAUSSIAN_2D_ONSAGER, ONSAGER_2D),
            (dict(GAS_PAIR, analyses=[{"kind": "onsager"}]), ONSAGER_2D),
        ],
        ids=["probe-point-length", "pair-window-3", "2d-gaussian-onsager", "pair-onsager"],
    )
    def test_run_rejects_bad_analysis_before_integrating(
        self, tmp_path, capsys, monkeypatch, change, message
    ):
        def no_integrate(*args, **kwargs):
            raise AssertionError("integrate must not run on a rejected config")

        monkeypatch.setattr(entroflow.cli, "integrate", no_integrate)
        path = write_config(tmp_path, changed(change))
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"[b] ValidationError: {message}")
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
            ("inline", 5, {"validate": 1, "run": 1, "probe": 1},
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

    def test_probe_where_the_forms_overflow_exits_2_without_traceback(self, tmp_path):
        # Bernoulli's lam is finite at A = 1e-200, but the float square
        # (A (1 - A))**2 in its dg underflows to 0 and divides
        path = write_config(tmp_path, MINIMAL)
        env = dict(os.environ, PYTHONPATH=str(Path(entroflow.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "entroflow.cli", "probe", str(path), "--point", "1e-200"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "SingularModelError: the closed forms at A = [1e-200]" in proc.stderr

    def test_collapsed_run_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the table of tau is built from the true states of both subsystems;
        # every batch after it is NaN, so the pair's states at the rows are
        # not finite, and run writes nothing
        table = nan_pair_rows(monkeypatch)
        cfg = parse_config(catalog_path("bernoulli-coupled"))
        with pytest.raises(StepCollapseError):
            integrate(build_system(cfg), cfg.A0, tau_max=cfg.tau_max)
        assert table["batches"] >= 2  # one evaluation of both subsystems at least
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", str(catalog_path("bernoulli-coupled")), "--output-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert len(stderr.splitlines()) == 1 and "StepCollapseError" in stderr
        assert list(out.iterdir()) == []

    def test_nonfinite_summary_value_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # JSON has no NaN: a summary that would hold one is not written, and
        # neither is the trajectory CSV written before it
        check = cli.entropy_production_check
        monkeypatch.setattr(
            cli, "entropy_production_check",
            lambda traj: dataclasses.replace(check(traj), max_residual=math.nan),
        )
        doc = dict(MINIMAL, analyses=[{"kind": "entropy_production_check"}])
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, doc)), "--output-dir", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1 and "ValueError" in stderr, stderr
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

    def test_mean_inside_the_ranges_but_outside_the_hull_is_rejected_by_validate(
        self, tmp_path
    ):
        # (0.9, 0.9) lies inside both statistics' ranges but outside the open
        # triangle the table attains; the cold Newton solve that makes its
        # point diagnoses it, in validate as in run, so run names A0 as
        # validate does and starts nothing
        doc = {"name": "hull", "mode": "single", "A0": [0.9, 0.9], "family": HULL_TABLE,
               "integrator": {"tau_max": 2.0}}
        path = write_config(tmp_path, doc)
        env = dict(os.environ, PYTHONPATH=str(Path(entroflow.__file__).parents[1]))
        out = tmp_path / "out"
        runs = [(["validate", str(path)], 1, f"{path}: ValidationError: A0: "),
                (["run", str(path), "--output-dir", str(out)], 2, "[hull] ValidationError: A0: "),
                (["probe", str(path), "--point", "0.9", "0.9"], 2,
                 f"{path}: InfeasibleMeanError: ")]
        for argv, code, start in runs:
            proc = subprocess.run([sys.executable, "-m", "entroflow.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == code, argv
            assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(start), argv
            assert "outside the attainable set" in proc.stderr and proc.stdout == "", argv
        assert not out.exists() or list(out.iterdir()) == []

    def test_a_mean_just_past_the_hull_is_rejected_by_validate(self, tmp_path, capsys):
        # the Newton solve diverges from (0.51, 0.5) rather than stepping
        # out of the hull at once, as from (0.9, 0.9)
        doc = {"name": "edge", "mode": "single", "A0": [0.51, 0.5], "family": HULL_TABLE,
               "integrator": {"tau_max": 2.0}}
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{path}: ValidationError: A0: solver diverged: ")

    @pytest.mark.parametrize("name", catalog_names())
    def test_probe_at_every_shipped_start(self, name, capsys):
        # lam, g and dg written out here; a pair's are F = lam1 - lam2,
        # g1(A) + g2(A_T - A) and dg1 - dg2, and Gamma = g^-1 dg / 2
        cfg = parse_config(catalog_path(name))
        point = [repr(float(x)) for x in cfg.A0]
        assert main(["probe", str(catalog_path(name)), "--point", *point]) == 0
        printed = _probe_values(capsys.readouterr().out)
        system, A = build_system(cfg), np.asarray(cfg.A0, dtype=float)
        if isinstance(system, CompositeSystem):
            (lam1, g1, dg1), (lam2, g2, dg2) = (_closed_form(system.sys1, A),
                                                _closed_form(system.sys2, system.A_total - A))
            lam, g, dg = lam1 - lam2, g1 + g2, dg1 - dg2
        else:
            lam, g, dg = _closed_form(system, A)
        g_inv = np.linalg.inv(g)
        expected = {"point": A, "lambda": lam, "sigma": np.sqrt(lam @ g_inv @ lam), "g": g,
                    "Gamma": 0.5 * np.einsum("ad,dbc->abc", g_inv, dg)}
        for key, want in expected.items():
            got = printed[key].reshape(np.shape(want))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), key

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


def count_state_work(monkeypatch):
    """Count, per family object, the outermost ``check_feasible`` and
    ``legendre`` calls (not the base-class calls inside them), and count the
    calls of the table's Newton solve ``duality.solve_lambda``."""
    counts, depth = collections.Counter(), collections.Counter()
    for cls in vars(family_module).values():
        if not (isinstance(cls, type) and issubclass(cls, family_module.ExponentialFamily)):
            continue
        for name in ("check_feasible", "legendre"):
            if name not in vars(cls):
                continue

            def wrapper(self, A, _name=name, _original=vars(cls)[name]):
                if not depth[_name]:
                    counts[id(self), _name] += 1
                depth[_name] += 1
                try:
                    return _original(self, A)
                finally:
                    depth[_name] -= 1

            monkeypatch.setattr(cls, name, wrapper)
    solve = entroflow.duality.solve_lambda

    def counted_solve(*args, **kwargs):
        counts["solve_lambda"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(entroflow.duality, "solve_lambda", counted_solve)
    return counts


class TestOneCheckPerState:
    """Each state is made once, by its point: one check and one Legendre
    map per family, and for a table one Newton solve."""

    def table_config(self, tmp_path):
        fam, A = seeded_table(7, 50, n_dim=3, norm=0.6)
        probe = tabulated_mean(fam.weights, fam.stats, [0.1, -0.2, 0.3])
        table = {"points": [f"x{i}" for i in range(50)],
                 "weights": fam.weights.tolist(), "stats": fam.stats.tolist()}
        doc = {"name": "t", "mode": "single", "family": table, "A0": A.tolist(),
               "integrator": {"tau_max": 1.0},
               "analyses": [{"kind": "geometry_probe", "points": [probe.tolist()]}]}
        return write_config(tmp_path, doc), A

    @pytest.mark.parametrize("command", ["run", "validate", "probe"])
    def test_a_table(self, tmp_path, monkeypatch, capsys, command):
        path, A = self.table_config(tmp_path)
        counts = count_state_work(monkeypatch)
        argv = {"run": ["run", str(path), "--output-dir", str(tmp_path / "out")],
                "validate": ["validate", str(path)],
                "probe": ["probe", str(path), "--point",
                          *(np.format_float_positional(x, unique=True, trim="0") for x in A)]}
        assert main(argv[command]) == 0
        states = 1 if command == "probe" else 2  # A0 and the geometry_probe point
        assert counts.pop("solve_lambda") == states
        assert sorted(counts.values()) == [states, states]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("name, families", [("bernoulli-relax", 1),
                                                ("bernoulli-coupled", 2)])
    def test_a_shipped_scenario(self, tmp_path, monkeypatch, capsys, command, name, families):
        counts = count_state_work(monkeypatch)
        argv = [command, str(catalog_path(name))]
        assert main(argv + (["--output-dir", str(tmp_path)] if command == "run" else [])) == 0
        assert counts.pop("solve_lambda", 0) == 0
        assert sorted(counts.values()) == [1] * (2 * families)


#: A table's key, or None where the family rejects it when it is built,
#: and the words that name its fault, for each table the intake judges.
INTAKE_CASES = {
    "bool-weight": ({"weights": [True, 1.0, 2.0]},
                    "weights", "weights[0] must be a finite number > 0, got True"),
    "bool-statistic": ({"stats": [[0.0, True, 2.0]]},
                       "stats", "stats[0] must list one number per point"),
    "nan-weight": ({"weights": [1.0, math.nan, 2.0]},
                   "weights", "weights[1] must be a finite number > 0, got nan"),
    "inf-weight": ({"weights": [1.0, 1.0, math.inf]},
                   None, "all weights must be finite and > 0"),
    "nan-statistic": ({"stats": [[0.0, math.nan, 2.0]]},
                      None, "statistic values must be finite and at most 1e+100 in magnitude"),
    "int-weight-past-the-double-range": (
        {"weights": [1.0, 10**400, 2.0]},
        "weights", f"weights[1] must be a finite number > 0, got {10**400!r}"),
    "labels-equal-as-text": ({"points": [1, "1", "c"]}, "points", "point labels must be unique"),
    "list-label": ({"points": [["a"], "b", "c"]},
                   None, "point labels must be hashable (strings or numbers, not lists)"),
}


class TestTableIntake:
    """Each list of a table is scanned for its types and converted once;
    what is judged, its words, its stage and its exit code do not depend on
    how."""

    TABLE = {"points": ["a", "b", "c"], "weights": [1.0, 1.0, 2.0], "stats": [[0.0, 1.0, 2.0]]}

    def config(self, tmp_path, form, change):
        table = dict(self.TABLE, **change)
        if form == "file":
            (tmp_path / "table.json").write_text(json.dumps(table))
            table = {"tabulated": "table.json"}
        return write_config(tmp_path, dict(MINIMAL, family=table, A0=[1.0]))

    @pytest.mark.parametrize("form", ["inline", "file"])
    @pytest.mark.parametrize("case", INTAKE_CASES.values(), ids=INTAKE_CASES.keys())
    def test_a_fault_is_named_at_its_stage(self, tmp_path, capsys, form, case):
        # an inline table is judged when parsed, and run exits 1 like
        # validate; the family, and a table file, when built, and run exits 2
        change, key, words = case
        path = self.config(tmp_path, form, change)
        if form == "inline":
            line = f"ValidationError: family.{key}: {words}" if key else f"ValueError: {words}"
        else:
            line = f"ValidationError: line 1: {words}" if key else f"ValidationError: {words}"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: {line}\n"
        out = tmp_path / "out"
        at_parse = form == "inline" and key is not None
        assert main(["run", str(path), "--output-dir", str(out)]) == (1 if at_parse else 2)
        err = capsys.readouterr().err
        assert err == (f"{path}: {line}\n" if at_parse else f"[b] {line}\n")
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("form", ["inline", "file"])
    def test_unique_labels_that_are_not_strings_pass(self, tmp_path, form):
        path = self.config(tmp_path, form, {"points": [1, 2.5, None]})
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0

    def test_a_family_read_from_a_document_is_the_family_of_its_lists(self, tmp_path):
        # ints among the floats, as JSON gives them; every array the family
        # keeps is the same bit for bit, read inline, from a file or made
        # from the lists
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 2.0, 300).tolist()
        stats = rng.normal(size=(3, 300)).tolist()
        weights[::7] = [1 + i % 3 for i in range(len(weights[::7]))]
        stats[1][::5] = [i % 5 - 2 for i in range(len(stats[1][::5]))]
        table = {"points": [f"x{i}" for i in range(300)], "weights": weights, "stats": stats}
        (tmp_path / "table.json").write_text(json.dumps(table))
        path = write_config(tmp_path, dict(MINIMAL, family=table, A0=[0.0, 0.0, 0.0]))
        from_lists = TabulatedFamily(weights, stats)
        for family in (build_system(parse_config(path)),
                       entroflow.tabulated_from_json(tmp_path / "table.json")):
            assert family._log_weights.tobytes() == from_lists._log_weights.tobytes()
            assert family._shifted.tobytes() == from_lists._shifted.tobytes()
            assert family._ranges == from_lists._ranges


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
