"""Scenario runner: declarative JSON configs in, CSV/JSON artifacts out.

A scenario names a family (or a coupled pair plus conserved totals), an
initial state and integrator options, and optionally a list of analyses.
``run`` integrates and writes the trajectory CSV, a summary JSON and any
analysis outputs; ``validate`` checks a config against the system it builds,
without integrating; ``probe`` prints local geometry at a point.  Identical
config and build produce byte-identical artifacts: there is no time-seeded
or otherwise nondeterministic behaviour in the numerics, and wall-clock
timing goes to the log stream, never into files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .coupled import CompositeSystem
from .errors import EntroflowError, ParseError, ValidationError
from .family import (
    BernoulliFamily,
    DiscreteSpace,
    ExponentialFamily,
    GaussianMeanFamily,
    IdealGasFamily,
    TabulatedFamily,
    _key_line,
    _table_violations,
    tabulated_from_json,
)
from .flow import integrate, entropy_production_check, write_trajectory_csv
from .geometry import christoffel, as_manifold
from .onsager import empirical_report, write_onsager_json

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "run_scenario",
    "main",
    "catalog_dir",
    "catalog_names",
]


# ---------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class AnalysisSpec:
    kind: str  # onsager | entropy_production_check | geometry_probe
    clock_rate: float = 1.0
    window: int = 5
    center: int | None = None
    points: tuple = ()


@dataclass(frozen=True)
class OutputPaths:
    trajectory_csv: str
    summary_json: str
    onsager_json: str


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    mode: str  # single | coupled
    family_specs: tuple
    A0: np.ndarray
    A_total: np.ndarray | None
    h: float
    tau_max: float
    sigma_eq: float
    outputs: OutputPaths
    analyses: tuple[AnalysisSpec, ...] = field(default_factory=tuple)
    base_dir: Path = Path(".")


_TOP_KEYS = {
    "name", "mode", "family", "families", "A0", "A_total",
    "integrator", "outputs", "analyses",
}
_INTEGRATOR_KEYS = {"h", "tau_max", "sigma_eq"}
_OUTPUT_KEYS = {"trajectory_csv", "summary_json", "onsager_json"}
_FAMILY_KEYS = {
    "closed_form", "dim", "volume", "fixed_n",
    "tabulated", "points", "weights", "stats",
}
_ANALYSIS_KEYS = {"kind", "clock_rate", "window", "center", "points"}
#: Largest tau_max / h a scenario may ask for: a run records at most that
#: many grid rows, and near an entropy maximum the landing rows.
MAX_SAMPLES = 10**6


def _reject_unknown(obj: dict, allowed: set, path: str, text: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            line = _key_line(text, key)
            at = f" (line {line})" if line is not None else ""
            raise ParseError(f"unknown key {where!r}{at}")


def _number_list(value, path: str, violations: list) -> np.ndarray | None:
    if (
        isinstance(value, list)
        and value
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        arr = np.asarray(value, dtype=float)
        if np.all(np.isfinite(arr)):
            return arr
    violations.append(f"{path} must be a non-empty list of finite numbers")
    return None


def _parse_family_spec(obj, path, text, violations):
    if not isinstance(obj, dict):
        violations.append(f"{path} must be an object")
        return None
    _reject_unknown(obj, _FAMILY_KEYS, path, text)
    if "closed_form" in obj:
        kind = obj["closed_form"]
        if kind == "bernoulli":
            extra = set(obj) - {"closed_form"}
            if extra:
                violations.append(f"{path}: bernoulli takes no extra keys, got {sorted(extra)}")
            return ("bernoulli",)
        if kind == "gaussian-mean":
            extra = set(obj) - {"closed_form", "dim"}
            if extra:
                violations.append(f"{path}: gaussian-mean accepts only 'dim', got {sorted(extra)}")
            dim = obj.get("dim", 1)
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                violations.append(f"{path}.dim must be an integer >= 1")
                return None
            return ("gaussian-mean", dim)
        if kind == "ideal-gas":
            extra = set(obj) - {"closed_form", "volume", "fixed_n"}
            if extra:
                violations.append(
                    f"{path}: ideal-gas accepts 'volume' and 'fixed_n', "
                    f"got {sorted(extra)}"
                )
            volume = obj.get("volume")
            if not isinstance(volume, (int, float)) or isinstance(volume, bool) or not volume > 0:
                violations.append(f"{path}.volume must be a number > 0")
                return None
            fixed_n = obj.get("fixed_n")
            if fixed_n is not None and (
                not isinstance(fixed_n, (int, float))
                or isinstance(fixed_n, bool)
                or not fixed_n > 0
            ):
                violations.append(f"{path}.fixed_n must be a number > 0")
                return None
            return ("ideal-gas", float(volume), None if fixed_n is None else float(fixed_n))
        violations.append(f"{path}.closed_form must be one of bernoulli, gaussian-mean, ideal-gas")
        return None
    if "tabulated" in obj:
        if set(obj) != {"tabulated"} or not isinstance(obj["tabulated"], str):
            violations.append(f"{path}.tabulated must be a lone path string")
            return None
        return ("tabulated-path", obj["tabulated"])
    if {"points", "weights", "stats"} <= set(obj):
        if set(obj) != {"points", "weights", "stats"}:
            violations.append(f"{path}: inline tabulated spec takes exactly points/weights/stats")
            return None
        table = (obj["points"], obj["weights"], obj["stats"])
        found = _table_violations(*table)
        violations += [f"{path}.{key}: {message}" for key, message in found]
        return None if found else ("tabulated-inline", *table)
    violations.append(
        f"{path} must declare 'closed_form', 'tabulated', or inline points/weights/stats"
    )
    return None


def _parse_analyses(raw, text, violations):
    if not isinstance(raw, list):
        violations.append("analyses must be a list")
        return ()
    specs = []
    for i, item in enumerate(raw):
        path = f"analyses[{i}]"
        if not isinstance(item, dict):
            violations.append(f"{path} must be an object")
            continue
        _reject_unknown(item, _ANALYSIS_KEYS, path, text)
        kind = item.get("kind")
        if kind not in ("onsager", "entropy_production_check", "geometry_probe"):
            violations.append(
                f"{path}.kind must be onsager, entropy_production_check or geometry_probe"
            )
            continue
        clock_rate = item.get("clock_rate", 1.0)
        window = item.get("window", 5)
        center = item.get("center")
        points = item.get("points", [])
        if (
            not isinstance(clock_rate, (int, float))
            or isinstance(clock_rate, bool)
            or not clock_rate > 0
        ):
            violations.append(f"{path}.clock_rate must be a number > 0")
            continue
        if not isinstance(window, int) or isinstance(window, bool) or window < 3:
            violations.append(f"{path}.window must be an integer >= 3")
            continue
        if center is not None and (not isinstance(center, int) or isinstance(center, bool)):
            violations.append(f"{path}.center must be an integer sample index")
            continue
        if not isinstance(points, list):
            violations.append(f"{path}.points must be a list of points")
            continue
        pts = []
        ok = True
        for j, p in enumerate(points):
            arr = _number_list(p, f"{path}.points[{j}]", violations)
            if arr is None:
                ok = False
                break
            pts.append(tuple(arr))
        if not ok:
            continue
        specs.append(
            AnalysisSpec(
                kind=kind,
                clock_rate=float(clock_rate),
                window=window,
                center=center,
                points=tuple(pts),
            )
        )
    return tuple(specs)


def parse_config(path) -> ScenarioConfig:
    """Strictly parse a scenario document.

    Unknown keys anywhere raise ParseError naming the key path (no silent
    typo tolerance); semantic problems are collected and raised together as
    a ValidationError listing every violated invariant.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "", text)
    if isinstance(doc.get("integrator"), dict):
        _reject_unknown(doc["integrator"], _INTEGRATOR_KEYS, "integrator", text)
    if isinstance(doc.get("outputs"), dict):
        _reject_unknown(doc["outputs"], _OUTPUT_KEYS, "outputs", text)

    violations: list[str] = []

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        violations.append("name must be a non-empty string")
        name = "unnamed"

    mode = doc.get("mode")
    if mode not in ("single", "coupled"):
        violations.append("mode must be 'single' or 'coupled'")
        mode = "single"

    family_specs = []
    if mode == "single":
        if "families" in doc:
            violations.append("mode 'single' uses 'family', not 'families'")
        if "A_total" in doc:
            violations.append("A_total is only valid in coupled mode")
        if "family" not in doc:
            violations.append("mode 'single' requires 'family'")
        else:
            spec = _parse_family_spec(doc["family"], "family", text, violations)
            if spec is not None:
                family_specs.append(spec)
    else:
        if "family" in doc:
            violations.append("mode 'coupled' uses 'families', not 'family'")
        fams = doc.get("families")
        if not isinstance(fams, list) or len(fams) != 2:
            violations.append("mode 'coupled' requires 'families' with exactly 2 entries")
        else:
            for i, f in enumerate(fams):
                spec = _parse_family_spec(f, f"families[{i}]", text, violations)
                if spec is not None:
                    family_specs.append(spec)

    A0 = _number_list(doc.get("A0"), "A0", violations) if "A0" in doc else None
    if A0 is None and "A0" not in doc:
        violations.append("A0 is required")

    A_total = None
    if mode == "coupled":
        if "A_total" not in doc:
            violations.append("mode 'coupled' requires 'A_total'")
        else:
            A_total = _number_list(doc["A_total"], "A_total", violations)
        if A0 is not None and A_total is not None and A0.shape != A_total.shape:
            violations.append("A0 and A_total must have the same length")

    integ = doc.get("integrator", {})
    if not isinstance(integ, dict):
        violations.append("integrator must be an object")
        integ = {}
    if "tau_max" not in integ:
        violations.append("integrator.tau_max is required")

    def positive(key, default):
        value = integ.get(key, default)
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not np.isfinite(value)
            or not value > 0
        ):
            violations.append(f"integrator.{key} must be a finite number > 0")
            return default
        return float(value)

    found = len(violations)
    h = positive("h", 1e-3)
    tau_max = positive("tau_max", 1.0)
    if len(violations) == found and tau_max / h > MAX_SAMPLES:
        violations.append(
            f"integrator.h must be at least tau_max / {MAX_SAMPLES} = "
            f"{tau_max / MAX_SAMPLES:.3g}, got {h:.3g}"
        )
    sigma_eq = positive("sigma_eq", 1e-8)

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        violations.append("outputs must be an object")
        outputs = {}
    for key in outputs:
        if not isinstance(outputs[key], str) or not outputs[key]:
            violations.append(f"outputs.{key} must be a non-empty path string")
    paths = OutputPaths(
        trajectory_csv=outputs.get("trajectory_csv", f"{name}.csv"),
        summary_json=outputs.get("summary_json", f"{name}-summary.json"),
        onsager_json=outputs.get("onsager_json", f"{name}-onsager.json"),
    )
    # a later artifact would silently replace an earlier one of the same name
    named: dict = {}
    for key in sorted(_OUTPUT_KEYS):
        value = getattr(paths, key)
        if isinstance(value, str) and value:
            named.setdefault(os.path.normpath(value), []).append(f"outputs.{key}")
    violations += [
        f"{' and '.join(keys)} name the same file" for keys in named.values() if len(keys) > 1
    ]

    analyses = _parse_analyses(doc.get("analyses", []), text, violations)

    if violations:
        raise ValidationError(violations)

    return ScenarioConfig(
        name=name,
        mode=mode,
        family_specs=tuple(family_specs),
        A0=A0,
        A_total=A_total,
        h=h,
        tau_max=tau_max,
        sigma_eq=sigma_eq,
        outputs=paths,
        analyses=analyses,
        base_dir=path.resolve().parent,
    )


# ---------------------------------------------------------------------------
# scenario execution


def _build_family(spec, base_dir: Path) -> ExponentialFamily:
    kind = spec[0]
    if kind == "bernoulli":
        return BernoulliFamily()
    if kind == "gaussian-mean":
        return GaussianMeanFamily(dim=spec[1])
    if kind == "ideal-gas":
        return IdealGasFamily(volume=spec[1], fixed_n=spec[2])
    if kind == "tabulated-path":
        return tabulated_from_json(base_dir / spec[1])
    if kind == "tabulated-inline":
        return TabulatedFamily(DiscreteSpace(spec[1], spec[2]), spec[3])
    raise ValueError(f"unknown family spec {spec!r}")


def build_system(cfg: ScenarioConfig):
    """Materialize the configured family or composite system."""
    families = [_build_family(s, cfg.base_dir) for s in cfg.family_specs]
    if cfg.mode == "single":
        return families[0]
    return CompositeSystem(families[0], families[1], cfg.A_total)


def _check_config(cfg: ScenarioConfig):
    """Build the system and check the length and feasibility of ``A0`` and of
    every ``geometry_probe`` point, without integrating; return the system."""
    system = build_system(cfg)
    manifold = as_manifold(system)
    checks = [("A0", cfg.A0)] + [
        (f"analyses[{i}].points[{j}]", point)
        for i, spec in enumerate(cfg.analyses) if spec.kind == "geometry_probe"
        for j, point in enumerate(spec.points)
    ]
    for path, value in checks:
        try:
            manifold.check_feasible(value)
        except (EntroflowError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return system


def _probe_dict(system, point) -> dict:
    pt = as_manifold(system).point(np.asarray(point, dtype=float))
    gamma = christoffel(system, pt).gamma
    return {
        "point": pt.A.tolist(),
        "lambda": pt.force.tolist(),
        "sigma": float(pt.sigma),
        "metric": pt.metric.g.tolist(),
        "christoffel": gamma.tolist(),
    }


def _write_all(out: Path, writers) -> None:
    """Write each (name, write) artifact to a temporary file beside it and
    rename them all into place after the last write.  On any failure the
    temporary files, and the artifacts already renamed, are removed."""
    temps, renamed = [], []
    try:
        for i, (name, write) in enumerate(writers):
            final = out / name
            temps.append((final.with_name(f".{final.name}.{i}.tmp"), final))
            write(temps[-1][0])
        for tmp, final in temps:
            os.replace(tmp, final)
            renamed.append(final)
    except BaseException:
        for path in [tmp for tmp, _ in temps] + renamed:
            path.unlink(missing_ok=True)
        raise


def run_scenario(cfg: ScenarioConfig, output_dir=".", log=None) -> int:
    """Run one scenario and write its artifacts under ``output_dir``.

    Returns the process exit status: 0 when the integration terminates
    (equilibrium reached or tau budget exhausted), 2 on numerical failure
    or when the output directory cannot be made or written, with the
    diagnostic on ``log`` (``sys.stderr`` when None).  Artifacts are
    renamed into place only once all of them are written, so a failed run
    leaves none behind.
    """
    if log is None:
        log = sys.stderr
    out = Path(output_dir)
    started = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        system = _check_config(cfg)
        traj = integrate(system, cfg.A0, tau_max=cfg.tau_max, h=cfg.h, sigma_eq=cfg.sigma_eq)

        # Every analysis runs before the first artifact is written, so a
        # failing analysis leaves no partial artifact set behind.
        analyses_out: dict = {}
        onsager = None
        for spec in cfg.analyses:
            if spec.kind == "onsager":
                onsager = empirical_report(
                    system,
                    traj,
                    spec.clock_rate,
                    center=spec.center,
                    window=spec.window,
                )
            elif spec.kind == "entropy_production_check":
                check = entropy_production_check(traj)
                analyses_out["entropy_production_check"] = {
                    "max_residual": check.max_residual,
                    "argmax_tau": check.argmax_tau,
                }
            elif spec.kind == "geometry_probe":
                analyses_out["geometry_probe"] = [
                    _probe_dict(system, p) for p in spec.points
                ]

        summary = {
            "terminal_status": traj.terminal_status,
            "terminal_tau": float(traj.tau[-1]),
            "terminal_A": traj.A[-1].tolist(),
            "terminal_S": float(traj.S[-1]),
        }
        if analyses_out:
            summary["analyses"] = analyses_out

        writers = [(cfg.outputs.trajectory_csv, lambda p: write_trajectory_csv(traj, p))]
        if onsager is not None:
            writers.append((cfg.outputs.onsager_json, lambda p: write_onsager_json(onsager, p)))
        writers.append((
            cfg.outputs.summary_json,
            lambda p: p.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n"),
        ))
        _write_all(out, writers)
    except (EntroflowError, ValueError, OSError) as exc:
        print(f"[{cfg.name}] {type(exc).__name__}: {exc}", file=log)
        return 2
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    print(
        f"[{cfg.name}] {traj.terminal_status} at tau = {traj.tau[-1]:.6g} "
        f"({len(traj)} samples, {elapsed_ms:.1f} ms)",
        file=log,
    )
    return 0


# ---------------------------------------------------------------------------
# built-in scenario catalog


def catalog_dir():
    return resources.files("entroflow") / "scenarios"


def catalog_names() -> list[str]:
    return sorted(
        p.name[: -len(".json")]
        for p in catalog_dir().iterdir()
        if p.name.endswith(".json")
    )


def catalog_path(name: str) -> Path:
    return Path(str(catalog_dir() / f"{name}.json"))


# ---------------------------------------------------------------------------
# entry point


def _cmd_run(args) -> int:
    configs = []
    for p in args.configs:
        try:
            configs.append(parse_config(p))
        except EntroflowError as exc:
            print(f"{p}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    status = 0
    for cfg in configs:
        status = max(status, run_scenario(cfg, output_dir=args.output_dir))
    return status


def _cmd_validate(args) -> int:
    try:
        cfg = parse_config(args.config)
        _check_config(cfg)
    except (EntroflowError, ValueError) as exc:
        print(f"{args.config}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.config}: valid scenario {cfg.name!r} ({cfg.mode})")
    return 0


def _probe_text(info: dict) -> str:
    """The probe block, each value at 17 significant digits, through one
    %-template: "%.17g" % x is format(x, ".17g")."""
    d = len(info["point"])
    vector = "[" + ", ".join(["%.17g"] * d) + "]"
    lines = ["point   = " + vector, "lambda  = " + vector, "sigma   = %.17g"]
    lines += [f"g[{i}]    = " + vector for i in range(d)]
    lines += [f"Gamma[{a}][{b}] = " + vector for a in range(d) for b in range(d)]
    values = [*info["point"], *info["lambda"], info["sigma"], *np.ravel(info["metric"]).tolist(),
              *np.ravel(info["christoffel"]).tolist()]
    return "\n".join(lines) % tuple(values)


def _cmd_probe(args) -> int:
    try:
        cfg = parse_config(args.config)
        system = build_system(cfg)
        info = _probe_dict(system, args.point)
    except (EntroflowError, ValueError) as exc:
        print(f"{args.config}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(_probe_text(info))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Integrate unit-speed entropy-gradient flows from scenario configs.",
    )
    parser.add_argument("--version", action="version", version=f"entroflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more scenario configs")
    p_run.add_argument("configs", nargs="+", help="scenario JSON paths")
    p_run.add_argument("--output-dir", default=".", help="directory for artifacts")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and check a config, report violations")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_probe = sub.add_parser("probe", help="print metric, lambda, sigma, Christoffels at a point")
    # argparse takes "-4e-05" for an option unless the number matcher also
    # covers exponent notation; --point values are the only numbers here.
    p_probe._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
    )
    p_probe.add_argument("config")
    p_probe.add_argument("--point", type=float, nargs="+", required=True)
    p_probe.set_defaults(func=_cmd_probe)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
