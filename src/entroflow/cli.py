"""The ``entroflow`` command line and the scenario runner.

``run`` integrates each scenario and writes the trajectory CSV, a summary
JSON and any analysis outputs; ``validate`` checks a config against the
system it builds, without integrating; ``probe`` prints local geometry at a
point.  The documents themselves, their schema and the systems they build
are ``config``'s.  Identical config and build produce byte-identical
artifacts: there is no time-seeded or otherwise nondeterministic behaviour
in the numerics, and wall-clock timing goes to the log stream, never into
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, build_system, parse_config
from .errors import EntroflowError, ValidationError
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
# scenario execution


def _check_config(cfg: ScenarioConfig):
    """Build the system and make the points of ``A0`` and of every
    ``geometry_probe`` point, without integrating; a value that has no point
    (of the wrong length, infeasible, or a table mean outside the hull of
    its statistics), or an Onsager fit on a system of dimension 2 or more,
    raises ValidationError naming it.  Returns the system, the start point
    and the probe points."""
    system = build_system(cfg)
    manifold = as_manifold(system)

    def point(path, value):
        try:
            return manifold.point(value)
        except (EntroflowError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    start = point("A0", cfg.A0)
    probes = []
    for i, kind, given in cfg.analyses:
        if kind == "onsager" and manifold.dim > 1:
            raise ValidationError(
                f"analyses[{i}]: an onsager fit needs a system of dimension 1, not "
                f"{manifold.dim}: one trajectory probes one force direction")
        probes += [point(f"analyses[{i}].points[{j}]", value)
                   for j, value in enumerate(given.get("points", ()))]
    return system, start, probes


def _probe_dict(pt) -> dict:
    """The state, lambda, sigma, g and Gamma at the point ``pt``, as arrays."""
    return {
        "point": pt.A,
        "lambda": pt.force,
        "sigma": float(pt.sigma),
        "metric": pt.g,
        "christoffel": christoffel(None, pt),
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
    (equilibrium reached or tau budget exhausted), 2 on numerical failure,
    on a non-finite number that JSON cannot hold, or when the output
    directory cannot be made or written, with the diagnostic on ``log``
    (``sys.stderr`` when None).  Artifacts are
    renamed into place only once all of them are written, so a failed run
    leaves none behind.
    """
    if log is None:
        log = sys.stderr
    out = Path(output_dir)
    started = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
        system, start, probes = _check_config(cfg)
        traj = integrate(system, start, tau_max=cfg.tau_max, h=cfg.h)

        # Every analysis runs before the first artifact is written, so a
        # failing analysis leaves no partial artifact set behind.
        analyses_out: dict = {}
        onsager = None
        for _, kind, given in cfg.analyses:
            if kind == "onsager":
                onsager = empirical_report(system, traj, **given)
            elif kind == "entropy_production_check":
                check = entropy_production_check(traj)
                analyses_out["entropy_production_check"] = {
                    "max_residual": check.max_residual,
                    "argmax_tau": check.argmax_tau,
                }
            elif kind == "geometry_probe":
                analyses_out["geometry_probe"] = [
                    {key: np.asarray(value).tolist()
                     for key, value in _probe_dict(pt).items()}
                    for pt in probes
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
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        writers.append((cfg.outputs.summary_json, lambda p: p.write_text(text)))
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
    keys = ("point", "lambda", "sigma", "metric", "christoffel")
    values = np.concatenate([np.ravel(info[key]) for key in keys]).tolist()
    return "\n".join(lines) % tuple(values)


def _cmd_probe(args) -> int:
    status = 1  # a config error, as for validate and run
    try:
        cfg = parse_config(args.config)
        status = 2  # a system that cannot be built, or a point with no state
        info = _probe_dict(as_manifold(build_system(cfg)).point(args.point))
    except (EntroflowError, ValueError) as exc:
        print(f"{args.config}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return status
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
