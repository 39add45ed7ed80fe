"""The JSON documents entroflow reads, scenario configs and table files,
and the systems a scenario builds.

``parse_config`` turns a scenario into a ``ScenarioConfig`` whose families
are constructors with their arguments bound; ``build_system`` calls them,
and a table file a scenario names is read then, by ``tabulated_from_json``.
Every number in either document is judged by one of three predicates:
``_number``, ``_positive`` and ``_integer``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupled import CompositeSystem
from .errors import ParseError, ValidationError
from .family import (BernoulliFamily, GaussianMeanFamily, IdealGasFamily,
                     TabulatedFamily)

__all__ = ["ScenarioConfig", "parse_config", "build_system", "tabulated_from_json"]


@dataclass(frozen=True)
class OutputPaths:
    trajectory_csv: str
    summary_json: str
    onsager_json: str


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    mode: str  # single | coupled
    family_specs: tuple  # one constructor per family, its arguments bound
    A0: np.ndarray
    A_total: np.ndarray | None
    h: float
    tau_max: float
    sigma_eq: float
    outputs: OutputPaths
    #: (index, kind, the keys the document gives, checked), one per analysis
    analyses: tuple = ()


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
#: The keys each analysis kind reads besides ``kind``; a key left out takes
#: the default of the function that runs the analysis.
_ANALYSIS_KEYS = {
    "onsager": {"clock_rate", "window", "center"},
    "entropy_production_check": set(),
    "geometry_probe": {"points"},
}
_TABULATED_KEYS = {"points", "weights", "stats"}
#: Largest tau_max / h a scenario may ask for: a run records at most that
#: many grid rows, and near an entropy maximum the landing rows.
MAX_SAMPLES = 10**6


def _read_json(path: Path, what: str) -> tuple[str, dict]:
    """The text of the document at ``path`` and the JSON object it holds;
    ``what`` names the document when it holds something else."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal of more digits than int() reads
        raise ParseError(f"invalid JSON: {str(exc).partition(';')[0]}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    return text, doc


def _number(value) -> bool:
    """A float, or an int within the double range that is not a bool: JSON
    true and false decode to ints, and float() overflows past the range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _positive(value) -> bool:
    """A finite number > 0 (NaN fails the comparison)."""
    return _number(value) and 0.0 < value < math.inf


def _integer(value, least) -> bool:
    """An integer, not a float or a bool, of at least ``least``."""
    return isinstance(value, int) and _number(value) and value >= least


def _numbers(values: list) -> bool:
    """Whether every value is a float or an int within the double range,
    and not a bool, checked at C speed; a subclass of either, or a NaN that
    the range check meets first, fails here and is judged one by one."""
    kinds = set(map(type, values))
    return kinds <= {int, float} and (int not in kinds
                                      or max(map(abs, values)) <= sys.float_info.max)


def _key_line(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def _located(text: str, key: str, message: str) -> str:
    line = _key_line(text, key)
    prefix = f"line {line}: " if line is not None else ""
    return f"{prefix}{message}"


def _reject_unknown(obj: dict, allowed: set, path: str, text: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            line = _key_line(text, key)
            at = f" (line {line})" if line is not None else ""
            raise ParseError(f"unknown key {where!r}{at}")


def _number_list(value, path: str, violations: list) -> np.ndarray | None:
    if isinstance(value, list) and value and all(map(_number, value)):
        arr = np.asarray(value, dtype=float)
        if np.all(np.isfinite(arr)):
            return arr
    violations.append(f"{path} must be a non-empty list of finite numbers")
    return None


def _table_violations(points, weights, stats) -> list[tuple[str, str]]:
    """(key, message) for each way a points/weights/stats table breaks the
    schema, so that ``TabulatedFamily`` sees only lists of the right lengths
    and numbers; the point labels are checked here and nowhere else."""
    found = []
    n = len(points) if isinstance(points, list) else 0
    if n < 2:
        found.append(("points", "points must list at least 2 labels"))
    elif len(set(map(str, points))) != n:
        found.append(("points", "point labels must be unique"))
    if not isinstance(weights, list) or len(weights) != n:
        found.append(("weights", "weights must be a list matching points"))
    elif not (_numbers(weights) and all(map((0.0).__lt__, weights))):
        # 0.0 < w is False for NaN, where min(weights) > 0 depends on order;
        # the loop names the first offender
        for i, w in enumerate(weights):
            if not _number(w) or not w > 0:
                found.append(("weights", f"weights[{i}] must be a finite number > 0, got {w!r}"))
                break
    if not isinstance(stats, list) or not stats:
        found.append(("stats", "stats must be a non-empty matrix"))
    else:
        for alpha, row in enumerate(stats):
            if not (isinstance(row, list) and len(row) == n
                    and (_numbers(row) or all(map(_number, row)))):
                found.append(("stats", f"stats[{alpha}] must list one number per point"))
                break
    return found


def _table(points, weights, stats) -> TabulatedFamily:
    """The family of a table that passed ``_table_violations``; its point
    labels name the points for the document's reader only, and are dropped.
    A list or object label is rejected here, when the system is built, so
    that ``validate`` reports it and ``run`` exits 2, as for every table the
    family rejects."""
    if not {list, dict}.isdisjoint(map(type, points)):
        raise ValueError("point labels must be hashable (strings or numbers, not lists)")
    return TabulatedFamily(weights, stats)


def tabulated_from_json(source: str | Path) -> TabulatedFamily:
    """Load a tabulated family from a JSON document.

    The document must contain exactly the keys ``points``, ``weights`` and
    ``stats`` where ``stats`` is the (n_dim x n_points) matrix of statistic
    values.  Schema violations are rejected with a message that names the
    offending key and, where possible, its line in the document.
    """
    text, doc = _read_json(Path(source), "tabulated family document")
    unknown = sorted(set(doc) - _TABULATED_KEYS)
    if unknown:
        raise ParseError(_located(text, unknown[0], f"unknown key {unknown[0]!r}"))
    missing = sorted(_TABULATED_KEYS - set(doc))
    if missing:
        raise ValidationError([f"missing required key {k!r}" for k in missing])

    points, weights, stats = doc["points"], doc["weights"], doc["stats"]
    violations = [_located(text, k, m) for k, m in _table_violations(points, weights, stats)]
    if violations:
        raise ValidationError(violations)

    try:
        return _table(points, weights, stats)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc


def _parse_family_spec(obj, path, text, base_dir, violations):
    """The family's constructor with its arguments bound, or None after
    recording why the spec is invalid; a table path is taken relative to the
    directory that ``base_dir()`` gives, and the file is read when the
    constructor is called."""
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
            return BernoulliFamily
        if kind == "gaussian-mean":
            extra = set(obj) - {"closed_form", "dim"}
            if extra:
                violations.append(f"{path}: gaussian-mean accepts only 'dim', got {sorted(extra)}")
            dim = obj.get("dim", 1)
            if not _integer(dim, 1):
                violations.append(f"{path}.dim must be an integer >= 1")
                return None
            return functools.partial(GaussianMeanFamily, dim=dim)
        if kind == "ideal-gas":
            extra = set(obj) - {"closed_form", "volume", "fixed_n"}
            if extra:
                violations.append(
                    f"{path}: ideal-gas accepts 'volume' and 'fixed_n', "
                    f"got {sorted(extra)}"
                )
            volume = obj.get("volume")
            if not _positive(volume):
                violations.append(f"{path}.volume must be a finite number > 0")
                return None
            fixed_n = obj.get("fixed_n")
            if fixed_n is not None and not _positive(fixed_n):
                violations.append(f"{path}.fixed_n must be a finite number > 0")
                return None
            return functools.partial(
                IdealGasFamily, float(volume), None if fixed_n is None else float(fixed_n)
            )
        violations.append(f"{path}.closed_form must be one of bernoulli, gaussian-mean, ideal-gas")
        return None
    if "tabulated" in obj:
        if set(obj) != {"tabulated"} or not isinstance(obj["tabulated"], str):
            violations.append(f"{path}.tabulated must be a lone path string")
            return None
        return functools.partial(tabulated_from_json, base_dir() / obj["tabulated"])
    if _TABULATED_KEYS <= set(obj):
        if set(obj) != _TABULATED_KEYS:
            violations.append(f"{path}: inline tabulated spec takes exactly points/weights/stats")
            return None
        table = (obj["points"], obj["weights"], obj["stats"])
        found = _table_violations(*table)
        violations += [f"{path}.{key}: {message}" for key, message in found]
        return None if found else functools.partial(_table, *table)
    violations.append(
        f"{path} must declare 'closed_form', 'tabulated', or inline points/weights/stats"
    )
    return None


def _parse_analyses(raw, text, violations):
    if not isinstance(raw, list):
        violations.append("analyses must be a list")
        return ()
    analyses, first = [], {}
    for i, item in enumerate(raw):
        path = f"analyses[{i}]"
        if not isinstance(item, dict):
            violations.append(f"{path} must be an object")
            continue
        kind = item.get("kind")
        keys = _ANALYSIS_KEYS.get(kind) if isinstance(kind, str) else None
        # the keys of an unknown kind are judged against every kind's
        allowed = set().union(*_ANALYSIS_KEYS.values()) if keys is None else keys
        _reject_unknown(item, allowed | {"kind"}, path, text)
        if keys is None:
            violations.append(
                f"{path}.kind must be onsager, entropy_production_check or geometry_probe"
            )
            continue
        # a run keys each analysis's output by its kind
        if kind in first:
            violations.append(f"{path}.kind {kind} repeats analyses[{first[kind]}].kind")
            continue
        first[kind] = i
        given = {key: value for key, value in item.items() if key != "kind"}
        if "clock_rate" in given and not _positive(given["clock_rate"]):
            violations.append(f"{path}.clock_rate must be a finite number > 0")
        elif "window" in given and not _integer(given["window"], 3):
            violations.append(f"{path}.window must be an integer >= 3")
        elif given.get("center") is not None and not _integer(given["center"], -math.inf):
            violations.append(f"{path}.center must be an integer sample index")
        elif "points" in given and not isinstance(given["points"], list):
            violations.append(f"{path}.points must be a list of points")
        elif all(_number_list(p, f"{path}.points[{j}]", violations) is not None
                 for j, p in enumerate(given.get("points", ()))):
            if "clock_rate" in given:
                given["clock_rate"] = float(given["clock_rate"])
            analyses.append((i, kind, given))
    return tuple(analyses)


def parse_config(path) -> ScenarioConfig:
    """Strictly parse a scenario document.

    Unknown keys anywhere raise ParseError naming the key path (no silent
    typo tolerance); semantic problems are collected and raised together as
    a ValidationError listing every violated invariant.
    """
    path = Path(path)
    text, doc = _read_json(path, "scenario config")
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

    # a table file is found relative to the config's real directory, which
    # is looked up once, and only for a family that names one
    base_dir = functools.cache(lambda: path.resolve().parent)
    family_specs = []
    if mode == "single":
        if "families" in doc:
            violations.append("mode 'single' uses 'family', not 'families'")
        if "A_total" in doc:
            violations.append("A_total is only valid in coupled mode")
        if "family" not in doc:
            violations.append("mode 'single' requires 'family'")
        else:
            spec = _parse_family_spec(doc["family"], "family", text, base_dir, violations)
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
                spec = _parse_family_spec(f, f"families[{i}]", text, base_dir, violations)
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
        if not _positive(value):
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
    )


def build_system(cfg: ScenarioConfig):
    """Materialize the configured family or composite system."""
    families = [make() for make in cfg.family_specs]
    if cfg.mode == "single":
        return families[0]
    return CompositeSystem(families[0], families[1], cfg.A_total)
