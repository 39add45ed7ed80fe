"""The JSON documents entroflow reads, scenario configs and table files,
and the systems a scenario builds.

Each object of either document is declared once, by a schema table that
maps each of its keys to the test its value must pass, the words of that
test and its default: ``_REQUIRED``, or None for a key that, left out,
takes the default of the function that reads it.  ``_checked`` judges an
object against its table: any other key raises ParseError, and a failed
test or a missing required key is a violation.  A scenario's ``mode``, a
family's ``closed_form`` and an analysis's ``kind`` each name the table
of the keys their object adds (``_variant``); a family that names no
closed form is a table file, ``tabulated``, or an inline table.

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
    outputs: OutputPaths
    #: (index, kind, the keys the document gives, checked), one per analysis
    analyses: tuple = ()


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


def _finite_list(value) -> bool:
    """A non-empty list of finite numbers."""
    return (isinstance(value, list) and value != [] and all(map(_number, value))
            and all(map(math.isfinite, value)))


def _objects(value, count=None) -> bool:
    """A list of JSON objects, ``count`` of them where given."""
    return (isinstance(value, list) and count in (None, len(value))
            and all(isinstance(item, dict) for item in value))


#: The default of a key that a document must give.
_REQUIRED = object()
_POSITIVE = (_positive, "a finite number > 0")
_FINITE_LIST = (_finite_list, "a non-empty list of finite numbers")
_OBJECT = (lambda value: isinstance(value, dict), "an object")
_PATH = (lambda value: isinstance(value, str) and value != "", "a non-empty path string")

#: The keys of a scenario that every mode shares, and the keys each mode adds.
_SCENARIO = {
    "name": (_PATH[0], "a non-empty string", _REQUIRED),
    "A0": (*_FINITE_LIST, _REQUIRED),
    "integrator": (*_OBJECT, {}),
    "outputs": (*_OBJECT, {}),
    "analyses": (_objects, "a list of objects", []),
}
_MODES = {
    "single": {"family": (*_OBJECT, _REQUIRED)},
    "coupled": {"families": (lambda value: _objects(value, 2), "a list of 2 objects", _REQUIRED),
                "A_total": (*_FINITE_LIST, _REQUIRED)},
}
_INTEGRATOR = {
    "h": (*_POSITIVE, 1e-3),
    "tau_max": (*_POSITIVE, _REQUIRED),
}
#: An output left out is named by the scenario's name and this suffix.
_OUTPUTS = {
    "trajectory_csv": (*_PATH, ".csv"),
    "summary_json": (*_PATH, "-summary.json"),
    "onsager_json": (*_PATH, "-onsager.json"),
}
#: Each closed-form family kind: its constructor and the keys it takes.
_CLOSED_FORMS = {
    "bernoulli": (BernoulliFamily, {}),
    "gaussian-mean": (GaussianMeanFamily, {
        "dim": (lambda value: _integer(value, 1), "an integer >= 1", 1),
    }),
    "ideal-gas": (IdealGasFamily, {
        "volume": (*_POSITIVE, _REQUIRED),
        "fixed_n": (lambda value: value is None or _positive(value), "a finite number > 0", None),
    }),
}
#: A table file, and an inline table, whose three keys ``_table_intake``
#: judges together.
_TABLE_FILE = {"tabulated": (lambda value: isinstance(value, str), "a path string", _REQUIRED)}
_TABLE = dict.fromkeys(("points", "weights", "stats"), (lambda value: True, "", _REQUIRED))
#: The keys each analysis kind reads besides ``kind``; a key left out takes
#: the default of the function that runs the analysis.
_ANALYSES = {
    "onsager": {
        "clock_rate": (*_POSITIVE, None),
        "window": (lambda value: _integer(value, 3), "an integer >= 3", None),
        "center": (lambda value: value is None or _integer(value, -math.inf),
                   "an integer sample index", None),
    },
    "entropy_production_check": {},
    "geometry_probe": {
        "points": (lambda value: isinstance(value, list) and all(map(_finite_list, value)),
                   "a list of points, each a non-empty list of finite numbers", None),
    },
}


def _key_line(text: str, key: str) -> int | None:
    """The line of ``"key"`` when the document writes it once; written again,
    as a value or as another object's key, it names no line."""
    needle = f'"{key}"'
    if text.count(needle) != 1:
        return None
    return text.count("\n", 0, text.index(needle)) + 1


def _located(text: str, key: str, message: str) -> str:
    line = _key_line(text, key)
    prefix = f"line {line}: " if line is not None else ""
    return f"{prefix}{message}"


def _reject_unknown(obj: dict, allowed, path: str, text: str) -> None:
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            line = _key_line(text, key)
            at = f" (line {line})" if line is not None else ""
            raise ParseError(f"unknown key {where!r}{at}")


def _checked(obj: dict, schema: dict, path: str, text: str, violations: list,
             other=()) -> dict:
    """The values of ``obj`` that pass their tests in ``schema``, and the
    default of each key left out that has one.  A key of neither ``schema``
    nor ``other`` raises ParseError; a failed test, or a required key left
    out, is recorded in ``violations``."""
    _reject_unknown(obj, schema.keys() | set(other), path, text)
    values = {}
    for key, (test, words, default) in schema.items():
        where = f"{path}.{key}" if path else key
        if key in obj and test(obj[key]):
            values[key] = obj[key]
        elif key in obj:
            violations.append(f"{where} must be {words}")
        elif default is _REQUIRED:
            violations.append(f"{where} is required")
        elif default is not None:
            values[key] = default
    return values


def _variant(obj: dict, tag: str, variants: dict, shared: dict, path: str, text: str,
             violations: list) -> tuple[str | None, dict]:
    """The variant that the key ``tag`` of ``obj`` names among ``variants``,
    or None, and the other values of ``obj``, checked against ``shared``
    and that variant's table; where ``tag`` names none, the keys of every
    variant are allowed, and left unchecked."""
    def names(value):
        return isinstance(value, str) and value in variants

    name = obj[tag] if names(obj.get(tag)) else None
    schema = {tag: (names, f"one of {', '.join(variants)}", _REQUIRED),
              **shared, **variants.get(name, {})}
    other = set().union(*variants.values()) if name is None else ()
    values = _checked(obj, schema, path, text, violations, other)
    values.pop(tag, None)
    return name, values


def _table_intake(points, weights, stats) -> tuple[list[tuple[str, str]], tuple | None]:
    """(key, message) for each way a points/weights/stats table breaks the
    schema, and, where it breaks none, the arguments of ``_table``: the
    weights and the statistics as float arrays, and whether a point label is
    a list or an object.  Each list is scanned for its types once and, once
    that scan passes, converted once; the point labels are checked here and
    nowhere else."""
    found = []
    n = len(points) if isinstance(points, list) else 0
    kinds = set(map(type, points)) if n >= 2 else set()
    if n < 2:
        found.append(("points", "points must list at least 2 labels"))
    elif len(set(points) if kinds == {str} else set(map(str, points))) != n:
        # str() is the identity on strings, so only other labels are
        # compared as text
        found.append(("points", "point labels must be unique"))
    if not isinstance(weights, list) or len(weights) != n:
        found.append(("weights", "weights must be a list matching points"))
    else:
        w = np.asarray(weights, dtype=float) if _numbers(weights) else None
        if w is None or not (w > 0.0).all():
            # w > 0 is False for NaN; the loop names the first offender
            for i, value in enumerate(weights):
                if not _number(value) or not value > 0:
                    found.append(("weights",
                                  f"weights[{i}] must be a finite number > 0, got {value!r}"))
                    break
    if not isinstance(stats, list) or not stats:
        found.append(("stats", "stats must be a non-empty matrix"))
    else:
        for alpha, row in enumerate(stats):
            if not (isinstance(row, list) and len(row) == n
                    and (_numbers(row) or all(map(_number, row)))):
                found.append(("stats", f"stats[{alpha}] must list one number per point"))
                break
    if found:
        return found, None
    return found, (w, np.asarray(stats, dtype=float), not {list, dict}.isdisjoint(kinds))


def _table(weights, stats, listed_labels: bool) -> TabulatedFamily:
    """The family of a table that passed ``_table_intake``; its point labels
    name the points for the document's reader only, and are dropped.  A
    list or object label is rejected here, when the system is built, so that
    ``validate`` reports it and ``run`` exits 2, as for every table the
    family rejects."""
    if listed_labels:
        raise ValueError("point labels must be hashable (strings or numbers, not lists)")
    return TabulatedFamily(weights, stats)


def tabulated_from_json(source: str | Path) -> TabulatedFamily:
    """Load a tabulated family from a JSON document.

    The document holds exactly the keys ``points``, ``weights`` and
    ``stats``, where ``stats`` is the (n_dim x n_points) matrix of statistic
    values.  Schema violations are rejected with a message that names the
    offending key and, where possible, its line in the document.
    """
    text, doc = _read_json(Path(source), "tabulated family document")
    violations: list[str] = []
    table = _checked(doc, _TABLE, "", text, violations)
    if not violations:
        found, args = _table_intake(**table)
        violations = [_located(text, k, m) for k, m in found]
    if violations:
        raise ValidationError(violations)
    try:
        return _table(*args)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc


def _family(obj: dict, path, text, base_dir, violations):
    """The family's constructor with its arguments bound, or None where the
    spec names no form; a table path is taken relative to the directory
    that ``base_dir()`` gives, and the file is read when the constructor is
    called."""
    if "closed_form" in obj:
        kinds = {kind: keys for kind, (_, keys) in _CLOSED_FORMS.items()}
        kind, values = _variant(obj, "closed_form", kinds, {}, path, text, violations)
        return None if kind is None else functools.partial(_CLOSED_FORMS[kind][0], **values)
    if "tabulated" in obj:
        file = _checked(obj, _TABLE_FILE, path, text, violations).get("tabulated")
        return None if file is None else functools.partial(tabulated_from_json, base_dir() / file)
    if _TABLE.keys() & obj.keys():
        table = _checked(obj, _TABLE, path, text, violations)
        if len(table) < len(_TABLE):
            return None
        found, args = _table_intake(**table)
        violations += [f"{path}.{key}: {message}" for key, message in found]
        return None if found else functools.partial(_table, *args)
    violations.append(
        f"{path} must declare 'closed_form', 'tabulated', or inline points/weights/stats"
    )
    return None


def _analyses(items: list, text: str, violations: list) -> tuple:
    """(index, kind, the keys given, checked) for each analysis; a run keys
    each analysis's output by its kind, so a kind may appear once."""
    analyses, first = [], {}
    for i, item in enumerate(items):
        kind, given = _variant(item, "kind", _ANALYSES, {}, f"analyses[{i}]", text, violations)
        if kind in first:
            violations.append(f"analyses[{i}].kind {kind} repeats analyses[{first[kind]}].kind")
        elif kind is not None:
            first[kind] = i
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
    violations: list[str] = []
    mode, top = _variant(doc, "mode", _MODES, _SCENARIO, "", text, violations)

    integ = _checked(top.get("integrator", {}), _INTEGRATOR, "integrator", text, violations)
    integ = {key: float(value) for key, value in integ.items()}
    if "h" in integ and "tau_max" in integ and integ["tau_max"] / integ["h"] > MAX_SAMPLES:
        violations.append(
            f"integrator.h must be at least tau_max / {MAX_SAMPLES} = "
            f"{integ['tau_max'] / MAX_SAMPLES:.3g}, got {integ['h']:.3g}"
        )

    given = top.get("outputs", {})
    outputs = _checked(given, _OUTPUTS, "outputs", text, violations)
    outputs = {key: value if key in given else top.get("name", "") + value
               for key, value in outputs.items()}
    # a later artifact would silently replace an earlier one of the same name
    named: dict = {}
    for key in sorted(outputs):
        named.setdefault(os.path.normpath(outputs[key]), []).append(f"outputs.{key}")
    violations += [
        f"{' and '.join(keys)} name the same file" for keys in named.values() if len(keys) > 1
    ]

    # a table file is found relative to the config's real directory, which
    # is looked up once, and only for a family that names one
    base_dir = functools.cache(lambda: path.resolve().parent)
    families = [("family", top["family"])] if "family" in top else [
        (f"families[{i}]", obj) for i, obj in enumerate(top.get("families", ()))]
    family_specs = tuple(_family(obj, where, text, base_dir, violations)
                         for where, obj in families)

    if "A0" in top and "A_total" in top and len(top["A0"]) != len(top["A_total"]):
        violations.append("A0 and A_total must have the same length")

    analyses = _analyses(top.get("analyses", ()), text, violations)

    if violations:
        raise ValidationError(violations)

    return ScenarioConfig(
        name=top["name"],
        mode=mode,
        family_specs=family_specs,
        A0=np.asarray(top["A0"], dtype=float),
        A_total=np.asarray(top["A_total"], dtype=float) if mode == "coupled" else None,
        h=integ["h"],
        tau_max=integ["tau_max"],
        outputs=OutputPaths(**outputs),
        analyses=analyses,
    )


def build_system(cfg: ScenarioConfig):
    """Materialize the configured family or composite system."""
    families = [make() for make in cfg.family_specs]
    if cfg.mode == "single":
        return families[0]
    return CompositeSystem(families[0], families[1], cfg.A_total)
