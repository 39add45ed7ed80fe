"""Mutation fuzzer over scenario documents.

Starting from a valid table document, a valid coupled document and a valid
closed-form document that carries every numeric field of its schema, each
example deletes keys, replaces values with unrelated JSON, or adds unknown
keys, then runs ``validate`` and ``run`` through ``cli.main``.  Whatever the
document, no exception escapes, the exit codes stay in their documented
sets, a failed run leaves no artifact behind, and a document that
``validate`` accepts never fails ``run`` for a schema reason.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entroflow.cli import main

SINGLE = {
    "name": "fz",
    "mode": "single",
    "family": {"points": ["a", "b", "c"], "weights": [1.0, 2.0, 1.0], "stats": [[0.0, 1.0, 3.0]]},
    "A0": [0.6],
    "integrator": {"tau_max": 2.0, "h": 0.01},
    "outputs": {"trajectory_csv": "t.csv"},
    "analyses": [
        {"kind": "entropy_production_check"},
        {"kind": "geometry_probe", "points": [[1.5]]},
    ],
}

COUPLED = {
    "name": "fz2",
    "mode": "coupled",
    "families": [{"closed_form": "bernoulli"}, {"closed_form": "bernoulli"}],
    "A0": [0.3],
    "A_total": [1.0],
    "integrator": {"tau_max": 2.0, "h": 0.01},
    "analyses": [{"kind": "onsager", "window": 5}],
}

CLOSED = {
    "name": "fz3",
    "mode": "single",
    "family": {"closed_form": "ideal-gas", "volume": 2, "fixed_n": 1},
    "A0": [1.0],
    "integrator": {"h": 0.01, "tau_max": 2},
    "analyses": [
        {"kind": "onsager", "clock_rate": 2.0, "window": 5, "center": 100},
        {"kind": "entropy_production_check"},
        {"kind": "geometry_probe", "points": [[1.5]]},
    ],
}
BASES = [SINGLE, COUPLED, CLOSED]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 3, 0.5, 1.5, -2.0, 1e-9, 1e300, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "single", "coupled", "bernoulli", "gaussian-mean",
                     "ideal-gas", "onsager", "geometry_probe", "table.json"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["a", "dim", "volume"]), inner, max_size=2)),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _number_paths(doc):
    """Key paths to every number in a JSON document (booleans excluded)."""
    for path in _paths(doc):
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(values)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "tau_max", "dim"]))] = draw(values)
    return doc


def _set(doc, path, value):
    """A copy of ``doc`` with the value at key path ``path`` replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("doc", BASES, ids=["table", "coupled", "closed-form"])
def test_base_documents_run(tmp_path, doc):
    # every mutation starts from a document that validates and runs
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(doc))
    assert _main(["validate", str(file)])[0] == 0
    code, err = _main(["run", str(file), "--output-dir", str(tmp_path / "out")])
    assert code == 0, err


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(doc=dict(SINGLE, family=dict(SINGLE["family"], points=5)))
@given(doc=documents())
def test_mutated_documents_fail_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        validated, _ = _main(["validate", str(path)])
        assert validated in (0, 1)
        code, err = _main(["run", str(path), "--output-dir", str(out)])
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists() or not any(out.rglob("*")), err
        if validated == 0:
            assert code != 1, err
            assert "ParseError" not in err and "ValidationError" not in err, err


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_booleans_never_pass_as_numbers(data):
    # JSON true and false are ints to Python; every numeric field rejects them
    doc = data.draw(st.sampled_from(BASES))
    path = data.draw(st.sampled_from(list(_number_paths(doc))))
    doc = _set(doc, path, data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "scenario.json"
        file.write_text(json.dumps(doc))
        assert _main(["validate", str(file)])[0] == 1, path
        out = Path(tmp) / "out"
        code, err = _main(["run", str(file), "--output-dir", str(out)])
        assert code == 1, (path, err)
        assert not out.exists() or not any(out.rglob("*"))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("path", list(_number_paths(CLOSED)), ids=str)
def test_nonfinite_numbers_never_pass(tmp_path, path, value):
    # json.dumps writes Infinity, -Infinity and NaN, which json.loads reads
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(_set(CLOSED, path, value)))
    assert _main(["validate", str(file)])[0] == 1
    out = tmp_path / "out"
    code, err = _main(["run", str(file), "--output-dir", str(out)])
    assert code != 0, err
    assert not out.exists() or not any(out.rglob("*")), err


def _number_cases():
    for name, doc in zip(["table", "coupled", "closed-form"], BASES):
        for path in _number_paths(doc):
            yield pytest.param(doc, path, id=f"{name}-{'.'.join(map(str, path))}")


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["big", "-big"])
@pytest.mark.parametrize("doc, path", list(_number_cases()))
def test_integers_beyond_the_double_range_never_pass(tmp_path, doc, path, value):
    # a JSON integer is a Python int, which compares below inf however
    # large it is, and which float() cannot take past the double range
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(_set(doc, path, value)))
    code, err = _main(["validate", str(file)])
    assert code == 1 and len(err.splitlines()) == 1, err
    out = tmp_path / "out"
    code, err = _main(["run", str(file), "--output-dir", str(out)])
    assert code == 1 and "Traceback" not in err, err
    assert not out.exists() or not any(out.rglob("*")), err


def test_an_integer_literal_too_long_to_read_is_a_parse_error(tmp_path):
    # json.loads raises a plain ValueError past Python's limit on the digits
    # of an int (4,300 by default), not a JSONDecodeError
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(_set(CLOSED, ("integrator", "tau_max"), 123456789))
                    .replace("123456789", "1" + "0" * 5000))
    code, err = _main(["validate", str(file)])
    assert code == 1 and len(err.splitlines()) == 1 and "ParseError" in err, err
    out = tmp_path / "out"
    code, err = _main(["run", str(file), "--output-dir", str(out)])
    assert code == 1 and "Traceback" not in err and "ParseError" in err, err
    assert not out.exists() or not any(out.rglob("*")), err
