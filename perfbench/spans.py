"""Span recorder for the traced run, attached to entroflow from outside.

``instrument`` replaces the layer functions named in ``TARGETS`` by wrappers,
patching module attributes (in every entroflow module that imported the
function by name) and class attributes, and restores the originals on exit.
Each call becomes a span: kind, parent span, start, end and one number of
context (warm start, bytes written, samples).  Spans are kept in memory;
nothing is written until the run ends.  Every op calls the command line
with one job, so all spans are recorded on the benchmark's own thread.

``layer_metrics`` turns the spans of the traced passes into per-pass counts
and times.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, owner, attribute): owner is a module name, or "module:Class".
TARGETS = [
    ("family", "entroflow.family:*", "log_partition"),
    ("family", "entroflow.family:*", "mean_parameters"),
    ("family", "entroflow.family:*", "covariance"),
    ("family", "entroflow.family:*", "check_natural_domain"),
    ("family", "entroflow.family:*", "check_feasible"),
    ("family", "entroflow.family:*", "solve_mean"),
    ("family", "entroflow.family:*", "entropy_surface"),
    ("family", "entroflow.family:*", "neg_entropy_hessian"),
    ("duality", "entroflow.duality", "solve_lambda"),
    ("geometry", "entroflow.geometry:FamilyManifold", "point"),
    ("geometry", "entroflow.geometry:FamilyManifold", "metric_matrix"),
    ("geometry", "entroflow.geometry", "christoffel"),
    ("coupled", "entroflow.coupled:CompositeSystem", "point"),
    ("flow", "entroflow.flow", "integrate"),
    ("flow", "entroflow.flow", "_rk4_step"),
    ("flow", "entroflow.flow", "_bisect_to_threshold"),
    ("flow", "entroflow.flow", "write_trajectory_csv"),
    ("flow", "entroflow.flow", "entropy_production_check"),
    ("onsager", "entroflow.onsager", "empirical_report"),
    ("onsager", "entroflow.onsager", "write_onsager_json"),
    ("cli", "entroflow.cli", "parse_config"),
    ("cli", "entroflow.cli", "build_system"),
]

FAMILY_EVALS = ("log_partition", "mean_parameters", "covariance")
DOMAIN_CHECKS = ("check_natural_domain", "check_feasible")


#: Unit of every per-layer metric, in reporting order.
UNITS = {
    "family.calls": "count",
    "family.self_s": "s",
    "family.domain_checks": "count",
    "duality.solves.warm": "count",
    "duality.solves.cold": "count",
    "duality.iters_per_solve.warm": "count",
    "duality.iters_per_solve.cold": "count",
    "duality.trials_per_solve": "count",
    "duality.analytic_share": "ratio",
    "duality.self_s": "s",
    "geometry.points": "count",
    "geometry.points_per_sample": "ratio",
    "geometry.point.self_s": "s",
    "geometry.metric_matrix.calls": "count",
    "geometry.christoffel_s": "s",
    "coupled.points": "count",
    "coupled.point.self_s": "s",
    "flow.rk4_steps": "count",
    "flow.accept_ratio": "ratio",
    "flow.integrate_s": "s",
    "flow.bisect.rk4_steps": "count",
    "flow.bisect_s": "s",
    "flow.csv_bytes": "B",
    "flow.csv_s": "s",
    "flow.entropy_check_s": "s",
    "onsager.report_s": "s",
    "cli.parse_s": "s",
    "cli.build_s": "s",
    "cli.cpu_util": "ratio",
    "trace.overhead": "ratio",
}


def _warm(args, kwargs, result) -> float:
    init = kwargs.get("init", args[2] if len(args) > 2 else None)
    return 0.0 if init is None else 1.0


def _csv_bytes(args, kwargs, result) -> float:
    dest = kwargs.get("dest", args[1] if len(args) > 1 else None)
    return float(os.path.getsize(dest)) if isinstance(dest, (str, os.PathLike)) else 0.0


#: Context recorded when a call returns: warm start, bytes written, samples
#: produced, and 1 for a bisection that landed.
ATTRS = {
    "solve_lambda": _warm,
    "write_trajectory_csv": _csv_bytes,
    "integrate": lambda args, kwargs, result: float(len(result)),
    "_bisect_to_threshold": lambda args, kwargs, result: 1.0,
}


class SpanRecorder:
    """In-memory spans with parent links, recorded on one thread."""

    def __init__(self):
        self.kinds: list[str] = []
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")
        self._stack: list[int] = []

    def kind_id(self, name: str) -> int:
        if name not in self.kinds:
            self.kinds.append(name)
        return self.kinds.index(name)

    def wrap(self, name: str, fn, attr=None):
        kind = self.kind_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.kind)
            self.kind.append(kind)
            self.parent.append(stack[-1] if stack else -1)
            self.attr.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if attr is not None:
                self.attr[i] = attr(args, kwargs, result)
            return result

        return wrapper

    def arrays(self) -> dict:
        """All spans as numpy arrays, in start order."""
        return {
            "kind": np.asarray(self.kind, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "attr": np.asarray(self.attr, dtype=float),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its child spans.

    On one thread the children of a span are disjoint and lie inside it, so
    their durations add up to the time they cover.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))


def _resolve(owner: str) -> list:
    module_name, _, cls = owner.partition(":")
    module = sys.modules[module_name]
    if not cls:
        return [module]
    if cls != "*":
        return [getattr(module, cls)]
    base = module.ExponentialFamily
    return [
        c for c in vars(module).values()
        if inspect.isclass(c) and issubclass(c, base) and c.__module__ == module_name
    ]


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every target for the duration of the block, then restore it."""
    restore = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "entroflow"]
    try:
        for layer, owner, attr in TARGETS:
            name = f"{layer}.{attr}"
            for target in _resolve(owner):
                fn = vars(target).get(attr)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                wrapped = recorder.wrap(name, fn, ATTRS.get(attr))
                if inspect.isclass(target):
                    restore.append((target, attr, fn))
                    setattr(target, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            restore.append((module, key, fn))
                            setattr(module, key, wrapped)
        yield recorder
    finally:
        for target, key, fn in reversed(restore):
            setattr(target, key, fn)


def _enclosing(kind: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Index of the nearest ancestor-or-self span of ``target`` kind, else -1.

    Spans are stored in start order, so a parent always precedes its child.
    """
    enc = np.where(kind == target, np.arange(len(kind)), -1)
    has_parent = parent >= 0
    while True:
        todo = (enc < 0) & has_parent
        fill = np.where(todo, enc[np.where(has_parent, parent, 0)], -1)
        new = np.where(todo, fill, enc)
        if np.array_equal(new, enc):
            return enc
        enc = new


def layer_metrics(recorder: SpanRecorder, passes: int) -> dict[str, float]:
    """Per-pass counts and seconds for each layer; 0 where a layer did no work."""
    sp = recorder.arrays()
    kind, parent = sp["kind"], sp["parent"]
    dur = sp["end"] - sp["start"]
    self_s = self_times(sp["start"], sp["end"], parent)
    attr = sp["attr"]
    ids = {name: i for i, name in enumerate(recorder.kinds)}

    def of(*names):
        mask = np.zeros(len(kind), dtype=bool)
        for n in names:
            if n in ids:
                mask |= kind == ids[n]
        return mask

    def parent_is(mask):
        return np.where(parent >= 0, mask[np.where(parent >= 0, parent, 0)], False)

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    family = of(*(n for n in recorder.kinds if n.startswith("family.")))
    evals = of(*(f"family.{n}" for n in FAMILY_EVALS))
    checks = of(*(f"family.{n}" for n in DOMAIN_CHECKS))

    solve = of("duality.solve_lambda")
    enc = _enclosing(kind, parent, ids.get("duality.solve_lambda", -1))
    cov_per_solve = np.bincount(enc[of("family.covariance") & (enc >= 0)], minlength=len(kind))
    lp_per_solve = np.bincount(enc[of("family.log_partition") & (enc >= 0)], minlength=len(kind))
    newton = solve & (lp_per_solve > 0)
    warm = newton & (attr == 1.0)
    cold = newton & (attr == 0.0)

    point = of("geometry.point")
    cpoint = of("coupled.point")
    rk4 = of("flow._rk4_step")
    bisect = of("flow._bisect_to_threshold")
    in_bisect = _enclosing(kind, parent, ids.get("flow._bisect_to_threshold", -1)) >= 0
    integrate = of("flow.integrate")
    samples = float(attr[integrate].sum())
    # With record_every = 1 (every generated config) each accepted step adds
    # one sample, as does the initial state and each landed bisection.
    accepted = samples - integrate.sum() - attr[bisect].sum()
    attempted = (rk4 & ~in_bisect).sum()
    manifold_points = (point & ~parent_is(cpoint)).sum() + cpoint.sum()

    per_pass = {
        "family.calls": evals.sum(),
        "family.self_s": self_s[family].sum(),
        "family.domain_checks": (checks & ~parent_is(checks)).sum(),
        "duality.solves.warm": warm.sum(),
        "duality.solves.cold": cold.sum(),
        "duality.self_s": self_s[solve].sum(),
        "geometry.points": point.sum(),
        "geometry.point.self_s": self_s[point].sum(),
        "geometry.metric_matrix.calls": of("geometry.metric_matrix").sum(),
        "geometry.christoffel_s": dur[of("geometry.christoffel")].sum(),
        "coupled.points": cpoint.sum(),
        "coupled.point.self_s": self_s[cpoint].sum(),
        "flow.rk4_steps": rk4.sum(),
        "flow.integrate_s": dur[integrate].sum(),
        "flow.bisect.rk4_steps": (rk4 & in_bisect).sum(),
        "flow.bisect_s": dur[bisect].sum(),
        "flow.csv_bytes": attr[of("flow.write_trajectory_csv")].sum(),
        "flow.csv_s": dur[of("flow.write_trajectory_csv")].sum(),
        "flow.entropy_check_s": dur[of("flow.entropy_production_check")].sum(),
        "onsager.report_s": dur[of("onsager.empirical_report", "onsager.write_onsager_json")].sum(),
        "cli.parse_s": dur[of("cli.parse_config")].sum(),
        "cli.build_s": dur[of("cli.build_system")].sum(),
    }
    out = {k: float(v) / passes for k, v in per_pass.items()}
    out.update(
        {
            "duality.iters_per_solve.warm": ratio(cov_per_solve[warm].sum(), warm.sum()),
            "duality.iters_per_solve.cold": ratio(cov_per_solve[cold].sum(), cold.sum()),
            "duality.trials_per_solve": ratio(lp_per_solve[newton].sum(), newton.sum()),
            "duality.analytic_share": ratio((solve & ~newton).sum(), solve.sum()),
            "geometry.points_per_sample": ratio(manifold_points, samples),
            "flow.accept_ratio": ratio(accepted, attempted),
        }
    )
    return out
