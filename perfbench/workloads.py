"""Seeded inputs for each workload: scenario configs plus their expected answers.

Every config is written into a scratch directory; the program sees only these
files.  The same seed gives byte-identical configs.  Generation is not part of
any timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import (
    ProbeExpectation,
    RunExpectation,
    TabulatedOracle,
    gauss_legendre,
    probe_expectation,
)

#: Copies of the five shipped scenarios, so the benchmark stays fixed when the
#: shipped files change.  The order is the order of the ops in one pass.
CATALOG = {
    "bernoulli-relax": {
        "mode": "single",
        "family": {"closed_form": "bernoulli"},
        "A0": [0.25],
        "integrator": {"tau_max": 2.0},
        "analyses": [{"kind": "entropy_production_check"}],
    },
    "bernoulli-coupled": {
        "mode": "coupled",
        "families": [{"closed_form": "bernoulli"}, {"closed_form": "bernoulli"}],
        "A0": [0.25],
        "A_total": [1.0],
        "integrator": {"tau_max": 2.0},
    },
    "gaussian-mean": {
        "mode": "single",
        "family": {"closed_form": "gaussian-mean"},
        "A0": [-2.0],
        "integrator": {"tau_max": 3.0},
        "analyses": [{"kind": "entropy_production_check"}],
    },
    "two-vessel-gas-EN": {
        "mode": "coupled",
        "families": [
            {"closed_form": "ideal-gas", "volume": 1.0},
            {"closed_form": "ideal-gas", "volume": 1.0},
        ],
        "A0": [1.0, 0.5],
        "A_total": [4.0, 2.0],
        "integrator": {"tau_max": 10.0},
        "analyses": [{"kind": "entropy_production_check"}],
    },
    "two-vessel-gas-E-only": {
        "mode": "coupled",
        "families": [
            {"closed_form": "ideal-gas", "volume": 1.0, "fixed_n": 1.0},
            {"closed_form": "ideal-gas", "volume": 1.0, "fixed_n": 1.0},
        ],
        "A0": [1.0],
        "A_total": [4.0],
        "integrator": {"tau_max": 6.0},
        "analyses": [{"kind": "onsager", "clock_rate": 1.0}],
    },
}

# Ideal gas at V = N = 1 and E = 2: S = 1.5 ln 2 + 5/2 per vessel.
_GAS_S = 2.0 * (1.5 * math.log(2.0) + 2.5)

CATALOG_EXPECTED = {
    # Bernoulli: g = 1 / (A (1 - A)), so tau = 2 arcsin sqrt(A) from 1/4 to 1/2.
    "bernoulli-relax": RunExpectation(math.pi / 6, (0.5,), math.log(2.0), entropy_check=True),
    # Two equal Bernoulli halves of A_total = 1: the metric doubles.
    "bernoulli-coupled": RunExpectation(
        math.sqrt(2.0) * math.pi / 6, (0.5,), 2.0 * math.log(2.0)
    ),
    # Flat metric: tau is the Euclidean distance; S(0) = ln(2 pi) / 2.
    "gaussian-mean": RunExpectation(2.0, (0.0,), 0.5 * math.log(2.0 * math.pi), entropy_check=True),
    # Both vessels start at E/N = 2, so the flow stays on E = 2N and the metric
    # along (2, 1) is 1/N + 1/(2 - N); with N = 2u that is the doubled
    # Bernoulli integral from u = 1/4 to 1/2.
    "two-vessel-gas-EN": RunExpectation(
        math.sqrt(2.0) * math.pi / 6, (2.0, 1.0), _GAS_S, entropy_check=True
    ),
    # Heat only: g(E) = 1.5 / E^2 + 1.5 / (4 - E)^2 from E = 1 to 2.
    "two-vessel-gas-E-only": RunExpectation(
        gauss_legendre(lambda e: np.sqrt(1.5 * (e**-2 + (4.0 - e) ** -2)), 1.0, 2.0),
        (2.0,),
        _GAS_S,
        onsager=True,
    ),
}

#: Shapes of the ``tabulated`` workload: name -> (n_dim, n_points).
TABULATED_SHAPES = {"tab-3x50": (3, 50), "tab-3x5000": (3, 5000)}
#: Seeded tables per shape, one op each.  Table k starts at the mean at
#: lam0 = c u, with u a seeded unit vector and c chosen so that the flow
#: reaches equilibrium at tau = TABULATED_TAU - (k + 1/2) STEP / TABLES_PER_SHAPE:
#: the equilibrium lies (k + 1/2) / TABLES_PER_SHAPE of the way through the
#: final RK4 step.  That position sets the equilibrium bisection's work: on
#: 3x50 tables it ranges from about 200 to about 1000 RK4 trials, and at a
#: given position it is the same on most seeded tables.  Evenly spaced
#: positions give every seed nearly the same mix of work, and a fixed tau
#: fixes the number of steps.
TABLES_PER_SHAPE = 2
TABULATED_TAU = 0.25
STEP = 1e-3
#: Shapes, families per shape and points per family of the ``probe`` workload.
#: Several seeded families and points per shape keep the work of a pass
#: nearly the same from seed to seed.
PROBE_SHAPES = {"3x50": (3, 50), "8x200": (8, 200)}
PROBE_FAMILIES = 4
PROBE_POINTS = 8
#: Tail percentile of the ``probe`` workload.  A p99 varied by more than half
#: its median from run to run on a shared 2-CPU host.
PROBE_TAIL = 90.0


@dataclass
class Op:
    """One call of the command line, with what its outputs must show.

    ``runs`` maps scenario name to expected answer for every scenario the
    call integrates; ``probe`` is set for a probe call instead.  Ops of one
    ``group`` are reported together (default: the op's own name).
    """

    name: str
    argv: list[str]
    out_dir: Path | None = None
    runs: dict[str, RunExpectation] = field(default_factory=dict)
    probe: ProbeExpectation | None = None
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.name


@dataclass
class Workload:
    """Ops of one pass, the configs they read, and the percentile of op
    times reported as the tail (None: the median time of the slowest op)."""

    ops: list[Op]
    configs: list[Path]
    tail: float | None = None


def tau_scale(oracle: TabulatedOracle, u: np.ndarray, tau: float) -> float:
    """c such that the flow from mean(c u) reaches equilibrium at ``tau``.

    tau(c) = int_0^c sqrt(u . Cov(t u) . u) dt, so Newton's method has the
    exact derivative.
    """
    c = tau
    for _ in range(50):
        step = (oracle.ray_tau(c * u) - tau) / np.sqrt(u @ oracle.covariance(c * u) @ u)
        c -= step
        if abs(step) < 1e-14 * c:
            return c
    raise RuntimeError(f"no natural-parameter scale gives tau = {tau}")


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def random_table(rng: np.random.Generator, n_dim: int, n_points: int) -> dict:
    """Inline tabulated family: N(0, 1) statistics and weights in [0.5, 2]."""
    return {
        "points": [f"x{i}" for i in range(n_points)],
        "weights": rng.uniform(0.5, 2.0, n_points).tolist(),
        "stats": rng.standard_normal((n_dim, n_points)).tolist(),
    }


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def catalog(tmp: Path, seed: int) -> Workload:
    configs = [_write(tmp / f"{name}.json", {"name": name, **doc}) for name, doc in CATALOG.items()]
    ops = [
        Op(
            cfg.stem,
            ["run", str(cfg), "--output-dir", str(tmp / "out" / cfg.stem)],
            tmp / "out" / cfg.stem,
            {cfg.stem: CATALOG_EXPECTED[cfg.stem]},
        )
        for cfg in configs
    ]
    return Workload(ops, configs)


def tabulated(tmp: Path, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops, configs = [], []
    for shape, (n_dim, n_points) in TABULATED_SHAPES.items():
        for k in range(TABLES_PER_SHAPE):
            table = random_table(rng, n_dim, n_points)
            oracle = TabulatedOracle(table["weights"], table["stats"])
            u = unit_vector(rng, n_dim)
            tau = TABULATED_TAU - (k + 0.5) * STEP / TABLES_PER_SHAPE
            lam0 = tau_scale(oracle, u, tau) * u
            A_eq, S_eq = oracle.equilibrium()
            name = f"{shape}-{k}"
            cfg = _write(
                tmp / f"{name}.json",
                {
                    "name": name,
                    "mode": "single",
                    "family": table,
                    "A0": oracle.mean(lam0).tolist(),
                    "integrator": {"tau_max": 10.0, "h": STEP},
                    "analyses": [{"kind": "entropy_production_check"}],
                },
            )
            expected = RunExpectation(oracle.ray_tau(lam0), tuple(A_eq), S_eq, entropy_check=True)
            out = tmp / "out" / name
            argv = ["run", str(cfg), "--output-dir", str(out)]
            ops.append(Op(name, argv, out, {name: expected}, group=shape))
            configs.append(cfg)
    return Workload(ops, configs)


def probe(tmp: Path, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops, configs = [], []
    for shape, (n_dim, n_points) in PROBE_SHAPES.items():
        for f in range(PROBE_FAMILIES):
            table = random_table(rng, n_dim, n_points)
            oracle = TabulatedOracle(table["weights"], table["stats"])
            # Interior points: natural parameters of norm 0.2 to 1 in a random direction.
            lams = [unit_vector(rng, n_dim) * rng.uniform(0.2, 1.0) for _ in range(PROBE_POINTS)]
            expected = [probe_expectation(oracle, lam) for lam in lams]
            name = f"probe-{shape}-{f}"
            cfg = _write(
                tmp / f"{name}.json",
                {
                    "name": name,
                    "mode": "single",
                    "family": table,
                    "A0": list(expected[0].point),
                    "integrator": {"tau_max": 10.0},
                },
            )
            configs.append(cfg)
            for k, exp in enumerate(expected):
                # Positional notation: the CLI's parser takes "-4e-05" for an option.
                point = (np.format_float_positional(x, unique=True, trim="0") for x in exp.point)
                argv = ["probe", str(cfg), "--point", *point]
                ops.append(Op(f"{name}-{k}", argv, probe=exp))
    return Workload(ops, configs, PROBE_TAIL)


WORKLOADS = {
    "catalog": catalog,
    "tabulated": tabulated,
    "probe": probe,
}
