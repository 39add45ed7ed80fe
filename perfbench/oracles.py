"""Answers the benchmark checks entroflow's outputs against.

Nothing here imports entroflow.  The expected values come from closed forms
and from plain-numpy quadrature, using the dually-flat fact that along the
entropy-gradient flow the force decays parallel to itself,
d lam / d tau = -lam / sigma (Amari & Nagaoka, *Methods of Information
Geometry*).  A single-family trajectory is therefore the image of the
segment lam(s) = (1 - s) lam0, and the terminal intrinsic time is the 1-D
integral tau_eq = int_0^1 sqrt(lam0 . Cov(s lam0) . lam0) ds.

The tolerances are absolute after scaling by the size of the expected value.
They sit well above what a correct solver reaches (the RK4 integrator halts
about 1e-8 short of the exact arclength, because it stops at the sigma
threshold) and well below the perturbations the benchmark's tests show they
reject (tau off by 1e-5, a Christoffel symbol with a flipped sign).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Terminal tau, A and S, relative to max(1, max |expected|).
TAU_TOL = 1e-6
STATE_TOL = 1e-6
#: Largest admissible |dS/dtau - sigma| reported by entropy_production_check.
ENTROPY_RESIDUAL_MAX = 1e-4
#: Probe outputs, relative to the largest entry of the expected array.
PROBE_TOL = 1e-9
#: The connection is a central difference of the metric (step 1e-5), so its
#: error is larger than that of the pointwise quantities.
GAMMA_TOL = 1e-5

GL_NODES = 64


def gauss_legendre(f, a: float, b: float, nodes: int = GL_NODES) -> float:
    """int_a^b f(x) dx by Gauss-Legendre quadrature; ``f`` takes an array."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    return float(half * np.sum(w * f(half * x + 0.5 * (a + b))))


class TabulatedOracle:
    """p(x | lam) proportional to w(x) exp(-lam . a(x)) over a finite table."""

    def __init__(self, weights, stats):
        self.log_w = np.log(np.asarray(weights, dtype=float))
        self.stats = np.asarray(stats, dtype=float)

    def probabilities(self, lam) -> np.ndarray:
        terms = self.log_w - np.asarray(lam, dtype=float) @ self.stats
        p = np.exp(terms - terms.max())
        return p / p.sum()

    def mean(self, lam) -> np.ndarray:
        return self.stats @ self.probabilities(lam)

    def _centered(self, lam):
        p = self.probabilities(lam)
        return p, self.stats - (self.stats @ p)[:, None]

    def covariance(self, lam) -> np.ndarray:
        p, c = self._centered(lam)
        return (c * p) @ c.T

    def third_cumulant(self, lam) -> np.ndarray:
        p, c = self._centered(lam)
        return np.einsum("x,ax,bx,cx->abc", p, c, c, c)

    def ray_tau(self, lam0) -> float:
        """Terminal intrinsic time of the flow that starts at mean(lam0)."""
        lam0 = np.asarray(lam0, dtype=float)

        def speed(s):
            return np.array([math.sqrt(lam0 @ self.covariance(si * lam0) @ lam0) for si in s])

        return gauss_legendre(speed, 0.0, 1.0)

    def equilibrium(self) -> tuple[np.ndarray, float]:
        """Terminal A (the mean at lam = 0) and S (log of the total weight)."""
        zero = np.zeros(self.stats.shape[0])
        return self.mean(zero), float(np.logaddexp.reduce(self.log_w))


@dataclass(frozen=True)
class RunExpectation:
    """What one scenario's artifacts must show."""

    tau: float
    A: tuple[float, ...]
    S: float
    entropy_check: bool = False
    onsager: bool = False


@dataclass(frozen=True)
class ProbeExpectation:
    """Local geometry at a tabulated-family point with known lam."""

    point: tuple[float, ...]
    lam: np.ndarray
    sigma: float
    metric: np.ndarray
    gamma: np.ndarray


def probe_expectation(oracle: TabulatedOracle, lam) -> ProbeExpectation:
    """Metric = inverse covariance, Gamma^a_bc = -1/2 k3_ajk g_jb g_kc.

    In mean coordinates g = -Hess S is a Hessian metric, so the Levi-Civita
    symbols of the first kind are half its derivative.  With dlam/dA = -g
    and d Cov / d lam = -k3 (the third cumulant) that gives the formula.
    """
    lam = np.asarray(lam, dtype=float)
    cov = oracle.covariance(lam)
    g = np.linalg.inv(cov)
    g = 0.5 * (g + g.T)
    gamma = -0.5 * np.einsum("ajk,jb,kc->abc", oracle.third_cumulant(lam), g, g)
    return ProbeExpectation(
        point=tuple(float(x) for x in oracle.mean(lam)),
        lam=lam,
        sigma=math.sqrt(lam @ cov @ lam),
        metric=g,
        gamma=gamma,
    )


def _off(name: str, got, want, tol: float, floor: float = 1.0) -> list[str]:
    """Error if max |got - want| exceeds tol * max(floor, max |want|)."""
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        return [f"{name}: not a numeric array"]
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not want.size:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = max(floor, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want)))
    if not err <= tol * scale:
        return [f"{name}: off by {err:.3e} (tolerance {tol * scale:.1e})"]
    return []


def check_run(exp: RunExpectation, summary_text: str, csv_text: str, onsager_text) -> list[str]:
    """Errors in one scenario's summary JSON, trajectory CSV and Onsager JSON."""
    try:
        summary = json.loads(summary_text)
    except json.JSONDecodeError as exc:
        return [f"summary is not JSON: {exc}"]
    errors = []
    if summary.get("terminal_status") != "equilibrium-reached":
        errors.append(f"terminal_status {summary.get('terminal_status')!r}")
    errors += _off("terminal_tau", summary.get("terminal_tau", math.nan), exp.tau, TAU_TOL)
    errors += _off("terminal_A", summary.get("terminal_A", []), exp.A, STATE_TOL)
    errors += _off("terminal_S", summary.get("terminal_S", math.nan), exp.S, STATE_TOL)
    if exp.entropy_check:
        check = summary.get("analyses", {}).get("entropy_production_check", {})
        residual = check.get("max_residual", math.inf)
        if not residual <= ENTROPY_RESIDUAL_MAX:
            errors.append(f"entropy production residual {residual!r} > {ENTROPY_RESIDUAL_MAX}")
    if exp.onsager:
        try:
            asymmetry = json.loads(onsager_text)["asymmetry"]
        except (TypeError, KeyError, json.JSONDecodeError):
            asymmetry = None
        if asymmetry != 0.0:
            errors.append(f"Onsager asymmetry {asymmetry!r}, expected 0")
    rows = csv_text.strip().splitlines()
    try:
        last_tau = float(rows[-1].split(",")[0])
    except (IndexError, ValueError):
        last_tau = math.nan
    if len(rows) < 3 or last_tau != summary.get("terminal_tau"):
        errors.append("trajectory CSV does not end at the terminal tau")
    return errors


def parse_probe(text: str) -> dict:
    """Read the point, lambda, sigma, metric rows and Gamma rows printed by probe."""
    values: dict = {"g": {}, "Gamma": {}}
    for line in text.splitlines():
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        nums = [float(x) for x in rhs.strip("[]").split(",")] if rhs.startswith("[") else float(rhs)
        if key in ("point", "lambda", "sigma"):
            values[key] = nums
        elif key.startswith("g["):
            values["g"][int(key[2:-1])] = nums
        elif key.startswith("Gamma["):
            a, b = key[len("Gamma["):-1].split("][")
            values["Gamma"][(int(a), int(b))] = nums
    n = len(values.get("point", []))
    values["g"] = [values["g"][i] for i in range(n)]
    values["Gamma"] = [[values["Gamma"][(a, b)] for b in range(n)] for a in range(n)]
    return values


def check_probe(exp: ProbeExpectation, text: str) -> list[str]:
    """Errors in the text printed by one probe call."""
    try:
        got = parse_probe(text)
    except (KeyError, ValueError) as exc:
        return [f"probe output unreadable: {exc!r}"]
    if "lambda" not in got or "sigma" not in got:
        return ["probe output lacks lambda or sigma"]
    return (
        _off("point", got["point"], exp.point, PROBE_TOL, floor=0.0)
        + _off("lambda", got["lambda"], exp.lam, PROBE_TOL, floor=0.0)
        + _off("sigma", got["sigma"], exp.sigma, PROBE_TOL, floor=0.0)
        + _off("metric", got["g"], exp.metric, PROBE_TOL, floor=0.0)
        + _off("Christoffel", got["Gamma"], exp.gamma, GAMMA_TOL, floor=0.0)
    )
