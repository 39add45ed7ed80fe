"""Transport coefficients of the intrinsic dynamics.

Mapping intrinsic time to an external clock through a caller-supplied rate
dtau/dt turns the flow law into a flux/force relation dA/dt = L . lam with

    L = (dtau/dt) (1/sigma) g_inv.

L inherits the symmetry of the metric, so the reciprocal relations hold by
construction, with no appeal to microscopic reversibility, and the relation
is exact along the whole trajectory rather than only near equilibrium.  The
coefficients are state-dependent: they vary along the trajectory, and are
refused where they diverge, at sigma = 0 or where L overflows.  For a
coupled system the forces are lam - lam' and g is the composite metric, so
the same formulas apply unchanged.

``empirical_report`` fits L to one window of one trajectory; pooling
windows from several trajectories is left to the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AtEquilibriumError, IllConditionedError
from .flow import Trajectory
from .geometry import as_manifold

__all__ = [
    "OnsagerReport",
    "onsager_matrix",
    "empirical_report",
    "write_onsager_json",
]

#: Default number of samples in the regression window.  The dynamics does
#: not single out a window over which L may be treated as constant; five
#: samples is an artifact choice and is flagged in the report.
DEFAULT_WINDOW = 5

CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class OnsagerReport:
    """Analytic transport matrix at a state, optionally with an empirical fit.

    ``asymmetry`` is max |L - L^T|; it is exactly zero for the analytic
    matrix, which is built from the symmetrized g_inv.  ``empirical_L`` is
    the fit of the [first, last] samples in ``window``; both are None alone.
    """

    L: np.ndarray
    asymmetry: float
    empirical_L: np.ndarray | None = None
    window: tuple[int, int] | None = None


def onsager_matrix(system, A, clock_rate: float = 1.0) -> OnsagerReport:
    """L = clock_rate * g_inv / sigma at the state A.

    ``clock_rate`` is dtau/dt, a free rescaling knob (the dynamics fixes the
    trajectory, not the pace of external time).  L diverges as sigma -> 0:
    where sigma = 0, or L overflows, AtEquilibriumError is raised rather
    than infinities returned.
    """
    if not 0.0 < clock_rate < math.inf:
        raise ValueError("clock_rate must be finite and > 0")
    pt = as_manifold(system).point(A)
    with np.errstate(all="ignore"):
        L = clock_rate * pt.g_inv / pt.sigma
    if not np.all(np.isfinite(L)):
        raise AtEquilibriumError(f"sigma = {pt.sigma:.3e}: transport coefficients diverge")
    return OnsagerReport(L=L, asymmetry=float(np.max(np.abs(L - L.T))))


def _window_bounds(traj: Trajectory, center: int | None, window: int) -> tuple[int, int]:
    """The [first, last] samples of the window of ``window`` samples around
    ``center`` (None: the middle row).  ValueError unless the window spans
    n_dim + 2 samples, enough to fit the n_dim x n_dim matrix L, and lies
    inside the trajectory's interior."""
    n_dim = traj.A.shape[1]
    if window < n_dim + 2:
        raise ValueError(f"window must span at least n_dim + 2 = {n_dim + 2} samples")
    if center is None:
        center = len(traj) // 2
    first = center - window // 2
    last = first + window - 1
    # interior samples only: the fluxes need both neighbours
    if first < 1 or last > len(traj) - 2:
        raise ValueError(
            f"window [{first}, {last}] does not fit inside the trajectory interior"
        )
    return first, last


def _derivative(f_prev, f_mid, f_next, h_minus, h_plus):
    """Three-point first derivative at the middle node of an unequal stencil,
    for floats or elementwise for arrays.

    Second-order accurate; reduces to the classical centered difference for
    equal spacing and is exact for quadratics.  The squares are products:
    a Python float's ** goes through pow(), which rounds differently from
    a product about once in a thousand squares, while an array's ** is a
    product, so a float and an array evaluation would differ in the last
    bit.
    """
    denom = h_minus * h_plus * (h_minus + h_plus)
    minus2, plus2 = h_minus * h_minus, h_plus * h_plus
    return (-plus2 * f_prev + (plus2 - minus2) * f_mid + minus2 * f_next) / denom


def _window_rows(
    traj: Trajectory, clock_rate: float, first: int, last: int
) -> tuple[np.ndarray, np.ndarray]:
    """Force and flux rows for interior samples [first, last]."""
    forces = traj.force[first : last + 1]
    states = traj.A[first - 1 : last + 2]
    steps = np.diff(traj.tau[first - 1 : last + 2])[:, None]
    fluxes = clock_rate * _derivative(states[:-2], states[1:-1], states[2:], steps[:-1], steps[1:])
    return forces, fluxes


def _fit(traj: Trajectory, first: int, last: int, clock_rate: float) -> np.ndarray:
    """Solve fluxes ~ forces . L^T on the rows of samples [first, last],
    guarding against degenerate forces.

    Conditioning is measured against the force scale, the largest force row
    norm along the trajectory: sqrt(rows) * scale over the smallest singular
    value of the window's force matrix.  This flags both near-collinear
    force windows and equilibrium tails (forces ~ 0).  The force one-form
    decays parallel to itself (d lam / d tau = -lam / sigma), so for
    n_dim >= 2 the window is rank one and raises IllConditionedError.
    """
    forces, fluxes = _window_rows(traj, clock_rate, first, last)
    scale = float(np.max(np.linalg.norm(traj.force, axis=1)))
    smallest = float(np.min(np.linalg.svd(forces, compute_uv=False)))
    reference = scale * math.sqrt(forces.shape[0])
    condition = np.inf if smallest == 0.0 else reference / smallest
    if condition > CONDITION_LIMIT:
        raise IllConditionedError(
            f"force matrix condition {condition:.3e} exceeds {CONDITION_LIMIT:.1e} "
            "within the window"
        )
    solution, *_ = np.linalg.lstsq(forces, fluxes, rcond=None)
    return solution.T


def empirical_report(
    system,
    traj: Trajectory,
    clock_rate: float = 1.0,
    *,
    center: int | None = None,
    window: int = DEFAULT_WINDOW,
) -> OnsagerReport:
    """Analytic L at the window center combined with the empirical fit."""
    first, last = _window_bounds(traj, center, window)
    analytic = onsager_matrix(system, traj.A[(first + last) // 2], clock_rate)
    return replace(analytic, empirical_L=_fit(traj, first, last, clock_rate),
                   window=(first, last))


def write_onsager_json(report: OnsagerReport, dest) -> None:
    doc = {
        "L": report.L.tolist(),
        "asymmetry": float(report.asymmetry),
        "empirical_L": None if report.empirical_L is None else report.empirical_L.tolist(),
        "window": None if report.window is None else list(report.window),
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)
