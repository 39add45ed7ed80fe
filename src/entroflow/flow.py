"""Unit-speed entropy-gradient flow in intrinsic time.

The dynamics is dA/dtau = g_inv . lam / sigma, the unique unit-speed flow
along the entropy gradient; intrinsic time tau is arclength in the
Fisher-Rao metric, so dS/dtau = sigma along the trajectory.  Integration
uses classical fixed-step RK4 with residual-triggered step halving: the
unit-speed residual |g v v - 1| is the natural error signal for this
constrained flow and keeps the integrator auditable.

Equilibrium is a sigma-threshold stop, not a fixed point of the ODE: the
field has unit metric norm everywhere, so the flow reaches the entropy
maximum in finite tau and would overshoot (the direction lam/sigma is
discontinuous across the maximum).  Near the maximum sigma is the tau left
to reach it, to first order, so a step of at most sigma/2 keeps every RK4
stage short of it and halves sigma; the run ends at the first state in
[sigma_eq, 2 sigma_eq], which makes terminal-tau comparisons meaningful.

A trajectory is a curve parametrized by intrinsic time, and ``Trajectory``
stores it that way: one column per quantity (tau, A, lam, S, sigma, speed),
built once from the recorded points when integration ends.  The analyses
and the CSV writer read the columns directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtEquilibriumError,
    DomainError,
    InfeasibleMeanError,
    MonotonicityError,
    NoConvergenceError,
    SingularModelError,
    StepCollapseError,
    TooFewSamplesError,
)
from .geometry import ManifoldPoint, StateManifold, as_manifold, unit_velocity

__all__ = [
    "Trajectory",
    "integrate",
    "entropy_production_check",
    "EntropyProductionReport",
    "clock_invert",
    "write_trajectory_csv",
]

#: A step is halved whenever the post-step unit-speed residual exceeds this.
SPEED_RESIDUAL_TOL = 1e-8

_STEP_ERRORS = (
    AtEquilibriumError,
    InfeasibleMeanError,
    NoConvergenceError,
    SingularModelError,
    DomainError,
)


@dataclass(frozen=True)
class Trajectory:
    """An intrinsic-time trajectory stored as columns, one row per sample.

    ``tau`` has shape (n,); ``A`` and ``lam`` have shape (n, d); ``S``,
    ``sigma`` and ``speed`` (g_{ab} v^a v^b, NaN where sigma is 0) have
    shape (n,).  For a coupled system ``A_prime`` and ``lam_prime`` hold
    subsystem 2's state and force and ``conservation_residual`` the
    per-sample max|A + A' - A_T|; all three are None for a single system.
    """

    tau: np.ndarray
    A: np.ndarray
    lam: np.ndarray
    S: np.ndarray
    sigma: np.ndarray
    speed: np.ndarray
    terminal_status: str  # equilibrium-reached | tau-budget-exhausted | error
    A_prime: np.ndarray | None = None
    lam_prime: np.ndarray | None = None
    conservation_residual: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.tau)


def _speed(pt: ManifoldPoint) -> float:
    v = pt.metric.raise_form(pt.force) / pt.sigma
    return pt.metric.squared_norm_of_vector(v)


def _trajectory(manifold: StateManifold, recorded: list, status: str) -> Trajectory:
    """Columns of the recorded (tau, point) pairs."""
    taus, points = zip(*recorded)
    return Trajectory(
        tau=np.array(taus),
        A=np.array([pt.A for pt in points]),
        S=np.array([pt.S for pt in points]),
        sigma=np.array([pt.sigma for pt in points]),
        speed=np.array([_speed(pt) if pt.sigma > 0.0 else math.nan for pt in points]),
        terminal_status=status,
        **manifold.trajectory_columns(points),
    )


def _rk4_step(manifold: StateManifold, A: np.ndarray, pt: ManifoldPoint, h: float) -> np.ndarray:
    k1 = unit_velocity(pt)
    p2 = manifold.point(A + 0.5 * h * k1, warm=pt.aux)
    k2 = unit_velocity(p2)
    p3 = manifold.point(A + 0.5 * h * k2, warm=p2.aux)
    k3 = unit_velocity(p3)
    p4 = manifold.point(A + h * k3, warm=p3.aux)
    k4 = unit_velocity(p4)
    return A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    system,
    A0,
    *,
    tau_max: float,
    h: float = 1e-3,
    sigma_eq: float = 1e-8,
    record_every: int = 1,
    max_halvings: int = 20,
) -> Trajectory:
    """Integrate the unit-speed entropy-gradient flow from A0.

    Classical RK4 with fixed base step ``h``; a step is halved (at most
    ``max_halvings`` times) whenever a solver error occurs inside the
    stencil, the step crosses the entropy maximum, or the post-step
    unit-speed residual exceeds SPEED_RESIDUAL_TOL.  Steps are capped at
    sigma/2, so near the maximum each step halves sigma.  Terminates with
    status ``equilibrium-reached`` at the first state with sigma at most
    ``2 * sigma_eq``, or ``tau-budget-exhausted`` at ``tau_max``.  Every
    recorded row carries recomputed lam, S and sigma; successive solver
    calls are warm-started from the previous step.
    """
    if tau_max <= 0.0:
        raise ValueError("tau_max must be > 0")
    if h <= 0.0:
        raise ValueError("h must be > 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    manifold = as_manifold(system)
    A = manifold.check_feasible(A0).copy()
    pt = manifold.point(A)
    if pt.sigma < sigma_eq:
        raise AtEquilibriumError(
            f"initial state is already at equilibrium (sigma = {pt.sigma:.3e})"
        )

    recorded = [(0.0, pt)]
    tau = 0.0
    steps = 0

    while True:
        if pt.sigma <= 2.0 * sigma_eq:
            status = "equilibrium-reached"
            break
        remaining = tau_max - tau
        if remaining <= 1e-12 * max(1.0, tau_max):
            status = "tau-budget-exhausted"
            break
        h_try = min(h, remaining, 0.5 * pt.sigma)
        v_here = unit_velocity(pt)
        for _ in range(max_halvings + 1):
            # A step "crosses" equilibrium when the landing sigma falls
            # below threshold, the flow direction reverses (the gradient
            # flips sign across the maximum), the entropy drops, or the
            # step's metric chord collapses relative to h (a step across
            # the maximum and back cancels its stages and barely moves,
            # which none of the pointwise tests can see).
            try:
                A_new = _rk4_step(manifold, A, pt, h_try)
                pt_new = manifold.point(A_new, warm=pt.aux)
                chord = math.sqrt(
                    max(pt.metric.squared_norm_of_vector(A_new - A), 0.0)
                )
                crossed = (
                    pt_new.sigma < sigma_eq
                    or float(unit_velocity(pt_new) @ v_here) < 0.0
                    or pt_new.S < pt.S - 1e-12
                    or abs(chord / h_try - 1.0) > 0.01
                )
            except _STEP_ERRORS:
                crossed = True
            if crossed or abs(_speed(pt_new) - 1.0) > SPEED_RESIDUAL_TOL:
                h_try *= 0.5
                continue
            A, pt = A_new, pt_new
            tau += h_try
            steps += 1
            if steps % record_every == 0:
                recorded.append((tau, pt))
            break
        else:
            raise StepCollapseError(
                f"step collapsed after {max_halvings} halvings at tau = {tau:.6g}",
                trajectory=_trajectory(manifold, recorded, "error"),
            )

    if recorded[-1][0] < tau:
        recorded.append((tau, pt))
    return _trajectory(manifold, recorded, status)


def nonuniform_first_derivative(
    f_prev: float, f_mid: float, f_next: float, h_minus: float, h_plus: float
) -> float:
    """Three-point first derivative at the middle node of an unequal stencil.

    Second-order accurate; reduces to the classical centered difference for
    equal spacing and is exact for quadratics.
    """
    denom = h_minus * h_plus * (h_minus + h_plus)
    return (
        -(h_plus**2) * f_prev
        + (h_plus**2 - h_minus**2) * f_mid
        + h_minus**2 * f_next
    ) / denom


@dataclass(frozen=True)
class EntropyProductionReport:
    """Worst-case deviation between dS/dtau and the recorded sigma."""

    max_residual: float
    argmax_tau: float
    residuals: tuple[float, ...]


def entropy_production_check(traj: Trajectory) -> EntropyProductionReport:
    """Compare centered-difference dS/dtau against sigma at interior samples.

    For default step sizes the maximum residual stays below 1e-4, which is
    the numerical expression of sigma being the entropy production rate.
    """
    if len(traj) < 3:
        raise TooFewSamplesError(
            f"need at least 3 samples, trajectory has {len(traj)}"
        )
    # Python floats: their ** goes through pow(), where numpy arrays would
    # square by multiplying and round differently in the last bit.
    tau, S, sigma = traj.tau.tolist(), traj.S.tolist(), traj.sigma.tolist()
    residuals = [
        abs(
            nonuniform_first_derivative(
                S[k - 1], S[k], S[k + 1], tau[k] - tau[k - 1], tau[k + 1] - tau[k]
            )
            - sigma[k]
        )
        for k in range(1, len(tau) - 1)
    ]
    worst = int(np.argmax(residuals))
    return EntropyProductionReport(
        max_residual=float(residuals[worst]),
        argmax_tau=tau[worst + 1],
        residuals=tuple(residuals),
    )


def clock_invert(traj: Trajectory, alpha: int, value: float) -> float:
    """Read intrinsic time off a strictly monotone state component.

    A component that changes monotonically along the trajectory acts as an
    internal clock: inverting A^alpha(tau) by monotone (linear) interpolation
    recovers tau.  Raises MonotonicityError if the component is not strictly
    monotone over the recorded samples.
    """
    xs, taus = traj.A[:, alpha], traj.tau
    diffs = np.diff(xs)
    if np.all(diffs < 0.0):
        xs, taus = xs[::-1], taus[::-1]
    elif not np.all(diffs > 0.0):
        raise MonotonicityError(
            f"component {alpha} is not strictly monotone along the trajectory"
        )
    lo, hi = xs[0], xs[-1]
    if not lo <= value <= hi:
        raise ValueError(f"value {value} outside the recorded range [{lo}, {hi}]")
    return float(np.interp(value, xs, taus))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, dest) -> None:
    """Write one row per recorded sample at 17 significant digits.

    Single systems use the column layout
    ``tau,A_1..A_n,lambda_1..lambda_n,S,sigma,speed``; coupled systems use
    ``tau,A_1..A_n,Aprime_1..Aprime_n,lambda_1..lambda_n,
    lambdaprime_1..lambdaprime_n,S_T,sigma,conservation_residual``.
    """
    if traj.lam_prime is None:
        columns = [
            ("tau", traj.tau), ("A", traj.A), ("lambda", traj.lam),
            ("S", traj.S), ("sigma", traj.sigma), ("speed", traj.speed),
        ]
    else:
        columns = [
            ("tau", traj.tau), ("A", traj.A), ("Aprime", traj.A_prime),
            ("lambda", traj.lam), ("lambdaprime", traj.lam_prime), ("S_T", traj.S),
            ("sigma", traj.sigma), ("conservation_residual", traj.conservation_residual),
        ]
    header = []
    for name, col in columns:
        header += [f"{name}_{i}" for i in range(1, col.shape[1] + 1)] if col.ndim == 2 else [name]
    table = np.column_stack([col for _, col in columns]).tolist()
    text = "\n".join([",".join(header)] + [",".join(map(_fmt, row)) for row in table]) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", newline="") as fh:
            fh.write(text)
