"""Unit-speed entropy-gradient flow in intrinsic time.

The dynamics is dA/dtau = g_inv . lam / sigma, the unique unit-speed flow
along the entropy gradient; intrinsic time tau is arclength in the
Fisher-Rao metric, so dS/dtau = sigma along the trajectory.

In mean coordinates g = -Hess S is dually flat, so dlam/dtau = -lam / sigma:
the force decays parallel to itself.  A single family's trajectory is
therefore exactly the image of the segment lam(s) = (1 - s) lam0, s in
[0, 1], and tau(s) is the integral of the arclength rate
f(s) = (lam0 . Cov(lam(s)) . lam0)^(1/2).  ``integrate`` samples that ray:
it finds the s of each recorded tau by Newton's method on an adaptive
Gauss-Lobatto quadrature of f, builds each row from the forward maps
(mean, covariance, log Z) at lam(s), and ends at s = 1, the entropy
maximum lam = 0, at its exact tau.  Near the maximum the rows go on with
sigma halving from row to row down to 2 sigma_eq, as in an RK4 run.  No
Legendre inversion and no ODE step is made after the start.

Any other state manifold (a coupled pair, a reparametrized chart, or the
ideal gas, whose entropy has no maximum for the ray to end at) is
integrated by classical fixed-step RK4 with residual-triggered step
halving: the unit-speed residual |g v v - 1| is the natural error signal
for this constrained flow and keeps the integrator auditable.  There
equilibrium is a sigma-threshold stop, not a fixed point of the ODE: the
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
from .family import ExponentialFamily
from .geometry import (
    FamilyManifold,
    ManifoldPoint,
    StateManifold,
    as_manifold,
    unit_velocity,
)

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

#: A quadrature panel of the ray is bisected until its 4-point Gauss-Lobatto
#: and 3-point Simpson values agree to this times the whole integral.
#: Simpson's error is O(width^5) per panel against Lobatto's O(width^7), so
#: the accepted Lobatto values are exact to about 1e-16 where f is smooth.
RAY_QUAD_TOL = 1e-11
#: Most panels one arclength integral of the ray may take.
_RAY_PANELS = 1000
_RAY_NEWTON_ITERS = 100
#: Interior Gauss-Lobatto nodes on [-1, 1]; the endpoint weights are 1/6
#: and the interior ones 5/6.
_LOBATTO_NODE = 1.0 / math.sqrt(5.0)

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
    ``sigma`` and ``speed`` (g_{ab} v^a v^b of the unit velocity v, which
    at the maximum that ends a single family's run is its limit along the
    ray) have shape (n,).  For a coupled
    system ``A_prime`` and ``lam_prime`` hold subsystem 2's state and force
    and ``conservation_residual`` the per-sample max|A + A' - A_T|; all
    three are None for a single system.
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


def _trajectory(
    manifold: StateManifold, recorded: list, status: str, end_speed: float = math.nan
) -> Trajectory:
    """Columns of the recorded (tau, point) pairs; ``end_speed`` is the speed
    at a point with sigma = 0, where g_inv . lam / sigma is undefined."""
    taus, points = zip(*recorded)
    return Trajectory(
        tau=np.array(taus),
        A=np.array([pt.A for pt in points]),
        S=np.array([pt.S for pt in points]),
        sigma=np.array([pt.sigma for pt in points]),
        speed=np.array([_speed(pt) if pt.sigma > 0.0 else end_speed for pt in points]),
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


def _on_ray(lam0: np.ndarray, t: float) -> np.ndarray:
    return t * lam0 + 0.0  # + 0.0 turns -0.0 into 0.0 at t = 0


def _ray_rate(family: ExponentialFamily, lam0: np.ndarray, t: float) -> tuple[float, np.ndarray]:
    """The arclength rate f = (lam0 . Cov . lam0)^(1/2) and Cov at t lam0."""
    cov = family.covariance(_on_ray(lam0, t))
    f = math.sqrt(max(float(lam0 @ cov @ lam0), 0.0))
    if not math.isfinite(f):
        raise SingularModelError(f"covariance is not finite at {t:.3g} lam0")
    return f, cov


def _ray_point(manifold: FamilyManifold, lam0: np.ndarray, t: float, cov: np.ndarray) -> ManifoldPoint:
    """The point at lam = t lam0, given the covariance there."""
    lam = _on_ray(lam0, t)
    return manifold.forward_point(manifold.family.mean_parameters(lam), lam, cov)


def _ray_arclength(family, lam0, a: float, b: float, fa: float, fb: float) -> float:
    """The integral of f over [a, b], from f at both ends.

    A panel's 4-point Gauss-Lobatto value is accepted once Simpson's rule
    on the same panel agrees with it to RAY_QUAD_TOL times the first
    estimate of the whole integral; otherwise the panel is bisected.  The
    tolerance does not shrink with the panel, so rounding noise in f (as
    in a table whose statistics carry a large offset) stops the bisection
    after about log2(noise / RAY_QUAD_TOL) levels.  Needing more than
    _RAY_PANELS panels raises StepCollapseError.
    """
    total, tol, panels = 0.0, None, [(a, b, fa, fb)]
    for _ in range(_RAY_PANELS):
        a, b, fa, fb = panels.pop()
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        off = half * _LOBATTO_NODE
        fm = _ray_rate(family, lam0, mid)[0]
        inner = _ray_rate(family, lam0, mid - off)[0] + _ray_rate(family, lam0, mid + off)[0]
        lobatto = half * ((fa + fb) / 6.0 + inner * (5.0 / 6.0))
        simpson = half * (fa + 4.0 * fm + fb) / 3.0
        if tol is None:
            tol = RAY_QUAD_TOL * lobatto
        if abs(lobatto - simpson) > tol:
            panels += [(a, mid, fa, fm), (mid, b, fm, fb)]
            continue
        total += lobatto
        if not panels:
            return total
    raise StepCollapseError(
        f"the arclength of the ray near {a:.6g} lam0 does not converge in "
        f"{_RAY_PANELS} panels"
    )


def _has_maximum(family: ExponentialFamily) -> bool:
    """Whether lam = 0, the entropy maximum every ray ends at, lies in the
    natural domain; the ideal gas's does not, and its entropy is unbounded."""
    try:
        family.check_natural_domain(np.zeros(family.n_dim))
    except DomainError:
        return False
    return True


def _ray_trajectory(
    manifold: FamilyManifold, recorded: list, tau_max: float, spacing: float, sigma_eq: float
) -> Trajectory:
    """Sample the flow from the one recorded (0, start) on the ray
    lam(s) = (1 - s) lam0, appending to ``recorded``.

    The ray is walked in the scale t = 1 - s of the force, lam = t lam0,
    which keeps full relative precision near the maximum.  Rows sit at
    tau = k * spacing.  The run ends at ``tau_max``, or, if that comes
    later, at t = 0 (lam = 0, the entropy maximum, sigma = 0) at its exact
    tau, after the rows of ``_ray_landing``.
    """
    family, lam0 = manifold.family, recorded[0][1].force
    # The last row sits at t_a and is recorded at tau_a; off_a is its true
    # tau minus tau_a.  Residuals are sums of these small differences, so
    # rounding does not pile up over the rows.  f_a is the rate at t_a (sigma
    # at the start) and slope estimates df/ds for the predictor.
    t_a, tau_a, off_a, f_a, slope = 1.0, 0.0, 0.0, recorded[0][1].sigma, 0.0
    k = 1
    while True:
        target = k * spacing
        if target >= tau_max - 0.5 * spacing:
            target = tau_max
        # Newton's method on tau(t) = target, from the root of the quadratic
        # Taylor model of tau about t_a, safeguarded by bisection: tau(hi) <
        # target <= tau(lo) once lo is known.
        gap = (target - tau_a) - off_a
        disc = f_a * f_a + 2.0 * slope * gap
        t = t_a - (2.0 * gap / (f_a + math.sqrt(disc)) if disc > 0.0 else gap / f_a)
        lo, hi, t_new = None, t_a, None
        for _ in range(_RAY_NEWTON_ITERS):
            if lo is None:
                t = max(t, 0.0)  # a step past the maximum tries the maximum
            elif not lo < t < hi:
                t = 0.5 * (lo + hi)
            if not t < t_a:
                break  # the step is below the resolution of t
            f_t, cov_t = _ray_rate(family, lam0, t)
            beyond = off_a + _ray_arclength(family, lam0, t, t_a, f_t, f_a)  # tau(t) - tau_a
            residual = (tau_a - target) + beyond
            if t == 0.0 and residual <= 0.0:
                return _ray_landing(manifold, recorded, t_a, tau_a + off_a, f_a, sigma_eq)
            if residual > 0.0:
                lo = t
            else:
                hi = t
            step = residual / f_t  # dtau/dt = -f
            # Taking the step leaves an error of about |f'| step^2 / 2.
            error = 0.5 * abs(f_t - f_a) / (t_a - t) * step * step
            if error <= 1e-16 * target and 0.0 < t + step < t_a:
                t_new = t + step
                break
            t += step
        if t_new is None:
            raise StepCollapseError(f"no point of the ray resolves tau = {target:.6g}")
        f_new, cov_new = _ray_rate(family, lam0, t_new)
        if t_new * f_new <= 2.0 * sigma_eq and target < tau_max:
            return _ray_landing(manifold, recorded, t_a, tau_a + off_a, f_a, sigma_eq)
        recorded.append((target, _ray_point(manifold, lam0, t_new, cov_new)))
        slope = (f_new - f_a) / (t_a - t_new)
        # t_new - t is exact in floats, so this keeps the rounding of t_new
        t_a, tau_a, off_a, f_a = t_new, target, residual - f_t * (t_new - t), f_new
        if target == tau_max:
            return _trajectory(manifold, recorded, "tau-budget-exhausted")
        k += 1


def _ray_landing(
    manifold: FamilyManifold, recorded: list, t: float, tau: float, f: float, sigma_eq: float
) -> Trajectory:
    """End the rows at the maximum t = 0, from the last row, at t with rate
    f and true intrinsic time ``tau``, when the next grid row lies beyond
    the maximum or has sigma at most 2 ``sigma_eq``.

    Like an RK4 run, whose step near the maximum is sigma/2, rows go on
    while sigma = t f exceeds 2 ``sigma_eq``, t (and with it sigma and the
    tau left) halving from row to row, and the maximum takes the place of
    the first row at or below 2 ``sigma_eq``.  So a start near the maximum
    still records rows for the analyses, and no interval is much shorter
    than ``sigma_eq``, over which a difference in S would be lost to
    rounding.
    """
    family, lam0 = manifold.family, recorded[0][1].force
    while True:
        t_next = 0.5 * t
        f_next, cov = _ray_rate(family, lam0, t_next)
        tau += _ray_arclength(family, lam0, t_next, t, f_next, f)
        t, f = t_next, f_next
        if t * f <= 2.0 * sigma_eq:
            break
        recorded.append((tau, _ray_point(manifold, lam0, t, cov)))
    f_end, cov = _ray_rate(family, lam0, 0.0)
    tau += _ray_arclength(family, lam0, 0.0, t, f_end, f)
    end = _ray_point(manifold, lam0, 0.0, cov)
    recorded.append((tau, end))
    # the velocity dA/dtau = Cov . lam0 / f stays defined at the maximum
    speed = end.metric.squared_norm_of_vector(cov @ lam0 / f_end)
    return _trajectory(manifold, recorded, "equilibrium-reached", end_speed=speed)


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

    Raises AtEquilibriumError when the start has sigma below ``sigma_eq``.

    A single family (``as_manifold(system)`` is a ``FamilyManifold``) whose
    natural domain holds lam = 0 is sampled on the exact ray
    lam(s) = (1 - s) lam0: rows at tau = k * h * ``record_every``, built
    from the forward maps, after one Legendre inversion at A0.  Where the
    next such row would lie past the entropy maximum or have sigma at most
    ``2 * sigma_eq``, rows go on with sigma halving while it exceeds
    ``2 * sigma_eq``.  The run ends with status ``equilibrium-reached`` at
    the maximum itself (sigma = 0, at its exact tau), or
    ``tau-budget-exhausted`` at ``tau_max``.

    Any other manifold (a composite, a chart, the ideal gas, whose entropy
    has no maximum) is integrated by classical RK4 with fixed base step
    ``h``; a step is halved (at most ``max_halvings`` times) whenever a
    solver error occurs inside the stencil, the step crosses the entropy
    maximum, or the post-step unit-speed residual exceeds
    SPEED_RESIDUAL_TOL.  Steps are capped at sigma/2, so near the maximum
    each step halves sigma.  Terminates with status ``equilibrium-reached``
    at the first state with sigma at most ``2 * sigma_eq``, or
    ``tau-budget-exhausted`` at ``tau_max``.  Every ``record_every``-th
    step is recorded with recomputed lam, S and sigma; successive solver
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
    if isinstance(manifold, FamilyManifold) and _has_maximum(manifold.family):
        recorded = [(0.0, pt)]
        try:
            return _ray_trajectory(manifold, recorded, tau_max, h * record_every, sigma_eq)
        except StepCollapseError as exc:
            raise StepCollapseError(
                str(exc), trajectory=_trajectory(manifold, recorded, "error")
            ) from None

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
