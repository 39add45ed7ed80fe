"""Unit-speed entropy-gradient flow in intrinsic time.

The dynamics is dA/dtau = g_inv . lam / sigma, the unique unit-speed flow
along the entropy gradient; intrinsic time tau is arclength in the
Fisher-Rao metric, so dS/dtau = sigma along the trajectory.

In mean coordinates g = -Hess S is dually flat, so dlam/dtau = -lam / sigma:
the force decays parallel to itself.  A single family's trajectory is
therefore the ray lam = t lam0, t from 1 down to 0, and tau(t) is the fixed
integral from t to 1 of the arclength rate f = (lam0 . Cov(t lam0) . lam0)^(1/2),
the standard deviation of the projected statistic lam0 . a.  So the rows
need no sequential walk: ``integrate`` builds one table of tau(t) from
adaptive Gauss-Lobatto panels of the family's batched ``ray_rate`` kernel,
places the t of every row at once against it, and forms A, S and the
metric of all rows in one call of the family's batched ``ray_states``.
The run ends at t = 0, the maximum lam = 0, at its exact tau; near it the
rows go on with sigma halving down to 2 sigma_eq.

A coupled pair has a Hessian metric too, g_T = g + g', and its force
F(A) = lam(A) - lam'(A_T - A) has dF/dA = -g_T, so its trajectory is the
curve F(A) = t F0, t from 1 down to 0, and tau(t) is again a fixed
integral, of f = (F0 . g_T^-1 . F0)^(1/2).  ``integrate`` runs it through
the same table, placement and landing; the pair's kernels solve each node
in subsystem 1's natural parameter by a batched Newton iteration on the
families' forward maps (see ``coupled``).

Any other state manifold (a reparametrized chart, or the ideal gas, whose
entropy has no maximum for the ray to end at) is integrated by classical
fixed-step RK4, halving a step whose unit-speed residual |g v v - 1|, the
natural error signal of this constrained flow, is too large.  There
equilibrium is a sigma-threshold stop, not a fixed point of the ODE: the
field has unit metric norm everywhere, so the flow reaches the maximum in
finite tau and would overshoot it (lam/sigma is discontinuous across it).
Near it sigma is the tau left to first order, so steps of at most sigma/2
halve sigma, and the run ends at the first state in [sigma_eq, 2 sigma_eq],
which makes terminal-tau comparisons meaningful.

A trajectory is a curve parametrized by intrinsic time, and ``Trajectory``
stores it that way, one column per quantity (tau, A, lam, S, sigma, speed),
which the analyses and the CSV writer read directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtEquilibriumError, DomainError, InfeasibleMeanError, MonotonicityError,
    NoConvergenceError, SingularModelError, StepCollapseError, TooFewSamplesError,
)
from .coupled import CompositeSystem, PairRay
from .family import ExponentialFamily
from .geometry import (
    FamilyManifold, ManifoldPoint, StateManifold, _check_spd, as_manifold, unit_velocity,
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
#: Most panels one arclength integral of the ray may take: a gas pair with
#: 1e-12 of the energy in one vessel takes 1,271.
_RAY_PANELS = 4000
#: Equal panels the table of tau starts from: from one, Simpson's rule missed
#: Lobatto's errors of 1e-15 on two panels of width 1/16 of the Bernoulli ray.
_RAY_START_PANELS = 32
_RAY_NEWTON_ITERS = 100
#: Interior Gauss-Lobatto nodes on [-1, 1] (weights 5/6; the ends have 1/6).
_LOBATTO_NODE = 1.0 / math.sqrt(5.0)

_STEP_ERRORS = (
    AtEquilibriumError, InfeasibleMeanError, NoConvergenceError, SingularModelError, DomainError,
)


@dataclass(frozen=True)
class Trajectory:
    """An intrinsic-time trajectory stored as columns, one row per sample.

    ``tau`` has shape (n,); ``A`` and ``lam`` have shape (n, d); ``S``,
    ``sigma`` and ``speed`` (g_{ab} v^a v^b of the unit velocity v, at a
    maximum that ends a ray its limit along the ray) have shape (n,).  For
    a coupled system ``A_prime`` and ``lam_prime`` hold subsystem 2's state
    and force and ``conservation_residual`` the per-sample max|A + A' - A_T|;
    all three are None for a single system.
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
        speed=np.array([_speed(pt) for pt in points]),
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


def _checked(rate, ts: np.ndarray) -> np.ndarray:
    """The arclength rate ``rate`` at each t, checked to be finite and > 0."""
    fs = rate(ts)
    bad = np.flatnonzero(~((fs > 0.0) & (fs < math.inf)))
    if bad.size:
        raise SingularModelError(f"the arclength rate is {fs[bad[0]]} at t = {ts[bad[0]]:.3g} "
                                 "on the ray: the covariance there is singular or not finite")
    return fs


def _lobatto_nodes(lo: np.ndarray, hi: np.ndarray):
    """Half width, midpoint and interior Gauss-Lobatto nodes of [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    off = half * _LOBATTO_NODE
    return half, mid, mid - off, mid + off


def _lobatto(half, f_lo, f_hi, f_1, f_2):
    return half * ((f_lo + f_hi) / 6.0 + (f_1 + f_2) * (5.0 / 6.0))


class _RayTable:
    """tau(t), the integral of the arclength rate f from t to 1 on the ray
    F = t F0, as Gauss-Lobatto panels of [0, 1].

    From _RAY_START_PANELS equal panels, each level evaluates the interior
    nodes of all pending panels in one kernel call and bisects those whose
    Simpson and Lobatto values differ by more than RAY_QUAD_TOL times the
    first estimate of the whole integral, so noise in f stops it after
    about log2(noise / RAY_QUAD_TOL) levels; past _RAY_PANELS panels it
    raises StepCollapseError.  A first estimate more than twice the
    integral comes from a rate that peaks within a start panel, as a gas
    pair's does near t = 0 when one vessel starts almost empty; the panels
    are then bisected again from the start, to RAY_QUAD_TOL times the
    integral."""

    def __init__(self, rate, f_top: float):
        self.rate = rate
        edges = np.linspace(0.0, 1.0, _RAY_START_PANELS + 1)
        f_edges = np.append(_checked(rate, edges[:-1]), f_top)
        done, tol = self._bisect(edges, f_edges, None)
        total = math.fsum(np.concatenate([part[5] for part in done]).tolist())
        if tol > 2.0 * RAY_QUAD_TOL * total:
            done, _ = self._bisect(edges, f_edges, RAY_QUAD_TOL * total)
        order = np.argsort(np.concatenate([part[0] for part in done]))
        self.lo, self.hi, self.f_lo, self.f_mid, self.f_hi, parts = (
            np.concatenate(column)[order] for column in zip(*done)
        )
        parts = parts.tolist()  # tau at a panel's top: the exactly rounded sum above it
        self.tops = np.array([math.fsum(parts[j:]) for j in range(1, len(parts) + 1)])
        self.tau_eq = math.fsum(parts)

    def _bisect(self, edges: np.ndarray, f_edges: np.ndarray, tol: float | None):
        """The accepted panels (lo, hi, f_lo, f_mid, f_hi, Lobatto value)
        from the start panels ``edges`` with rates ``f_edges``, and the
        tolerance, RAY_QUAD_TOL times the first estimate unless given."""
        lo, hi, f_lo, f_hi = edges[:-1], edges[1:], f_edges[:-1], f_edges[1:]
        done, count = [], 0
        while lo.size:
            count += lo.size
            if count > _RAY_PANELS:
                raise StepCollapseError(
                    f"the arclength of the ray near t = {lo[0]:.6g} does not converge in "
                    f"{_RAY_PANELS} panels"
                )
            half, mid, x_1, x_2 = _lobatto_nodes(lo, hi)
            f_mid, f_1, f_2 = _checked(self.rate, np.concatenate([mid, x_1, x_2])).reshape(3, -1)
            lobatto = _lobatto(half, f_lo, f_hi, f_1, f_2)
            if tol is None:
                tol = RAY_QUAD_TOL * math.fsum(lobatto.tolist())
            ok = np.abs(lobatto - half * (f_lo + 4.0 * f_mid + f_hi) / 3.0) <= tol
            done.append((lo[ok], hi[ok], f_lo[ok], f_mid[ok], f_hi[ok], lobatto[ok]))
            lo, hi = np.append(lo[~ok], mid[~ok]), np.append(mid[~ok], hi[~ok])
            f_lo, f_hi = np.append(f_lo[~ok], f_mid[~ok]), np.append(f_mid[~ok], f_hi[~ok])
        return done, tol

    def at(self, ts: np.ndarray):
        """tau and f at each t: tau at the top of its panel plus the 4-point
        Gauss-Lobatto rule from t up to that top, three kernel nodes per t."""
        j = np.searchsorted(self.lo, ts, side="right") - 1
        half, _, x_1, x_2 = _lobatto_nodes(ts, self.hi[j])
        f, f_1, f_2 = _checked(self.rate, np.concatenate([ts, x_1, x_2])).reshape(3, -1)
        return self.tops[j] + _lobatto(half, f, self.f_hi[j], f_1, f_2), f

    def place(self, targets: np.ndarray):
        """The t where tau reaches each of ``targets`` (below tau_eq), and f
        within rounding of it: one Newton step on tau from the inverse of the
        integral of the quadratic through the panel's end and midpoint rates."""
        j = len(self.tops) - np.searchsorted(self.tops[::-1], targets, side="right")
        hi, f_a, f_m, f_b = self.hi[j], self.f_lo[j], self.f_mid[j], self.f_hi[j]
        width, gap = hi - self.lo[j], targets - self.tops[j]
        # f(hi - s) ~ f_b + c_1 s + c_2 s^2 through the rates at s = 0, width/2, width
        c_1 = (4.0 * f_m - 3.0 * f_b - f_a) / width
        c_2 = 2.0 * (f_a - 2.0 * f_m + f_b) / (width * width)
        s = gap / f_b
        for _ in range(_RAY_NEWTON_ITERS):
            step = (s * (f_b + s * (0.5 * c_1 + s * c_2 / 3.0)) - gap) / (f_b + s * (c_1 + s * c_2))
            s, last = np.clip(s - step, 0.0, width), s
            if np.all(np.abs(s - last) <= 1e-15 * width):
                break
        tau, f = self.at(hi - s)
        return np.clip(hi - s + (tau - targets) / f, 0.0, 1.0), f  # dtau/dt = -f

    def landing(self, t: float, f: float, sigma_eq: float):
        """The t and tau of the rows t / 2^j, j = 1, 2, ..., while sigma = t f
        exceeds 2 ``sigma_eq``."""
        rows = []
        while True:
            ratio = t * f / (2.0 * sigma_eq)
            halved = t * 0.5 ** np.arange(1.0, 3.0 + min(60.0, math.log2(max(ratio, 1.0))))
            tau, fs = self.at(halved)
            low = np.flatnonzero(halved * fs <= 2.0 * sigma_eq)
            end = low[0] if low.size else halved.size
            rows.append((halved[:end], tau[:end]))
            if low.size:
                return tuple(np.concatenate(column) for column in zip(*rows))
            t, f = float(halved[-1]), float(fs[-1])


def _check_metrics(ts: np.ndarray, g: np.ndarray) -> None:
    """One batched SPD check; on failure, the first t whose metric fails."""
    try:
        _check_spd(g, "a metric on the ray")
    except SingularModelError:
        for t, m in zip(ts.tolist(), g):
            _check_spd(m, f"the metric at t = {t:.6g} on the ray")
        raise


def _ray(manifold: StateManifold, rate, states, start: ManifoldPoint, tau_max: float,
         spacing: float, sigma_eq: float) -> Trajectory:
    """The ray F = t F0 from ``start`` at t = 1, given its ``rate`` and
    ``states`` kernels: rows at k * spacing below tau_eq (the last one
    ``tau_max`` once within half a spacing of it), landing rows and the
    maximum, all from one call of ``states``.  A composite's ``states``
    returns its own force columns after the four of a family's."""
    F0 = start.force
    table = _RayTable(rate, start.sigma)
    targets = np.arange(1, int(min(tau_max, table.tau_eq) / spacing) + 3) * spacing
    near = np.flatnonzero(targets >= tau_max - 0.5 * spacing)
    targets = np.append(targets[:near[0]], tau_max) if near.size else targets
    landing = bool(targets[-1] >= table.tau_eq)
    targets = targets[targets < table.tau_eq]
    ts, fs = table.place(targets)
    low = np.flatnonzero((ts * fs <= 2.0 * sigma_eq) & (targets < tau_max))
    if low.size:
        landing, ts, fs, targets = True, ts[:low[0]], fs[:low[0]], targets[:low[0]]
    if landing:
        last = (ts[-1], fs[-1]) if ts.size else (1.0, start.sigma)
        halved, taus = table.landing(*last, sigma_eq)
        ts = np.concatenate([ts, halved, [0.0]])
        targets = np.concatenate([targets, taus, [table.tau_eq]])
    A, S, g, g_inv, *columns = states(ts)
    _check_metrics(ts, g)
    force = np.multiply.outer(ts, F0) + 0.0  # + 0.0 turns -0.0 into 0.0 at t = 0
    sigma = np.sqrt(np.maximum(((force[:, None, :] @ g_inv) @ force[:, :, None])[:, 0, 0], 0.0))
    v = (g_inv @ force[:, :, None])[:, :, 0] / np.where(sigma > 0.0, sigma, 1.0)[:, None]
    if landing:
        # the velocity dA/dtau = g_inv . F0 / f stays defined at the maximum
        v[-1] = g_inv[-1] @ F0 / table.f_lo[0]
    rows = {"lam": force, **(columns[0] if columns else {})}
    head = manifold.trajectory_columns([start])
    return Trajectory(
        tau=np.append(0.0, targets),
        A=np.vstack([start.A, A]),
        S=np.append(start.S, S),
        sigma=np.append(start.sigma, sigma),
        speed=np.append(_speed(start), ((v[:, None, :] @ g) @ v[:, :, None])[:, 0, 0]),
        terminal_status="equilibrium-reached" if landing else "tau-budget-exhausted",
        **{name: np.concatenate([head[name], rows[name]]) for name in head},
    )


def _has_maximum(family: ExponentialFamily) -> bool:
    """Whether lam = 0, the maximum every ray ends at, is in the natural
    domain; the ideal gas's entropy has no maximum."""
    try:
        family.check_natural_domain(np.zeros(family.n_dim))
    except DomainError:
        return False
    return True


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
    natural domain holds lam = 0 is sampled on the exact ray lam = t lam0
    after one Legendre inversion at A0, and a ``CompositeSystem`` on the
    curve F(A) = t F0 from its one point at A0 (see the module docstring).
    Either way the rows come from one table of tau(t) and sit at
    tau = k * h * ``record_every``.  Where the next such row would lie past
    the entropy maximum or have sigma at most ``2 * sigma_eq``, rows go on
    with sigma halving while it exceeds ``2 * sigma_eq``.  The run ends with
    status ``equilibrium-reached`` at the maximum itself (t = 0, sigma = 0,
    at its exact tau), or ``tau-budget-exhausted`` at ``tau_max``.  An
    arclength rate that is not finite and > 0, or a metric that is not
    finite and positive definite, raises SingularModelError.  A quadrature,
    or a composite's Newton solve of its nodes, that does not converge
    raises StepCollapseError, whose trajectory holds only the start row.

    Any other manifold (a chart, the ideal gas, whose entropy has no
    maximum) is integrated by classical RK4 with fixed base step ``h``,
    capped at sigma/2; a step is halved (at most ``max_halvings`` times)
    when a solver error occurs inside the stencil, the step crosses the
    entropy maximum, or the post-step unit-speed residual exceeds
    SPEED_RESIDUAL_TOL.  The run ends ``equilibrium-reached`` at the first
    state with sigma at most ``2 * sigma_eq``, or ``tau-budget-exhausted``
    at ``tau_max``; every ``record_every``-th step is recorded, and each
    solve is warm-started from the previous step.

    ``tau_max``, ``h`` and ``sigma_eq`` must be > 0, and ``h`` finite;
    ValueError otherwise.
    """
    if not tau_max > 0.0:
        raise ValueError(f"tau_max must be > 0, got {tau_max}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and > 0, got {h}")
    if not sigma_eq > 0.0:
        raise ValueError(f"sigma_eq must be > 0, got {sigma_eq}")
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
    family_ray = isinstance(manifold, FamilyManifold) and _has_maximum(manifold.family)
    if family_ray or isinstance(manifold, CompositeSystem):
        try:
            if family_ray:
                kernels = manifold.family.ray_rate(pt.force), manifold.family.ray_states(pt.force)
            else:
                ray = PairRay(manifold, pt.force, pt.aux[0][0])  # subsystem 1's lam at A0
                kernels = ray.rate, ray.states
            return _ray(manifold, *kernels, pt, tau_max, h * record_every, sigma_eq)
        except StepCollapseError as exc:
            raise StepCollapseError(
                str(exc), trajectory=_trajectory(manifold, recorded, "error")
            ) from None

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
    # one %-template per row formats each value as _fmt does
    row = ",".join(["%.17g"] * len(header))
    table = np.column_stack([col for _, col in columns]).tolist()
    text = "\n".join([",".join(header)] + [row % tuple(values) for values in table]) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", newline="") as fh:
            fh.write(text)
