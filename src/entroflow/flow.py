"""Unit-speed entropy-gradient flow in intrinsic time.

The dynamics is dA/dtau = g_inv . lam / sigma, the unique unit-speed flow
along the entropy gradient; intrinsic time tau is arclength in the
Fisher-Rao metric, so dS/dtau = sigma along the trajectory.

In mean coordinates g = -Hess S is dually flat, so dlam/dtau = -lam / sigma:
the force decays parallel to itself.  A single family's trajectory is
therefore the ray lam = t lam0, t from 1 down to 0, and tau(t) is the fixed
integral from t to 1 of the arclength rate f = (lam0 . Cov(t lam0) . lam0)^(1/2),
the standard deviation of the projected statistic lam0 . a.  So the rows
need no sequential walk.  ``integrate`` reads one ray object, the family's
``ray(lam0)``, through two batched kernels: it builds one table of tau(t)
from adaptive Gauss-Lobatto panels of the ray's ``rate``, places the t of
every row at once against it, and takes A, S and the covariance of all
rows from one call of the ray's ``states``; the metric of every row is that
covariance's inverse.  A closed-form family's rate is closed form and its
states are its batched ``natural_states`` at t lam0.  A table's ray either
reads the table once, into per-bin Taylor moments of y = lam0 . (a - c)
that serve every node and row by a Horner sum over a few bins, or, where
the bins would cost more than the points, sums over the points at each
node and row (see ``TabulatedFamily.ray``).
The run ends at t = 0, the maximum lam = 0, at its exact tau; near it the
rows go on with sigma halving down to 2 sigma_eq.

A coupled pair has a Hessian metric too, g_T = g + g', and its force
F(A) = lam(A) - lam'(A_T - A) has dF/dA = -g_T, so its trajectory is the
curve F(A) = t F0, t from 1 down to 0, and tau(t) is again a fixed
integral, of f = (F0 . g_T^-1 . F0)^(1/2).  ``integrate`` runs it through
the same table, placement and landing, reading a ``coupled.PairRay``, which
has a family ray's contract, with g_T^-1 from its ``states`` in place of
the covariance; the pair's kernels solve each node in subsystem 1's
natural parameter by a batched Newton iteration on the families' forward
maps (see ``coupled``).

The ideal gas's entropy has no maximum: its natural domain lam_E > 0 holds
t lam0 for every t in (0, 1], but tau(t) diverges as t -> 0.  Its table is
built in u = -ln t, where dtau/du = t f = sigma, over [0, U] with U doubled
from 1 until tau(U) > tau_max, and the run ends at tau_max.  The flow is covariant,
so a reparametrized chart's trajectory is its base trajectory mapped row by
row: B = forward(A), the force transforms as a one-form, and tau, S, sigma
and the speed are invariant.

A trajectory is a curve parametrized by intrinsic time, and ``Trajectory``
stores it that way, one column per quantity (tau, A, lam, S, sigma, speed),
which the analyses and the CSV writer read directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AtEquilibriumError, DomainError, MonotonicityError, SingularModelError, StepCollapseError,
    TooFewSamplesError,
)
from .coupled import CompositeSystem, PairRay
from .family import ExponentialFamily, as_vector
from .geometry import (
    FamilyManifold, ManifoldPoint, ReparametrizedManifold, StateManifold, _check_spd,
    _inverses, _symmetrize, as_manifold,
)

__all__ = [
    "Trajectory",
    "integrate",
    "entropy_production_check",
    "EntropyProductionReport",
    "clock_invert",
    "write_trajectory_csv",
]

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


@dataclass(frozen=True)
class Trajectory:
    """An intrinsic-time trajectory stored as columns, one row per sample.

    ``tau`` has shape (n,); ``A`` and ``lam`` have shape (n, d); ``S``,
    ``sigma`` and ``speed`` have shape (n,).  ``speed`` is g_{ab} v^a v^b of
    the unit velocity v (at a maximum that ends a ray, its limit along the
    ray), with g inverted per row from the covariance that also gives
    sigma, so it is 1 by construction and checks that inversion.  For a
    coupled system ``A_prime`` and ``lam_prime`` hold subsystem 2's state
    and force and ``conservation_residual`` the per-sample max|A + A' - A_T|;
    all three are None for a single system.  ``terminal_status`` is
    ``equilibrium-reached`` or ``tau-budget-exhausted``.
    """

    tau: np.ndarray
    A: np.ndarray
    lam: np.ndarray
    S: np.ndarray
    sigma: np.ndarray
    speed: np.ndarray
    terminal_status: str
    A_prime: np.ndarray | None = None
    lam_prime: np.ndarray | None = None
    conservation_residual: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.tau)


def _speed(pt: ManifoldPoint) -> float:
    v = pt.metric.raise_form(pt.force) / pt.sigma
    return pt.metric.squared_norm_of_vector(v)


def _checked(rate, ts: np.ndarray) -> np.ndarray:
    """The arclength rate ``rate`` at each t, checked to be finite and > 0;
    a rate that overflows fails the check without a warning."""
    with np.errstate(all="ignore"):
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
    F = t F0, as Gauss-Lobatto panels of [0, 1] (of x, for ``_open_table``).

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


def _open_table(rate, sigma: float, tau_max: float, span: float):
    """The table of tau of a ray without a maximum, whose rate ``rate`` starts
    at ``sigma``, and the map from its variable x = 1 - u / ``span`` to t, for
    u = -ln t in [0, span], where dtau/du = t f = sigma.  The span doubles
    until tau(span) > ``tau_max``, so it stays within max(1, 2 u(tau_max))."""

    def t_of(xs):
        return np.exp(span * (xs - 1.0))

    def rate_x(xs):  # dtau/dx = span t f(t), f checked at its own t
        ts = t_of(xs)
        return span * ts * _checked(rate, ts)

    table = _RayTable(rate_x, span * sigma)
    if table.tau_eq > tau_max:
        return table, t_of
    return _open_table(rate, sigma, tau_max, 2.0 * span)


def _ray(manifold: StateManifold, table: _RayTable, states, start: ManifoldPoint,
         tau_max: float, spacing: float, sigma_eq: float, t_of=None) -> Trajectory:
    """The ray F = t F0 from ``start`` at t = 1, given its ``table`` of tau
    and its ``states`` kernel: rows at k * spacing below tau_eq (the last one
    ``tau_max`` once within half a spacing of it), landing rows and the
    maximum, all from one call of ``states``, which maps the rows' t to
    their means A, entropies S and inverse metrics g_inv, and for a
    composite its own force columns after them.  Every row's metric is
    formed, symmetrized and checked here.  A ray without a maximum has its
    table in a variable that ``t_of`` maps to t and ends at ``tau_max``."""
    F0 = start.force
    targets = np.arange(1, int(min(tau_max, table.tau_eq) / spacing) + 3) * spacing
    near = np.flatnonzero(targets >= tau_max - 0.5 * spacing)
    targets = np.append(targets[:near[0]], tau_max) if near.size else targets
    landing = bool(targets[-1] >= table.tau_eq)
    targets = targets[targets < table.tau_eq]
    ts, fs = table.place(targets)
    if t_of is not None:
        ts = t_of(ts)
    else:
        low = np.flatnonzero((ts * fs <= 2.0 * sigma_eq) & (targets < tau_max))
        if low.size:
            landing, ts, fs, targets = True, ts[:low[0]], fs[:low[0]], targets[:low[0]]
        if landing:
            last = (ts[-1], fs[-1]) if ts.size else (1.0, start.sigma)
            halved, taus = table.landing(*last, sigma_eq)
            ts = np.concatenate([ts, halved, [0.0]])
            targets = np.concatenate([targets, taus, [table.tau_eq]])
    A, S, g_inv, *columns = states(ts)
    g = _symmetrize(_inverses(g_inv))
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


def _mapped(chart: ReparametrizedManifold, traj: Trajectory) -> Trajectory:
    """``traj``, a trajectory of the chart's base, in the chart: B = forward(A)
    and lam_B = J^-T lam_A with J = dB/dA at each row, while tau, S, sigma
    and the speed carry over.  Like a chart's points, it has no subsystem-2
    columns."""
    B = np.array([as_vector(chart.forward(a), chart.dim, "B") for a in traj.A])
    jac = np.array([np.atleast_2d(np.asarray(chart.jacobian(a), dtype=float)) for a in traj.A])
    force = traj.lam if traj.lam_prime is None else traj.lam - traj.lam_prime
    lam = np.linalg.solve(jac.transpose(0, 2, 1), force[:, :, None])[:, :, 0]
    return replace(traj, A=B, lam=lam, A_prime=None, lam_prime=None, conservation_residual=None)


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
) -> Trajectory:
    """Integrate the unit-speed entropy-gradient flow from A0.

    Raises AtEquilibriumError when the start has sigma below ``sigma_eq``.

    A single family (``as_manifold(system)`` is a ``FamilyManifold``) is
    sampled on the exact ray lam = t lam0 after one Legendre inversion at
    A0, and a ``CompositeSystem`` on the curve F(A) = t F0 from its one
    point at A0 (see the module docstring).  Either way one ray object, the
    family's ``ray(lam0)`` or a ``PairRay``, serves the run: its ``rate``
    builds one table of tau(t) and places the rows, which sit at
    tau = k * h, and one batched call of its ``states`` gives their A, S and
    covariance (for a pair, g_T^-1 and the subsystem columns).  Where the
    next such row would lie past the entropy maximum or have sigma at most
    ``2 * sigma_eq``, rows go on with sigma halving while it exceeds
    ``2 * sigma_eq``.  The run ends with status
    ``equilibrium-reached`` at the maximum itself (t = 0, sigma = 0, at its
    exact tau), or ``tau-budget-exhausted`` at ``tau_max``, as it always
    does for a family without a maximum (the ideal gas).  An arclength rate
    that is not finite and > 0, or a metric that is not finite and positive
    definite, raises SingularModelError.  A quadrature, or a composite's Newton solve of its
    nodes, that does not converge raises StepCollapseError.

    A ``ReparametrizedManifold`` gets its base's trajectory from the base
    point of A0, mapped into the chart; any other ``StateManifold`` raises
    TypeError.  ``tau_max``, ``h`` and ``sigma_eq`` must be > 0, and ``h``
    finite; ValueError otherwise.
    """
    if not tau_max > 0.0:
        raise ValueError(f"tau_max must be > 0, got {tau_max}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and > 0, got {h}")
    if not sigma_eq > 0.0:
        raise ValueError(f"sigma_eq must be > 0, got {sigma_eq}")

    manifold = as_manifold(system)
    if isinstance(manifold, ReparametrizedManifold):
        base = integrate(manifold.base, manifold.to_base(A0), tau_max=tau_max, h=h,
                         sigma_eq=sigma_eq)
        return _mapped(manifold, base)
    if not isinstance(manifold, (FamilyManifold, CompositeSystem)):
        raise TypeError("integrate takes a family, a CompositeSystem or a chart of either, "
                        f"not a {type(manifold).__name__}")
    A = manifold.check_feasible(A0).copy()
    pt = manifold.point(A)
    if pt.sigma < sigma_eq:
        raise AtEquilibriumError(
            f"initial state is already at equilibrium (sigma = {pt.sigma:.3e})"
        )
    if isinstance(manifold, CompositeSystem):
        ray = PairRay(manifold, pt.force, pt.aux[0][0])  # subsystem 1's lam at A0
        open_ended = False
    else:
        ray, open_ended = manifold.family.ray(pt.force), not _has_maximum(manifold.family)
    if open_ended:
        table, t_of = _open_table(ray.rate, pt.sigma, tau_max, 1.0)
    else:
        table, t_of = _RayTable(ray.rate, pt.sigma), None
    return _ray(manifold, table, ray.states, pt, tau_max, h, sigma_eq, t_of)


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
