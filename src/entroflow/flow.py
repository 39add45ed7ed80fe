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
from adaptive Chebyshev panels of the ray's ``rate``, one kernel call per
level of panels, places the t of every row at once against it by two
Newton steps on the panels' series from an inverse Hermite start on the
panels' points, which call no kernel, and takes A, S and the
covariance of all rows from one call of the ray's ``states``; the metric of
every row is that covariance's inverse.  Since dS/dtau = sigma = t f, the
table also integrates t f^2 from the rate samples it holds, which gives each
row the entropy gained since the start independently of its S.  A
closed-form family's rate is closed form and its states are its batched
``natural_states`` at t lam0.
A table's ray either reads the table once, into per-bin Taylor moments of
y = lam0 . (a - c) that serve every node and row by a Horner sum over a
few bins, or, where the bins would cost more than the points, sums over
the points at each node and row (see ``TabulatedFamily.ray``).
A run whose budget reaches the maximum lam = 0 ends there, at t = 0 and
its exact tau; the grid rows after the last one whose sigma exceeds
2 SIGMA_EQ give way to rows with sigma halving down to that level.  A start
near an edge of the state space has sigma small too, but sigma rises from it
before it falls, so only the ray's end decides the landing.

A coupled pair has a Hessian metric too, g_T = g + g', and its force
F(A) = lam(A) - lam'(A_T - A) has dF/dA = -g_T, so its trajectory is the
curve F(A) = t F0, t from 1 down to 0, and tau(t) is again a fixed
integral, of f = (F0 . g_T^-1 . F0)^(1/2).  ``integrate`` runs it through
the same table, placement and landing, reading a ``coupled.PairRay``, which
has a family ray's contract, with g_T^-1 from its ``states`` in place of
the covariance and subsystem 1's force l after it; the pair's kernels
solve each node in subsystem 1's natural parameter by a batched Newton
iteration on the families' forward maps, start the table's first panel on
the tangent of the curve at t = 1, and start each later node from the
Chebyshev series of the table's solved nodes: a node starts from the
latest-made leaf panel that holds it, a split panel giving way to its
halves, and the solved nodes are sorted only for the fallback start of a
node outside a natural domain (see ``coupled``).

The ideal gas's entropy has no maximum: its natural domain lam_E > 0 holds
t lam0 for every t in (0, 1], but tau(t) diverges as t -> 0.  Its table is
built in u = -ln t, where dtau/du = t f = sigma, over [0, U] with U doubled
from 1 until tau(U) > tau_max, and the run ends at tau_max.

A trajectory is a curve parametrized by intrinsic time, and ``Trajectory``
stores it that way, one column per quantity (tau, A, lam, S, sigma, speed,
the entropy gain, and a pair's lam', A' and conservation residual), which
the analyses and the CSV writer read directly; ``_ray`` alone builds them,
for every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _g17, chebyshev
from .errors import (
    AtEquilibriumError, DomainError, MonotonicityError, SingularModelError, StepCollapseError,
)
from .coupled import CompositeSystem, PairRay
from .family import ExponentialFamily
from .geometry import (
    FamilyManifold, ManifoldPoint, _check_spd, _inverses, _sigmas, _symmetrize, as_manifold,
)

__all__ = [
    "Trajectory",
    "integrate",
    "entropy_production_check",
    "EntropyProductionReport",
    "clock_invert",
    "write_trajectory_csv",
]

#: A panel of the table of tau is accepted once the envelope of its Chebyshev
#: coefficients reaches a plateau at this level of the largest or below (see
#: ``chebyshev.chop``): the rounding plateau of a smooth rate, or the floor
#: of a rate with relative noise up to about 1e-8.
RAY_QUAD_TOL = 1e-12
#: Most panels one table of tau may evaluate: a gas pair with 1e-12 of the
#: energy in one vessel, whose rate f ~ 1 / (t + 1e-13) is refined
#: geometrically toward t = 0, evaluates 83.
_RAY_PANELS = 1000
_RAY_NEWTON_ITERS = 100
#: Near the maximum, rows go on with sigma halving while it exceeds twice this.
SIGMA_EQ = 1e-8
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Trajectory:
    """An intrinsic-time trajectory stored as columns, one row per sample.

    ``tau`` has shape (n,); ``A`` and ``lam`` have shape (n, d); ``S``,
    ``sigma`` and ``speed`` have shape (n,).  ``speed`` is g_{ab} v^a v^b of
    the unit velocity v (at a maximum that ends a ray, its limit along the
    ray), with g inverted per row from the covariance that also gives
    sigma, so it is 1 by construction and checks that inversion.
    ``entropy_gain`` (n,) is the integral of sigma dtau from the start, taken
    by the table of tau from the ray's rate, not from S.  For a coupled
    system ``A_prime`` and ``lam_prime`` hold subsystem 2's state and force
    and ``conservation_residual`` the per-sample max|A + A' - A_T|; all three
    are None for a single system.  ``terminal_status`` is
    ``equilibrium-reached`` or ``tau-budget-exhausted``.
    """

    tau: np.ndarray
    A: np.ndarray
    lam: np.ndarray
    S: np.ndarray
    sigma: np.ndarray
    speed: np.ndarray
    entropy_gain: np.ndarray
    terminal_status: str
    A_prime: np.ndarray | None = None
    lam_prime: np.ndarray | None = None
    conservation_residual: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.tau)

    @property
    def force(self) -> np.ndarray:
        """The force driving each row: lam, or lam - lam' for a coupled system."""
        return self.lam if self.lam_prime is None else self.lam - self.lam_prime


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


class _RayTable:
    """tau(t), the integral of the arclength rate f from t to 1 on the ray
    F = t F0, as Chebyshev panels of [0, 1] (of x, for ``_open_table``), and
    the entropy gained from t to 1, the integral of sigma f, with sigma = t f
    or, in x, the table's ``sigma`` of x and f.

    From [0, 1], each level samples the rate at the Chebyshev points of all
    pending panels in one kernel call and splits in two every panel whose
    coefficients reach no plateau at RAY_QUAD_TOL (see ``chebyshev.chop``);
    past _RAY_PANELS panels it raises StepCollapseError.  A rate that peaks
    near one end, as a gas pair's does near t = 0 when one vessel starts
    almost empty, is refined geometrically toward it.  Each accepted panel
    keeps its series of f, with the coefficients below rounding dropped, and
    its integrated series, the tau from t up to the panel's top; tau at a
    panel's top is the exactly rounded sum of the panels above it.  The gain
    is integrated the same way, from its own series of sigma f at the
    panel's points.  tau, f and the gain at any t then take a Clenshaw sum
    and no kernel call.  The panels' points keep their t, their tau on the
    series and their sampled f, from which ``place`` starts."""

    def __init__(self, rate, sigma=lambda ts, fs: ts * fs):
        lo, hi, done, count = np.zeros(1), np.ones(1), [], 0
        while lo.size:
            count += lo.size
            if count > _RAY_PANELS:
                raise StepCollapseError(
                    f"the arclength of the ray near t = {lo[0]:.6g} does not converge in "
                    f"{_RAY_PANELS} panels"
                )
            ts = chebyshev.nodes(lo, hi)
            fs = _checked(rate, ts.ravel()).reshape(ts.shape)
            coeffs = chebyshev.coefficients(fs[:, :, None])[:, :, 0]
            ok = np.array([chebyshev.chop(c, RAY_QUAD_TOL) < chebyshev.POINTS for c in coeffs])
            done.append((lo[ok], hi[ok], coeffs[ok], ts[ok], fs[ok]))
            mid = 0.5 * (lo + hi)[~ok]
            lo, hi = np.append(lo[~ok], mid), np.append(mid, hi[~ok])
        order = np.argsort(np.concatenate([part[0] for part in done]))
        self.lo, self.hi, coeffs, node_t, node_f = (
            np.concatenate(column)[order] for column in zip(*done))
        self.f0, self.sigma = node_f[0, 0], sigma  # f0: the rate at t = 0
        coeffs, tau, self.tops, self.tau_eq = self._integrated(coeffs)
        self.f_bound = np.max(np.sum(np.abs(coeffs), axis=0))  # |T_k| <= 1
        gain_density = chebyshev.coefficients((sigma(node_t, node_f) * node_f)[:, :, None])
        _, gain, self.gain_tops, self.gain_eq = self._integrated(gain_density[:, :, 0])
        # the series of tau - top, f and gain - top, padded with zero top
        # coefficients, which leave a Clenshaw sum as it is, to one degree
        self.series = np.zeros((max(len(tau), len(gain)), 3, len(self.lo)))
        for k, c in enumerate((tau, coeffs, gain)):
            self.series[:len(c), k] = c
        # t, tau and f at the panels' points, in the order of t
        s = chebyshev.nodes(np.array(-1.0), np.array(1.0))
        node_tau = self.tops[:, None] + chebyshev.clenshaw(tau[:, :, None], s)
        self.nodes = np.stack([node_t.ravel(), node_tau.ravel(), node_f.ravel()])

    def _integrated(self, coeffs: np.ndarray):
        """A density's coefficients (panels, POINTS) past rounding dropped,
        degree first; its integral from each panel's top, -half the integral
        from s = 1; that at each panel's top, the exactly rounded sum of the
        panels' parts above it; and the whole.  A density that is all 0
        keeps one coefficient."""
        for c in coeffs:
            c[chebyshev.chop(c, _EPS):] = 0.0
        coeffs = coeffs[:, :max(np.flatnonzero(np.any(coeffs, axis=0)), default=0) + 1].T
        series = -0.5 * (self.hi - self.lo) * chebyshev.integral(coeffs)
        parts = ((-1.0) ** np.arange(len(series)) @ series).tolist()
        tops = np.array([math.fsum(parts[j:]) for j in range(1, len(parts) + 1)])
        return coeffs, series, tops, math.fsum(parts)

    def _sums(self, j: np.ndarray):
        """The ends of panels j, and the function of points s in them that
        gives tau, f and the gain by Clenshaw sums of the panels' series."""
        series, tops, gain_tops = self.series[:, :, j], self.tops[j], self.gain_tops[j]

        def sums(s):
            tau, f, gain = chebyshev.clenshaw(series, s)
            return tops + tau, f, gain_tops + gain

        return self.lo[j], self.hi[j], sums

    def at(self, ts: np.ndarray):
        """tau, f and the gain at each t."""
        lo, hi, sums = self._sums(np.searchsorted(self.lo, ts, side="right") - 1)
        return sums((2.0 * ts - lo - hi) / (hi - lo))

    def place(self, targets: np.ndarray):
        """The t where tau reaches each of ``targets`` (below tau_eq), f and
        the gain there: Newton steps on each panel's series of tau, whose
        derivative in t is -f.  They start from the inverse cubic Hermite
        interpolant of t(tau) between the two points of the panel whose tau
        brackets the target, with the slope dt/dtau = -1/f of the sampled
        rate at both, which lands within about 1e-8 of the root on a
        resolved panel, so that one step and the polishing one follow.  The
        gain, summed before that step, is carried to the target by sigma."""
        j = len(self.tops) - np.searchsorted(self.tops[::-1], targets, side="right")
        lo, hi, sums = self._sums(j)
        # tau falls along the points, so points i - 1 and i of panel j bracket
        # the target, up to rounding at the ends of the panel
        i = j * chebyshev.POINTS + np.clip(
            np.searchsorted(-self.nodes[1], -targets) - j * chebyshev.POINTS, 1, chebyshev.POINTS - 1)
        t_a, tau_a, f_a = self.nodes[:, i - 1]
        t_b, tau_b, f_b = self.nodes[:, i]
        with np.errstate(divide="ignore", invalid="ignore"):  # tau_a = tau_b gives u = 0 or 1
            u = np.fmin(np.fmax((targets - tau_a) / (tau_b - tau_a), 0.0), 1.0)
        v = 1.0 - u
        t = (t_a + u * u * (3.0 - 2.0 * u) * (t_b - t_a)
             + u * v * (tau_a - tau_b) * (v / f_a - u / f_b))
        s, last = (2.0 * t - lo - hi) / (hi - lo), False
        for _ in range(_RAY_NEWTON_ITERS):
            tau, f, gain = sums(s)
            step = (tau - targets) / (0.5 * (hi - lo) * f)
            s = np.clip(s + step, -1.0, 1.0)
            if last:
                break
            last = bool(np.all(np.abs(step) <= 1e-6))  # one step more lands at rounding
        t = hi * (0.5 + 0.5 * s) + lo * (0.5 - 0.5 * s)
        return t, f, gain + self.sigma(t, f) * (targets - tau)

    def landing(self, t: float):
        """The t, tau and gain of the rows t / 2^j, j = 1, 2, ..., up to the
        last one whose sigma = t f exceeds 2 SIGMA_EQ."""
        halved = t * 0.5 ** np.arange(1.0, 1076.0)  # down to 0
        # past the first row with t f_bound <= 2 SIGMA_EQ, sigma is below it too
        halved = halved[:np.count_nonzero(halved * self.f_bound > 2.0 * SIGMA_EQ)]
        tau, f, gain = self.at(halved)
        end = np.flatnonzero(np.append(True, halved * f > 2.0 * SIGMA_EQ))[-1]
        return halved[:end], tau[:end], gain[:end]


def _open_table(rate, tau_max: float, span: float):
    """The table of tau of a ray without a maximum, whose rate is ``rate``,
    and the map from its variable x = 1 - u / ``span`` to t, for u = -ln t in
    [0, span], where dtau/du = t f = sigma.  The span doubles
    until tau(span) > ``tau_max``, so it stays within max(1, 2 u(tau_max)),
    or raises SingularModelError where t = exp(-u) would underflow on it."""

    def t_of(xs):
        return np.exp(span * (xs - 1.0))

    def rate_x(xs):  # dtau/dx = span t f(t), f checked at its own t
        ts = t_of(xs)
        return span * ts * _checked(rate, ts)

    table = _RayTable(rate_x, lambda xs, fs: fs / span)  # sigma = t f
    if table.tau_eq > tau_max:
        return table, t_of
    if math.exp(-2.0 * span) == 0.0:
        raise SingularModelError(
            f"tau_max = {tau_max:.6g} lies beyond the ray's reach: it reaches tau = "
            f"{table.tau_eq:.6g} at t = exp(-{span:g}), and t = exp(-{2.0 * span:g}) underflows")
    return _open_table(rate, tau_max, 2.0 * span)


def _ray(table: _RayTable, ray, start: ManifoldPoint, tau_max: float, spacing: float,
         t_of=None) -> Trajectory:
    """The ray F = t F0 from ``start`` at t = 1, given its ``table`` of tau
    and the ``ray`` object: rows at k * spacing below tau_eq (the last one
    ``tau_max`` once within half a spacing of it) and, where the grid
    reaches tau_eq, landing rows in place of the trailing grid rows whose
    sigma is at most 2 SIGMA_EQ, and the maximum; all from one call of the
    ray's ``states``, which maps the rows'
    t to their means A, entropies S and inverse metrics g_inv, and for a
    ``PairRay`` to subsystem 1's forces l after them.  Every row's metric is
    formed, symmetrized and checked here.  The one builder of ``Trajectory``
    columns: the start point's A, g_inv and g go in front of the rows', so
    every row's sigma comes from one call of ``geometry._sigmas`` and its
    speed from one batched formula, and a pair's
    lam = l, lam' = l - t F0, A' = A_T - A and residual from one block, with
    the start row's l from its subsystem 1 point.  A ray without a maximum
    has its table in a variable that ``t_of`` maps to t and ends at
    ``tau_max``."""
    F0 = start.force
    targets = np.arange(1, int(min(tau_max, table.tau_eq) / spacing) + 3) * spacing
    near = np.flatnonzero(targets >= tau_max - 0.5 * spacing)
    targets = np.append(targets[:near[0]], tau_max) if near.size else targets
    landing = bool(targets[-1] >= table.tau_eq)
    targets = targets[targets < table.tau_eq]
    ts, fs, gains = table.place(targets)
    if t_of is not None:
        ts = t_of(ts)
    elif landing:  # the rows up to the last with sigma > 2 SIGMA_EQ, or none
        keep = np.flatnonzero(np.append(True, ts * fs > 2.0 * SIGMA_EQ))[-1]
        halved, taus, halved_gains = table.landing(ts[keep - 1] if keep else 1.0)
        ts = np.concatenate([ts[:keep], halved, [0.0]])
        targets = np.concatenate([targets[:keep], taus, [table.tau_eq]])
        gains = np.concatenate([gains[:keep], halved_gains, [table.gain_eq]])
    A, S, g_inv, *pair = ray.states(ts)
    g = _symmetrize(_inverses(g_inv))
    try:  # one batched check; on failure, the first t whose metric fails
        _check_spd(g, "a metric on the ray")
    except SingularModelError:
        for t, m in zip(ts.tolist(), g):
            _check_spd(m, f"the metric at t = {t:.6g} on the ray")
        raise
    # the start row, at t = 1, in front of the rows' stacks; the rows' + 0.0
    # turns -0.0 into 0.0 at t = 0
    A, force = np.vstack([start.A, A]), np.vstack([F0, np.multiply.outer(ts, F0) + 0.0])
    g_inv, g = np.concatenate([start.g_inv[None], g_inv]), np.concatenate([start.g[None], g])
    sigma = _sigmas(force, g_inv)
    v = (g_inv @ force[:, :, None])[:, :, 0] / np.where(sigma > 0.0, sigma, 1.0)[:, None]
    if landing:
        # the velocity dA/dtau = g_inv . F0 / f stays defined at the maximum
        v[-1] = g_inv[-1] @ F0 / table.f0
    columns = {"lam": force}
    if pair:
        lam, A_total = np.vstack([start.p1.force, pair[0]]), ray.system.A_total
        A_prime = A_total - A
        columns = {"lam": lam, "lam_prime": lam - force, "A_prime": A_prime,
                   "conservation_residual": np.max(np.abs(A + A_prime - A_total), axis=1)}
    return Trajectory(
        tau=np.append(0.0, targets), A=A, S=np.append(start.S, S), sigma=sigma,
        speed=((v[:, None, :] @ g) @ v[:, :, None])[:, 0, 0], entropy_gain=np.append(0.0, gains),
        terminal_status="equilibrium-reached" if landing else "tau-budget-exhausted",
        **columns,
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
) -> Trajectory:
    """Integrate the unit-speed entropy-gradient flow from A0.

    ``A0`` is a state of ``system`` or, for a family or a composite, a
    ``ManifoldPoint`` that ``system`` has already made, which is then not
    made again.  Raises AtEquilibriumError when the start has sigma = 0,
    which it has only where its force is 0 (see ``geometry._sigmas``).

    A single family (``as_manifold(system)`` is a ``FamilyManifold``) is
    sampled on the exact ray lam = t lam0 after one Legendre inversion at
    A0, and a ``CompositeSystem`` on the curve F(A) = t F0 from its one
    point at A0 (see the module docstring).  Either way one ray object, the
    family's ``ray(lam0)`` or a ``PairRay``, serves the run: its ``rate``,
    sampled at the Chebyshev points of a few panels, builds one table of
    tau(t), against whose series the rows, which sit at tau = k * h, are
    placed without a kernel call, and one batched call of its ``states``
    gives their A, S and covariance (for a pair, g_T^-1 and subsystem 1's
    force).  A run whose grid reaches the entropy maximum within
    ``tau_max`` ends with status ``equilibrium-reached`` at the maximum
    itself (t = 0, sigma = 0, at its exact tau); its grid rows after the
    last one with sigma above 2 SIGMA_EQ give way to rows with sigma
    halving down to that level.  Any other run ends with status
    ``tau-budget-exhausted`` at ``tau_max`` and keeps every grid row, as a
    family without a maximum (the ideal gas) always does.  An arclength rate
    that is not finite and > 0, or a metric that is not finite and positive
    definite, raises SingularModelError.  A table of tau that needs more
    than _RAY_PANELS panels, or a composite's Newton solve of its nodes that
    does not converge, raises StepCollapseError.

    Any other ``StateManifold`` raises TypeError.  ``tau_max`` and ``h``
    must be > 0, and ``h`` finite; ValueError otherwise.
    """
    if not tau_max > 0.0:
        raise ValueError(f"tau_max must be > 0, got {tau_max}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and > 0, got {h}")

    manifold = as_manifold(system)
    if not isinstance(manifold, (FamilyManifold, CompositeSystem)):
        raise TypeError("integrate takes a family or a CompositeSystem, "
                        f"not a {type(manifold).__name__}")
    pt = A0 if isinstance(A0, ManifoldPoint) else manifold.point(A0)
    if pt.sigma == 0.0:
        raise AtEquilibriumError(
            f"initial state is already at equilibrium (sigma = {pt.sigma:.3e})"
        )
    if isinstance(manifold, CompositeSystem):
        ray, open_ended = PairRay(manifold, pt), False
    else:
        ray, open_ended = manifold.family.ray(pt.force), not _has_maximum(manifold.family)
    table, t_of = _open_table(ray.rate, tau_max, 1.0) if open_ended else (_RayTable(ray.rate), None)
    return _ray(table, ray, pt, tau_max, h, t_of)


@dataclass(frozen=True)
class EntropyProductionReport:
    """The largest residual of the integrated entropy identity over the
    rows, the tau of the row where it falls, and the residual of each row."""

    max_residual: float
    argmax_tau: float
    residuals: tuple[float, ...]


def entropy_production_check(traj: Trajectory) -> EntropyProductionReport:
    """Check dS/dtau = sigma, integrated, at every row: the residual
    |S_k - S_0 - entropy_gain_k| / max(1, |S_k|, |S_0|, |entropy_gain_k|)
    sets S from the ray's states against the integral of sigma dtau from its
    rate.  The difference rounds at the scale of the largest of its terms,
    so the residual is a few ulps where rate and states agree.  The start
    row reads 0."""
    S, gain = traj.S, traj.entropy_gain
    scale = np.maximum(np.maximum(1.0, np.abs(S)), np.maximum(abs(S[0]), np.abs(gain)))
    residuals = np.abs(S - S[0] - gain) / scale
    worst = int(np.argmax(residuals))
    return EntropyProductionReport(
        max_residual=float(residuals[worst]),
        argmax_tau=float(traj.tau[worst]),
        residuals=tuple(residuals.tolist()),
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


def write_trajectory_csv(traj: Trajectory, dest) -> None:
    """Write one row per recorded sample at 17 significant digits.

    Every cell is exactly the bytes of ``"%.17g" % x``.  The private
    ``_g17`` kernel forms them in numpy, 4096 cells per call: each cell's
    17 digits come from a double-double product against a table of powers
    of ten, and are laid out by Python's 'g' rule; the few cells it cannot
    round exactly (non-finite, subnormal, |x| beyond 1e+-250, or within
    1e-6 of a decimal rounding tie) are written by ``"%.17g"`` itself.

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
    text = ",".join(header) + "\n" + _g17.format_rows(np.column_stack([col for _, col in columns]))
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", newline="") as fh:
            fh.write(text)
