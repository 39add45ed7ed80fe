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
curve F(A) = t F0, t from 1 down to 0.  ``integrate`` traces it by
predictor-corrector continuation in t, with the same rows and landing as
the single-family ray: a Taylor step of A from the exact dA/dt = -w and
d^2A/dt^2 = -g_T^-1 dg[w] w (w = g_T^-1 F0), tau by the two-point Hermite
rule on the arclength rate f = (F0 . w)^(1/2) and its derivative, and one
Newton correction of (A, t) onto the curve: two point evaluations per row.
The sizes of the corrections measure the error; a step whose error
exceeds PC_TOL of its length is split.  Whether the next row or the
maximum comes first is settled by an error-controlled step to the
maximum, never by the Taylor model alone.

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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    AtEquilibriumError, DomainError, InfeasibleMeanError, MonotonicityError,
    NoConvergenceError, SingularModelError, StepCollapseError, TooFewSamplesError,
)
from .coupled import CompositeSystem
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
#: Most panels one arclength integral of the ray may take.
_RAY_PANELS = 1000
#: Equal panels the table of tau starts from: from one, Simpson's rule missed
#: Lobatto's errors of 1e-15 on two panels of width 1/16 of the Bernoulli ray.
_RAY_START_PANELS = 32
_RAY_NEWTON_ITERS = 100
#: Interior Gauss-Lobatto nodes on [-1, 1] (weights 5/6; the ends have 1/6).
_LOBATTO_NODE = 1.0 / math.sqrt(5.0)

#: A continuation step of a composite is split when its error exceeds this
#: times its length.  The error is the larger of two O(length^3) terms that
#: the Taylor predictor misses (see ``_CompositeRay._step``); the two-point
#: Hermite rule's error is O(length^5), about the square of this bound
#: times the length, so the rows and the terminal tau stay exact to about
#: 1e-12 whatever the spacing.
PC_TOL = 1e-6
#: Most successive rejected steps before a continuation gives up.
_PC_REJECTIONS = 50
#: The rounding of a composite force, in units of its scale |lam| + |lam'|.
_PC_NOISE = 16.0 * np.finfo(float).eps

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


def _checked(rate, ts: np.ndarray) -> np.ndarray:
    """The arclength rate ``rate`` at each t, checked to be finite and > 0."""
    fs = rate(ts)
    bad = np.flatnonzero(~((fs > 0.0) & (fs < math.inf)))
    if bad.size:
        raise SingularModelError(f"the arclength rate is {fs[bad[0]]} at {ts[bad[0]]:.3g} "
                                 "lam0: the covariance there is singular or not finite")
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
    lam = t lam0 of a single family, as Gauss-Lobatto panels of [0, 1].

    From _RAY_START_PANELS equal panels, each level evaluates the interior
    nodes of all pending panels in one kernel call and bisects those whose
    Simpson and Lobatto values differ by more than RAY_QUAD_TOL times the
    first estimate of the whole integral, so noise in f stops it after
    about log2(noise / RAY_QUAD_TOL) levels; past _RAY_PANELS panels it
    raises StepCollapseError."""

    def __init__(self, rate, f_top: float):
        self.rate = rate
        edges = np.linspace(0.0, 1.0, _RAY_START_PANELS + 1)
        f_edges = np.append(_checked(rate, edges[:-1]), f_top)
        lo, hi, f_lo, f_hi = edges[:-1], edges[1:], f_edges[:-1], f_edges[1:]
        done, tol, count = [], None, 0
        while lo.size:
            count += lo.size
            if count > _RAY_PANELS:
                raise StepCollapseError(
                    f"the arclength of the ray near {lo[0]:.6g} lam0 does not converge in "
                    f"{_RAY_PANELS} panels"
                )
            half, mid, x_1, x_2 = _lobatto_nodes(lo, hi)
            f_mid, f_1, f_2 = _checked(rate, np.concatenate([mid, x_1, x_2])).reshape(3, -1)
            lobatto = _lobatto(half, f_lo, f_hi, f_1, f_2)
            if tol is None:
                tol = RAY_QUAD_TOL * math.fsum(lobatto.tolist())
            ok = np.abs(lobatto - half * (f_lo + 4.0 * f_mid + f_hi) / 3.0) <= tol
            done.append((lo[ok], hi[ok], f_lo[ok], f_mid[ok], f_hi[ok], lobatto[ok]))
            lo, hi = np.append(lo[~ok], mid[~ok]), np.append(mid[~ok], hi[~ok])
            f_lo, f_hi = np.append(f_lo[~ok], f_mid[~ok]), np.append(f_mid[~ok], f_hi[~ok])
        order = np.argsort(np.concatenate([part[0] for part in done]))
        self.lo, self.hi, self.f_lo, self.f_mid, self.f_hi, parts = (
            np.concatenate(column)[order] for column in zip(*done)
        )
        parts = parts.tolist()  # tau at a panel's top: the exactly rounded sum above it
        self.tops = np.array([math.fsum(parts[j:]) for j in range(1, len(parts) + 1)])
        self.tau_eq = math.fsum(parts)

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
            ratio = t * f / (2.0 * sigma_eq) if sigma_eq > 0.0 else math.inf
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
            _check_spd(m, f"the metric at {t:.6g} lam0")
        raise


def _family_ray(family: ExponentialFamily, start: ManifoldPoint, tau_max: float,
                spacing: float, sigma_eq: float) -> Trajectory:
    """The ray lam = t lam0 of a single family from ``start`` at t = 1: rows
    at k * spacing below tau_eq (the last one ``tau_max`` once within half a
    spacing of it), landing rows and the maximum, all from one ``ray_states``."""
    lam0 = start.force
    table = _RayTable(family.ray_rate(lam0), start.sigma)
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
    A, S, g, g_inv = family.ray_states(lam0)(ts)
    _check_metrics(ts, g)
    lam = np.multiply.outer(ts, lam0) + 0.0  # + 0.0 turns -0.0 into 0.0 at t = 0
    sigma = np.sqrt(np.maximum(((lam[:, None, :] @ g_inv) @ lam[:, :, None])[:, 0, 0], 0.0))
    v = (g_inv @ lam[:, :, None])[:, :, 0] / np.where(sigma > 0.0, sigma, 1.0)[:, None]
    if landing:
        # the velocity dA/dtau = Cov . lam0 / f stays defined at the maximum
        v[-1] = g_inv[-1] @ lam0 / table.f_lo[0]
    return Trajectory(
        tau=np.append(0.0, targets),
        A=np.vstack([start.A, A]),
        lam=np.vstack([lam0, lam]),
        S=np.append(start.S, S),
        sigma=np.append(start.sigma, sigma),
        speed=np.append(_speed(start), ((v[:, None, :] @ g) @ v[:, :, None])[:, 0, 0]),
        terminal_status="equilibrium-reached" if landing else "tau-budget-exhausted",
    )


def _has_maximum(family: ExponentialFamily) -> bool:
    """Whether lam = 0, the maximum every ray ends at, is in the natural
    domain; the ideal gas's entropy has no maximum."""
    try:
        family.check_natural_domain(np.zeros(family.n_dim))
    except DomainError:
        return False
    return True


def _hermite(d: float, f_a: float, fp_a: float, f_b: float, fp_b: float) -> float:
    """The two-point Hermite rule: the integral of f over [b, a], d = a - b,
    from f and f' at both ends; exact for cubics."""
    return 0.5 * d * (f_a + f_b) + d * d / 12.0 * (fp_b - fp_a)


def _hermite_root(a, b, whole: float, goal: float) -> float:
    """The d in (0, a.t - b.t) at which the integral of the cubic Hermite
    interpolant of f from a.t down to a.t - d reaches ``goal``, where its
    integral down to b.t is ``whole`` > ``goal``; a and b carry t, f and
    f' = df/dt."""
    span = a.t - b.t
    # f(a.t - s) = a.f - a.fp s + c2 s^2 + c3 s^3 matches b.f and -b.fp at s = span
    slope = (b.f - a.f) / span
    c2 = (3.0 * slope + 2.0 * a.fp + b.fp) / span
    c3 = -(2.0 * slope + a.fp + b.fp) / (span * span)
    s = span * goal / whole
    for _ in range(_RAY_NEWTON_ITERS):
        tau = s * (a.f + s * (-0.5 * a.fp + s * (c2 / 3.0 + s * (0.25 * c3))))
        rate = a.f + s * (-a.fp + s * (c2 + s * c3))
        s_new = min(max(s - (tau - goal) / rate, 0.0), span)
        if abs(s_new - s) <= 1e-15 * s_new:
            return s_new
        s = s_new
    return s


class _CompositeNode(NamedTuple):
    t: float  # the force scale: F(A) = t F0
    f: float  # the arclength rate (F0 . w)^(1/2)
    fp: float  # df/dt = w . dg[w] . w / (2 f)
    pt: ManifoldPoint
    w: np.ndarray  # g_T^-1 . F0 = -dA/dt
    acc: np.ndarray  # d^2A/dt^2 = -g_T^-1 . dg[w] . w
    dg: np.ndarray  # the metric derivative at pt


class _CompositeRay:
    """The curve F(A) = t F0 of a coupled pair, traced by predictor-corrector
    continuation in the force scale t; see ``integrate``."""

    def __init__(self, system: CompositeSystem, start: ManifoldPoint):
        self.manifold, self.F0 = system, start.force
        self.start = self._node(start, 1.0)
        #: The longest step, in tau, that the last error estimate allows.
        self.reach = math.inf
        self.rejections = 0

    def _node(self, pt: ManifoldPoint, t: float) -> _CompositeNode:
        g_inv = pt.metric.g_inv
        w = g_inv @ self.F0
        f = math.sqrt(max(float(self.F0 @ w), 0.0))
        dg = self.manifold.metric_derivative(pt.A, pt.aux)
        u = (dg @ w) @ w  # dg[w] . w; dg is totally symmetric
        return _CompositeNode(t, f, float(w @ u) / (2.0 * f), pt, w, -(g_inv @ u), dg)

    def _step(self, a: _CompositeNode, t_p: float, gap: float | None):
        """One step from node ``a`` to force scale ``t_p``, or with ``gap`` to
        the t near it where tau has advanced by ``gap``: the new node, the
        tau from ``a`` to it, and the error of the step.

        The error is the larger of two third-order terms that the Taylor
        predictor misses: the gap between the Hermite tau to the predicted
        point and the quadratic Taylor model of it about ``a``, and the
        metric length of the Newton correction of A above its rounding.
        Each passes through zero somewhere along a curve, where alone it
        would let the steps grow until the Hermite rule's own error shows
        (1e-11 in tau on the E-only gas pair at spacing 0.2, against 7e-13
        with both)."""
        system, F0 = self.manifold, self.F0
        delta = a.t - t_p
        if not delta > 0.0:
            raise StepCollapseError(
                f"the continuation stalls at {a.t:.6g} F0: its steps fall below the resolution of t"
            )
        # predict: the Taylor step of A, from the exact derivatives at a
        p = system.point(a.pt.A + delta * a.w + (0.5 * delta * delta) * a.acc, warm=a.pt.aux)
        q = self._node(p, t_p)
        miss = p.force - t_p * F0
        back = p.metric.g_inv @ miss  # p's Newton step onto the curve at t_p
        f_p = q.f - float(q.w @ ((q.dg @ back) @ q.w)) / (2.0 * q.f)
        tau_p = _hermite(delta, a.f, a.fp, f_p, q.fp)
        # the metric length of back, less what the rounding of A and of the
        # forces lam and lam', whose difference F is, puts into it
        scale = system.force_scale(p)
        noise = _PC_NOISE * (
            math.sqrt(float(scale @ p.metric.g_inv @ scale)) + math.sqrt(float(p.A @ p.metric.g @ p.A))
        )
        error = max(
            abs(tau_p - (a.f * delta - 0.5 * a.fp * delta * delta)),
            math.sqrt(max(float(miss @ back), 0.0)) - noise,
        )
        t = t_p if gap is None else t_p + (tau_p - gap) / f_p  # dtau/dt = -f
        # correct: one Newton step of (A, t) onto F(A) = t F0
        b = self._node(system.point(p.A + back - (t - t_p) * q.w, warm=p.aux), t)
        return b, _hermite(a.t - t, a.f, a.fp, b.f, b.fp), error

    def _accepts(self, a: _CompositeNode, length: float, error: float) -> bool:
        """Whether a step of tau-length ``length`` with error ``error`` is
        kept, setting the reach of the steps after it.

        The error grows as length^3, so the allowed length goes as the
        square root of the bound over the error."""
        if error <= PC_TOL * length:
            self.rejections = 0
            self.reach = (
                0.9 * length * math.sqrt(PC_TOL * length / error) if error > 0.0 else math.inf
            )
            return True
        self.rejections += 1
        if self.rejections > _PC_REJECTIONS:
            raise StepCollapseError(
                f"the continuation stalls at {a.t:.6g} F0: {_PC_REJECTIONS} shorter steps failed"
            )
        shrink = 0.9 * math.sqrt(PC_TOL * length / error) if math.isfinite(error) else 0.5
        self.reach = length * max(0.1, min(0.5, shrink))
        return False

    def _walk(self, a: _CompositeNode, left: float, t_end: float):
        """From node ``a``, the node where tau has advanced by ``left``, or the
        node at force scale ``t_end`` if that comes first; with the tau from
        ``a`` to it and that tau minus ``left``.

        Steps are as long as the reach allows.  A step aims at the tau goal
        where the quadratic Taylor model of tau about its start reaches the
        goal before ``t_end``, and otherwise at ``t_end``, or a fraction of
        the way there.  Which end comes first is settled by measured steps,
        not by the model: a step at the goal whose corrected t falls to
        ``t_end`` or below is followed by a step at ``t_end``, and a step at
        ``t_end`` that measures more tau than is left is redone at the goal,
        predicted by inverting the Hermite model of tau over that step.
        """
        total, goal = 0.0, left
        over = None  # a step from a past the goal: its node and its tau
        aim_end = False  # the goal is not known to come before t_end
        while True:
            span = a.t - t_end
            if over is not None:
                parts, gap = 1, goal
                t_p = a.t - _hermite_root(a, over[0], over[1], goal)
            else:
                delta = math.inf
                if not aim_end and goal < math.inf:
                    parts = max(1, math.ceil(goal / self.reach))
                    gap = goal / parts
                    # the root of the quadratic Taylor model of tau about a.t
                    disc = a.f * a.f - 2.0 * a.fp * gap
                    if disc > 0.0:
                        delta = 2.0 * gap / (a.f + math.sqrt(disc))
                if delta < span:
                    t_p = a.t - delta
                else:
                    parts = max(1, math.ceil(a.f * span / self.reach))
                    gap, t_p = None, (a.t - span / parts if parts > 1 else t_end)
            try:
                b, dtau, error = self._step(a, t_p, gap)
            except _STEP_ERRORS:
                b, dtau, error = None, 0.0, math.inf
            measured, over = over, None
            if measured is not None and math.isfinite(error):
                pass  # inside a step already accepted, so within its bound
            elif not self._accepts(a, a.f * (a.t - t_p) if gap is None else gap, error):
                continue
            if gap is None:
                if dtau > goal:
                    over = (b, dtau)
                    continue
                aim_end = False
                total, goal, a = total + dtau, goal - dtau, b
                if b.t == t_end:
                    return b, total, -goal
                continue
            if measured is not None and b.t <= measured[0].t:
                b, dtau = measured  # the goal is the measured end, to rounding
            elif b.t <= t_end:
                aim_end = True
                continue
            total, goal, a = total + dtau, goal - dtau, b
            if parts == 1:
                return b, total, -goal

    def seek(self, a: _CompositeNode, tau_a: float, target: float, off: float):
        """From node ``a`` at true tau ``tau_a + off``: the node at ``target``
        and its true tau less ``target``, or None past the maximum."""
        node, _, miss = self._walk(a, (target - tau_a) - off, 0.0)
        return None if node.t <= 0.0 else (node, miss)

    def toward(self, a: _CompositeNode, t: float):
        """The node at force scale t < a.t, and the tau from ``a`` to it."""
        node, total, _ = self._walk(a, math.inf, t)
        return node, total

    def point(self, node: _CompositeNode) -> ManifoldPoint:
        if node.t == 0.0:
            # the maximum, where the force vanishes by construction
            return replace(node.pt, force=np.zeros_like(node.pt.force))
        return node.pt

    def end_speed(self, node: _CompositeNode, end: ManifoldPoint) -> float:
        # the velocity dA/dtau = w / f stays defined at the maximum
        return end.metric.squared_norm_of_vector(node.w / node.f)


def _ray_trajectory(
    ray, recorded: list, tau_max: float, spacing: float, sigma_eq: float
) -> Trajectory:
    """Walk the composite ``ray`` in its force scale t from the one recorded
    (0, start), appending rows at tau = k * spacing to ``recorded``, up to
    ``tau_max`` or, if that comes later, the rows of ``_ray_landing``.
    """
    # The last row is ``node``, recorded at tau_a; off_a is its true tau minus
    # tau_a.  Residuals are sums of these small differences, so rounding does
    # not pile up over the rows.
    node, tau_a, off_a = ray.start, 0.0, 0.0
    k = 1
    while True:
        target = k * spacing
        if target >= tau_max - 0.5 * spacing:
            target = tau_max
        found = ray.seek(node, tau_a, target, off_a)
        if found is None or (found[0].t * found[0].f <= 2.0 * sigma_eq and target < tau_max):
            return _ray_landing(ray, recorded, node, tau_a + off_a, sigma_eq)
        node, off_a = found
        recorded.append((target, ray.point(node)))
        tau_a = target
        if target == tau_max:
            return _trajectory(ray.manifold, recorded, "tau-budget-exhausted")
        k += 1


def _ray_landing(ray, recorded: list, node, tau: float, sigma_eq: float) -> Trajectory:
    """End the rows at the maximum t = 0, from the last row ``node``, at true
    intrinsic time ``tau``, when the next grid row lies beyond the maximum
    or has sigma at most 2 ``sigma_eq``.

    Like an RK4 run, whose step near the maximum is sigma/2, rows go on
    while sigma = t f exceeds 2 ``sigma_eq``, t halving from row to row,
    and the maximum takes the place of the first row at or below it.  So a
    start near the maximum still records rows for the analyses, and no
    interval is much shorter than ``sigma_eq``.
    """
    while True:
        node, dtau = ray.toward(node, 0.5 * node.t)
        tau += dtau
        if node.t * node.f <= 2.0 * sigma_eq:
            break
        recorded.append((tau, ray.point(node)))
    node, dtau = ray.toward(node, 0.0)
    end = ray.point(node)
    recorded.append((tau + dtau, end))
    speed = ray.end_speed(node, end)
    return _trajectory(ray.manifold, recorded, "equilibrium-reached", end_speed=speed)


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
    after one Legendre inversion at A0 (see the module docstring); a rate
    from ``ray_rate`` that is not finite and > 0, or a metric from
    ``ray_states`` that is not finite and positive definite, raises
    SingularModelError.  A ``CompositeSystem`` is traced on the curve
    F(A) = t F0 by predictor-corrector continuation in t, each row
    warm-starting its solves from the point before it.  Either way rows sit
    at tau = k * h * ``record_every``.  Where the next such row would lie
    past the entropy maximum or have sigma at most ``2 * sigma_eq``, rows go
    on with sigma halving while it exceeds ``2 * sigma_eq``.  The run ends with status
    ``equilibrium-reached`` at the maximum itself (t = 0, sigma = 0, at its
    exact tau), or ``tau-budget-exhausted`` at ``tau_max``.  A quadrature
    that does not converge, or a continuation that cannot go on, raises
    StepCollapseError with the rows so far.

    Any other manifold (a chart, the ideal gas, whose entropy has no
    maximum) is integrated by classical RK4 with fixed base step ``h``,
    capped at sigma/2; a step is halved (at most ``max_halvings`` times)
    when a solver error occurs inside the stencil, the step crosses the
    entropy maximum, or the post-step unit-speed residual exceeds
    SPEED_RESIDUAL_TOL.  The run ends ``equilibrium-reached`` at the first
    state with sigma at most ``2 * sigma_eq``, or ``tau-budget-exhausted``
    at ``tau_max``; every ``record_every``-th step is recorded, and each
    solve is warm-started from the previous step.
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
    family_ray = isinstance(manifold, FamilyManifold) and _has_maximum(manifold.family)
    if family_ray or isinstance(manifold, CompositeSystem):
        try:
            if family_ray:
                return _family_ray(manifold.family, pt, tau_max, h * record_every, sigma_eq)
            ray = _CompositeRay(manifold, pt)
            return _ray_trajectory(ray, recorded, tau_max, h * record_every, sigma_eq)
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
