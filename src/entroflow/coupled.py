"""Two subsystems exchanging conserved quantities.

The total entropy is additive, S_T(A) = S(A) + S'(A_T - A), with the
conservation constraint eliminated by substitution: the reduced state A is
subsystem 1's share and A' = A_T - A is subsystem 2's.  Both Hessians then
enter the composite metric with a plus sign (the chain rule cancels the
cross-term sign), g_T(A) = g(A) + g'(A_T - A), whose derivative is
dg(A) - dg'(A_T - A).  The constrained flow is

    dA/dtau = g_T_inv . (lam - lam') / sigma_T,

which relaxes until the conjugate forces lam and lam' are equalized.
Since dF/dA = -g_T for the force F(A) = lam(A) - lam'(A_T - A), the flow
is the curve F(A) = t F0, t from 1 down to 0.  Its node at t is solved in
subsystem 1's natural parameter l: mu(l) + mu'(l - t F0) = A_T, whose
Jacobian is -(Cov + Cov'), the negated Hessian of the strictly convex
log Z(l) + log Z'(l - t F0) + l . A_T.  Each Newton step needs only the
families' batched forward maps, so closed-form and tabulated pairs take
the same path.  The rate's square is taken of F0 scaled by a power of two,
so it does not underflow near the maximum.

The artifact trusts the declared state variables: whether (E, N) is enough
to describe a given physical exchange is the modeller's call, not a
detectable condition.  The feasible set is the intersection {A feasible in
subsystem 1 and A_T - A feasible in subsystem 2}; its boundary raises.
"""

from __future__ import annotations

import numpy as np

from . import chebyshev
from .duality import _ROUNDING
from .errors import StepCollapseError
from .family import ExponentialFamily, _chunks, as_vector
from .geometry import (
    FamilyManifold, ManifoldPoint, StateManifold, _check_finite, _inverses, _symmetrize,
)

__all__ = ["CompositeSystem", "PairRay"]

#: A node of the ray takes one last, polishing Newton step once its residual
#: is below this times the spread of its statistics, or within _ROUNDING of
#: what rounding puts into it; quadratic convergence then leaves it at
#: rounding.
RAY_SOLVE_TOL = 1e-10
#: Most trial steps, halved ones included, for one batch of nodes, and most
#: halvings of one step.
_RAY_TRIALS = 500
_RAY_HALVINGS = 60


class CompositeSystem(StateManifold):
    """Two families plus conserved totals, viewed as one reduced manifold.

    Pairing is positional: statistic alpha of subsystem 1 exchanges against
    statistic alpha of subsystem 2, enforced by a label check.
    """

    def __init__(self, sys1: ExponentialFamily, sys2: ExponentialFamily, A_total):
        if sys1.n_dim != sys2.n_dim:
            raise ValueError(
                f"subsystem dimensions differ: {sys1.n_dim} vs {sys2.n_dim}"
            )
        if sys1.labels != sys2.labels:
            raise ValueError(
                "subsystem statistics are not compatible: "
                f"{sys1.labels} vs {sys2.labels}"
            )
        self.sys1 = sys1
        self.sys2 = sys2
        self.A_total = as_vector(A_total, sys1.n_dim, "A_total")
        if not np.all(np.isfinite(self.A_total)):
            raise ValueError("A_total must be finite")
        self._m1 = FamilyManifold(sys1)
        self._m2 = FamilyManifold(sys2)

    @property
    def dim(self) -> int:
        return self.sys1.n_dim

    def point(self, A) -> ManifoldPoint:
        """The point at A, which keeps its subsystem points at A and at
        A_T - A as ``p1`` and ``p2``, each checked by its own family.  Both
        metrics are checked symmetric positive definite, so their sum is
        too, exactly symmetric, and only its finiteness is checked.

        A_T - A rounds, and near a boundary its rounding error e is large
        next to the small share, so the force would carry it into the whole
        ray.  e is taken exactly by a two-sum, and corrects subsystem 2's
        force and entropy to first order through what its point holds:
        lam'(A_T - A) = lam'(p2.A + e) ~ p2.force - p2.g e and
        S'(A_T - A) ~ p2.S + p2.force . e."""
        A = as_vector(A, self.dim, "A")
        A2 = self.A_total - A
        p1 = self._m1.point(A)
        p2 = self._m2.point(A2)
        g = p1.g + p2.g
        _check_finite(g, "metric")
        force2, S2, e = p2.force, p2.S, _two_sum_error(self.A_total, -A, A2)
        if np.any(e):
            force2, S2 = force2 - p2.g @ e, S2 + p2.force @ e
        return ManifoldPoint(A=A, force=p1.force - force2, S=p1.S + S2, g=g, p1=p1, p2=p2)


def _two_sum_error(a, b, s):
    """(a + b) - s exactly, for s = fl(a + b) (Knuth's two-sum)."""
    a_s = s - b
    b_s = s - a_s
    return (a - a_s) + (b - b_s)


class PairRay:
    """The curve F(A) = t F0 of ``system`` through its point ``start`` at
    t = 1, with the contract of a family's ``ray``: the arclength rate in
    ``rate`` and the states of the flow's rows in ``states``, with subsystem
    1's force l, from which ``flow._ray`` forms the pair's columns.

    Each node is solved in subsystem 1's natural parameter l by a batched,
    damped Newton iteration; see the module docstring.  ``rate`` is asked
    for whole Chebyshev panels of the table of tau, and keeps the Chebyshev
    series of each leaf panel's solved l, chopped at its rounding plateau,
    which is noise, to one plus the highest degree its leaves reach: a node
    starts from the latest-made leaf that holds it, and a split panel gives
    way to its halves, so once the table is done the leaves are its accepted
    panels.  Until the first panel is solved, the one leaf is the tangent
    l(1) + (t - 1) dl/dt, with dl/dt = g . g_T^-1 . F0 from the metrics the
    start point holds.  A node whose start lies outside a natural domain
    starts instead from the piecewise-linear interpolation in t of the
    table's nodes solved so far, which ``rate`` records unsorted and which
    are sorted only for that start: the natural domains are convex, so that
    start lies inside both.  A row of ``states`` whose start is already
    within rounding costs one evaluation; the table's nodes, whose rates
    set tau, are always polished.
    """

    def __init__(self, system: CompositeSystem, start: ManifoldPoint):
        self.system = system
        self.F0 = start.force
        # F0 scaled by the power of two that brings max|F0| into [1/2, 1)
        self._exponent = np.frexp(np.max(np.abs(self.F0)))[1]
        self._unit = np.ldexp(self.F0, -self._exponent)
        lam, g = start.p1.force, start.p1.g  # subsystem 1's lam and metric at t = 1
        self.known = [(np.ones(1), lam[None, :].copy())]  # the solved (t, l), unsorted
        self.lo, self.hi = np.zeros(1), np.ones(1)
        # the tangent in s = 2 t - 1, degree first and panels last
        half_slope = 0.5 * g @ (start.g_inv @ self.F0)
        self.series = np.stack([lam - half_slope, half_slope])[:, :, None]

    def rate(self, ts: np.ndarray) -> np.ndarray:
        """The arclength rate f = (F0 . g_T^-1 . F0)^(1/2) at each t of
        whole panels of chebyshev.POINTS points (see ``chebyshev.nodes``),
        its square taken of F0 scaled by a power of two, exactly."""
        l, state = self.solve(ts, rows=False)
        self.known.append((ts, l))
        panels = np.reshape(ts, (-1, chebyshev.POINTS))
        series = chebyshev.coefficients(l.reshape(panels.shape + (len(self.F0),)))
        for p, k in np.ndindex(series.shape[0], series.shape[2]):  # past the rounding plateau
            series[p, chebyshev.chop(series[p, :, k], np.finfo(float).eps):, k] = 0.0
        # a split panel gives way to its halves, the lower of which starts at its lo
        keep = ~np.any(self.lo[:, None] == panels[:, 0], axis=1)
        self.lo, self.hi = np.append(self.lo[keep], panels[:, 0]), np.append(self.hi[keep], panels[:, -1])
        leaves = np.zeros((chebyshev.POINTS, len(self.F0), len(self.lo)))
        leaves[:len(self.series), :, :-len(panels)] = self.series[:, :, keep]
        leaves[:, :, -len(panels):] = series.transpose(1, 2, 0)
        # the series stay at one plus the highest degree with a nonzero coefficient
        self.series = leaves[:np.max(np.flatnonzero(np.any(leaves, axis=(1, 2))), initial=0) + 1].copy()
        return np.ldexp(np.sqrt(np.maximum(state["rate2"], 0.0)), self._exponent)

    def _start(self, ts: np.ndarray) -> np.ndarray:
        """l at each t from the series of the latest-made leaf that holds it."""
        inside = (self.lo <= ts[:, None]) & (ts[:, None] <= self.hi)
        j = len(self.lo) - 1 - np.argmax(inside[:, ::-1], axis=1)
        lo, hi = self.lo[j], self.hi[j]
        l = chebyshev.clenshaw(self.series[:, :, j], (2.0 * ts - lo - hi) / (hi - lo))
        # in C order, since the einsum of ``chebyshev.coefficients`` rounds by memory order
        return np.ascontiguousarray(l.T)

    def states(self, ts: np.ndarray):
        """(A, S, g_inv, l) at each t: the means A of subsystem 1, the total
        entropies, the inverse metrics g_T^-1 and subsystem 1's forces l, from
        which the flow forms lam = l, lam' = l - t F0 and A' = A_T - A."""
        l, state = self.solve(ts, rows=True)
        return state["A"], state["S"], state["g_inv"], l

    def _evaluate(self, l: np.ndarray, shift: np.ndarray, rows: bool, ahead: bool = False):
        """At nodes l (rows) with forces t F0 = ``shift``: the Newton steps,
        the potential phi = log Z(l) + log Z'(l') + l . A_T, the decrease
        -grad phi . step it predicts, the rounding of phi and whether the
        residual is small.  The inverse of the Hessian Cov + Cov' of phi
        gives the step and, for the table's nodes, from (Cov + Cov')^-1 Cov'
        F0, the square of the rate for the scaled F0; for ``rows`` it gives
        the inverse metrics g_T^-1 = Cov (Cov + Cov')^-1 Cov', and they also
        get the means A and the total entropies S.  With ``ahead`` (rows
        only, at their starts) they also get whether the residual is within
        what rounding puts into it, and the means and total entropy that one
        more Newton step gives, to first order.  Rows outside either natural
        domain come back non-finite."""
        pair = self.system
        with np.errstate(all="ignore"):
            A, S, cov = pair.sys1.natural_states(l)
            l2 = l - shift
            A2, S2, cov2 = pair.sys2.natural_states(l2)
            residual = A + A2 - pair.A_total  # -grad phi
            right = cov2 if rows else (cov2 @ self._unit)[:, :, None]
            solved = _inverses(cov + cov2) @ np.concatenate([residual[:, :, None], right], axis=2)
            step = solved[:, :, 0]
            lA, l2A2 = np.einsum("ki,ki->k", l, A), np.einsum("ki,ki->k", l2, A2)
            lA_T = l @ pair.A_total
            spread = (np.sqrt(np.abs(np.diagonal(cov, axis1=1, axis2=2)))
                      + np.sqrt(np.abs(np.diagonal(cov2, axis1=1, axis2=2))))
            # what the rounding of the means, and of l through both subsystems'
            # covariances and of l' through subsystem 2's, puts into the residual
            rounding = (np.abs(A) + np.abs(A2) + np.abs(pair.A_total)
                        + np.einsum("kij,kj->ki", np.abs(cov), np.abs(l))
                        + np.einsum("kij,kj->ki", np.abs(cov2), np.abs(l) + np.abs(l2)))
            bound = _ROUNDING * rounding
            state = {
                "step": step,
                "phi": S + S2 - lA - l2A2 + lA_T,
                "decrease": np.einsum("ki,ki->k", residual, step),
                "noise": 1e-14 * (np.abs(S) + np.abs(S2) + np.abs(lA) + np.abs(l2A2) + np.abs(lA_T)),
                "small": np.all(np.abs(residual) <= RAY_SOLVE_TOL * spread + bound, axis=1),
            }
            if rows:
                state["A"], state["S"] = A, S + S2
                state["g_inv"] = _symmetrize(cov @ solved[:, :, 1:])
            else:
                state["rate2"] = np.einsum("ki,ki->k", cov @ self._unit, solved[:, :, 1])
            if ahead:
                state["exact"] = np.all(np.abs(residual) <= bound, axis=1)
                # one more Newton step moves A by -Cov . step; the total entropy
                # of (A, A_T - A) then moves by lam . dA + lam' . (-residual - dA)
                move = -np.einsum("kij,kj->ki", cov, step)
                state["A_next"] = A + move
                state["S_next"] = S + (S2 + (np.einsum("ki,ki->k", shift, move)
                                             - np.einsum("ki,ki->k", l2, residual)))
        finite = (np.isfinite(state["phi"]) & np.isfinite(state["decrease"])
                  & np.all(np.isfinite(step), axis=1))
        return state, finite

    def solve(self, ts: np.ndarray, rows: bool):
        """l at each t and the columns of its last evaluation (see
        ``_evaluate``), solved as ``rows`` or as nodes of the table (see
        ``_solve_run``) in runs whose d x (d + 1) Newton systems hold at most
        RAY_CHUNK entries (see ``family._chunks``)."""
        ts = np.asarray(ts, dtype=float)
        width = self.F0.size * (self.F0.size + 1)
        runs = [self._solve_run(ts[run], rows) for run in _chunks(len(ts), width)]
        return (np.concatenate([l for l, _ in runs]),
                {key: np.concatenate([state[key] for _, state in runs]) for key in runs[0][1]})

    def _solve_run(self, ts: np.ndarray, rows: bool):
        """``solve`` on one run of nodes.

        A trial step is halved while it leaves a domain or fails the Armijo
        test on phi, unless phi cannot resolve the decrease the step
        predicts, and the step after a halved one may be twice as long; once
        a node's residual is small, one full step more polishes it.  Of
        ``rows``, those whose first residual is already within rounding take
        that step to first order instead, with no evaluation: l + step, its
        means and its total entropy.  StepCollapseError when a node does not
        converge."""
        shift = np.multiply.outer(ts, self.F0)
        l = self._start(ts)
        state, finite = self._evaluate(l, shift, rows, ahead=rows)
        if not np.all(finite):
            out = np.flatnonzero(~finite)
            known_t, known_l = (np.concatenate(part) for part in zip(*self.known))
            order = np.argsort(known_t, kind="stable")
            l[out] = np.column_stack([np.interp(ts[out], known_t[order], col) for col in known_l[order].T])
            new, finite = self._evaluate(l[out], shift[out], rows, ahead=rows)
            if not np.all(finite):
                t = ts[out[np.flatnonzero(~finite)[0]]]
                raise StepCollapseError(f"the pair's states at t = {t:.6g} are not finite")
            for key, column in state.items():
                column[out] = new[key]
        pending = np.arange(len(ts))
        if rows:
            exact = state.pop("exact")
            l[exact] += state["step"][exact]
            state["A"][exact] = state.pop("A_next")[exact]
            state["S"][exact] = state.pop("S_next")[exact]
            pending = pending[~exact]
        last = state["small"].copy()  # the next step of the node polishes it
        frac = np.ones(len(ts))
        for _ in range(_RAY_TRIALS):
            if not pending.size:
                break
            trial = l[pending] + frac[pending, None] * state["step"][pending]
            new, ok = self._evaluate(trial, shift[pending], rows)
            decrease = state["decrease"][pending]
            armijo = new["phi"] <= state["phi"][pending] - 1e-4 * frac[pending] * decrease
            ok &= last[pending] | armijo | (decrease <= state["noise"][pending])
            took, done = pending[ok], ok & last[pending]
            l[took] = trial[ok]
            for key, column in state.items():
                column[took] = new[key][ok]
            last[took] = new["small"][ok]
            # a node that needed a short step may take twice as long a step
            # next, and the polishing step is a full one
            frac[took] = np.where(last[took], 1.0, np.minimum(2.0 * frac[took], 1.0))
            frac[pending[~ok]] *= 0.5
            if np.any(frac < 0.5**_RAY_HALVINGS):
                t = ts[np.argmin(frac)]
                raise StepCollapseError(f"the Newton solve of the pair at t = {t:.6g} stalls")
            pending = pending[~done]
        else:
            raise StepCollapseError(
                f"the Newton solve of the pair does not converge in {_RAY_TRIALS} steps"
            )
        return l, state
