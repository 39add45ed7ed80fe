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
the same path.

The artifact trusts the declared state variables: whether (E, N) is enough
to describe a given physical exchange is the modeller's call, not a
detectable condition.  The feasible set is the intersection {A feasible in
subsystem 1 and A_T - A feasible in subsystem 2}; its boundary raises.
"""

from __future__ import annotations

import numpy as np

from . import chebyshev
from .errors import StepCollapseError
from .family import ExponentialFamily, as_vector
from .geometry import (
    FamilyManifold, ManifoldPoint, MetricTensor, StateManifold, _inverses, _symmetrize,
)

__all__ = ["CompositeSystem", "PairRay"]

#: A node of the ray takes one last, polishing Newton step once its residual
#: is below this times the spread of its statistics, or within _ROUNDING of
#: what rounding puts into it; quadratic convergence then leaves it at
#: rounding.
RAY_SOLVE_TOL = 1e-10
_ROUNDING = 64.0 * np.finfo(float).eps
#: Most trial steps, halved ones included, for one batch of nodes, and most
#: halvings of one step.
_RAY_TRIALS = 500
_RAY_HALVINGS = 60
#: Most nodes one Newton iteration holds, which bounds its temporaries.
_RAY_RUN = 1024


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

    @property
    def labels(self) -> tuple[str, ...]:
        return self.sys1.labels

    def check_feasible(self, A) -> np.ndarray:
        A = as_vector(A, self.dim, "A")
        self.sys1.check_feasible(A)
        self.sys2.check_feasible(self.A_total - A)
        return A

    def point(self, A) -> ManifoldPoint:
        A = as_vector(A, self.dim, "A")
        p1 = self._m1.point(A)
        p2 = self._m2.point(self.A_total - A)
        force = p1.force - p2.force
        met = MetricTensor.from_sum(p1.metric, p2.metric)
        return ManifoldPoint(
            A=A,
            force=force,
            S=p1.S + p2.S,
            metric=met,
            aux=(p1.aux, p2.aux),
        )

    def entropy(self, A) -> float:
        A = as_vector(A, self.dim, "A")
        return self._m1.entropy(A) + self._m2.entropy(self.A_total - A)

    def metric_derivative(self, A, aux: tuple) -> np.ndarray:
        aux1, aux2 = aux
        return self._m1.metric_derivative(A, aux1) - self._m2.metric_derivative(
            self.A_total - A, aux2
        )

    def trajectory_columns(self, points) -> dict:
        """Each subsystem's force and the subsystem-2 state.  The
        conservation residual max|A + A' - A_T| is zero by construction; it
        is kept as a regression guard."""
        A = np.array([pt.A for pt in points])
        A_prime = self.A_total - A
        return {
            "lam": np.array([pt.aux[0][0] for pt in points]),
            "lam_prime": np.array([pt.aux[1][0] for pt in points]),
            "A_prime": A_prime,
            "conservation_residual": np.max(np.abs(A + A_prime - self.A_total), axis=1),
        }


class PairRay:
    """The curve F(A) = t F0 of ``system`` through the state whose
    subsystem 1 has natural parameter ``lam`` at t = 1, with the contract
    of a family's ``ray``: the arclength rate in ``rate`` and the states of
    the flow's rows in ``states``.

    Each node is solved in subsystem 1's natural parameter l by a batched,
    damped Newton iteration; see the module docstring.  ``rate`` is asked
    for whole Chebyshev panels of the table of tau, and keeps the Chebyshev
    series of each panel's solved l, chopped at its rounding plateau, which
    is noise; each new node starts from the series of the deepest panel
    that holds it, which is l at t = 1 until the first panel is solved.  A
    node whose start lies outside a natural domain starts instead from the
    piecewise-linear interpolation in t of the nodes solved so far, by
    either kernel: the natural domains are convex, so that start lies
    inside both.  A row of ``states`` whose start is already within
    rounding costs one evaluation; the table's nodes, whose rates set tau,
    are always polished.
    """

    def __init__(self, system: CompositeSystem, F0, lam):
        self.system = system
        self.F0 = np.asarray(F0, dtype=float)
        self.known_t = np.ones(1)
        self.known_l = np.asarray(lam, dtype=float)[None, :].copy()
        self.lo, self.hi = np.zeros(1), np.ones(1)
        self.series = np.zeros((chebyshev.POINTS, 1, len(self.F0)))  # degree first
        self.series[0, 0] = self.known_l[0]

    def rate(self, ts: np.ndarray) -> np.ndarray:
        """The arclength rate f = (F0 . g_T^-1 . F0)^(1/2) at each t of
        whole panels of chebyshev.POINTS points (see ``chebyshev.nodes``)."""
        l, _, g_inv, _ = self.solve(ts, rows=False)
        panels = np.reshape(ts, (-1, chebyshev.POINTS))
        self.lo, self.hi = np.append(self.lo, panels[:, 0]), np.append(self.hi, panels[:, -1])
        series = chebyshev.coefficients(l.reshape(panels.shape + (len(self.F0),)))
        for panel in series:
            for c in panel.T:  # each component's coefficients, past the rounding plateau
                c[chebyshev.chop(c, np.finfo(float).eps):] = 0.0
        self.series = np.concatenate([self.series, series.transpose(1, 0, 2)], axis=1)
        return np.sqrt(np.maximum(np.einsum("i,kij,j->k", self.F0, g_inv, self.F0), 0.0))

    def _start(self, ts: np.ndarray) -> np.ndarray:
        """l at each t from the series of the deepest panel that holds it."""
        inside = (self.lo <= ts[:, None]) & (ts[:, None] <= self.hi)
        j = len(self.lo) - 1 - np.argmax(inside[:, ::-1], axis=1)
        lo, hi = self.lo[j], self.hi[j]
        return chebyshev.clenshaw(self.series[:, j], (2.0 * ts - lo - hi) / (hi - lo))

    def states(self, ts: np.ndarray):
        """(A, S, g_inv, columns) at each t: the means A of subsystem 1, the
        total entropies, the inverse metrics g_T^-1 and the ``Trajectory``
        columns lam = l, lam' = l - t F0, A' = A_T - A and the conservation
        residual."""
        l, A, g_inv, S = self.solve(ts, rows=True)
        A_total = self.system.A_total
        A_prime = A_total - A
        columns = {
            "lam": l,
            "lam_prime": l - np.multiply.outer(ts, self.F0),
            "A_prime": A_prime,
            "conservation_residual": np.max(np.abs(A + A_prime - A_total), axis=1),
        }
        return A, S, g_inv, columns

    def _evaluate(self, l: np.ndarray, shift: np.ndarray):
        """At nodes l (rows) with forces t F0 = ``shift``: the means A, total
        entropies S, inverse metrics g_T^-1 = Cov (Cov + Cov')^-1 Cov' and
        Newton steps; the potential phi = log Z(l) + log Z'(l') + l . A_T,
        the decrease -grad phi . step it predicts, the rounding of phi,
        whether the residual is small and whether it is within what rounding
        puts into it, and the means and total entropy that one more Newton
        step gives, to first order.  Rows outside either natural domain come
        back non-finite."""
        pair = self.system
        with np.errstate(all="ignore"):
            A, S, cov = pair.sys1.natural_states(l)
            l2 = l - shift
            A2, S2, cov2 = pair.sys2.natural_states(l2)
            residual = A + A2 - pair.A_total  # -grad phi
            inv = _inverses(cov + cov2)
            step = np.einsum("kij,kj->ki", inv, residual)  # the Hessian of phi is Cov + Cov'
            terms = np.stack([S, S2, np.einsum("ki,ki->k", l, A),
                              np.einsum("ki,ki->k", l2, A2), l @ pair.A_total])
            spread = (np.sqrt(np.abs(np.diagonal(cov, axis1=1, axis2=2)))
                      + np.sqrt(np.abs(np.diagonal(cov2, axis1=1, axis2=2))))
            # what the rounding of the means, and of l and l' through the
            # covariances, puts into the residual
            size = np.abs(l) + np.abs(l2)
            rounding = (np.abs(A) + np.abs(A2) + np.abs(pair.A_total)
                        + np.einsum("kij,kj->ki", np.abs(cov) + np.abs(cov2), size))
            bound = _ROUNDING * rounding
            state = {
                "A": A,
                "S": S + S2,
                "g_inv": _symmetrize(cov @ inv @ cov2),
                "step": step,
                "phi": terms[0] + terms[1] - terms[2] - terms[3] + terms[4],
                "decrease": np.einsum("ki,ki->k", residual, step),
                "noise": 1e-14 * np.sum(np.abs(terms), axis=0),
                "small": np.all(np.abs(residual) <= RAY_SOLVE_TOL * spread + bound, axis=1),
                "exact": np.all(np.abs(residual) <= bound, axis=1),
            }
            # one more Newton step moves A by -Cov . step; the total entropy of
            # (A, A_T - A) then moves by lam . dA + lam' . (-residual - dA)
            move = -np.einsum("kij,kj->ki", cov, step)
            state["A_next"] = A + move
            state["S_next"] = S + (S2 + (np.einsum("ki,ki->k", shift, move)
                                         - np.einsum("ki,ki->k", l2, residual)))
        finite = (np.isfinite(state["phi"]) & np.isfinite(state["decrease"])
                  & np.all(np.isfinite(step), axis=1))
        return state, finite

    def solve(self, ts: np.ndarray, rows: bool):
        """l, the means A, the inverse metrics and the total entropies at
        each t, solved in runs of at most _RAY_RUN nodes, as ``rows`` or as
        nodes of the table (see ``_solve_run``)."""
        ts = np.asarray(ts, dtype=float)
        runs = [self._solve_run(ts[lo:lo + _RAY_RUN], rows) for lo in range(0, max(len(ts), 1), _RAY_RUN)]
        return tuple(np.concatenate(column) for column in zip(*runs))

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
        state, finite = self._evaluate(l, shift)
        if not np.all(finite):
            out = np.flatnonzero(~finite)
            l[out] = np.column_stack([np.interp(ts[out], self.known_t, col) for col in self.known_l.T])
            new, finite = self._evaluate(l[out], shift[out])
            if not np.all(finite):
                t = ts[out[np.flatnonzero(~finite)[0]]]
                raise StepCollapseError(f"the pair's states at t = {t:.6g} are not finite")
            for key, column in state.items():
                column[out] = new[key]
        exact = state["exact"] & rows
        l[exact] += state["step"][exact]
        state["A"][exact] = state["A_next"][exact]
        state["S"][exact] = state["S_next"][exact]
        last = state["small"].copy()  # the next step of the node polishes it
        frac = np.ones(len(ts))
        pending = np.flatnonzero(~exact)
        for _ in range(_RAY_TRIALS):
            if not pending.size:
                break
            trial = l[pending] + frac[pending, None] * state["step"][pending]
            new, ok = self._evaluate(trial, shift[pending])
            decrease = state["decrease"][pending]
            armijo = new["phi"] <= state["phi"][pending] - 1e-4 * frac[pending] * decrease
            ok &= last[pending] | armijo | (decrease <= state["noise"][pending])
            rows = pending[ok]
            l[rows] = trial[ok]
            for key, column in state.items():
                column[rows] = new[key][ok]
            done = last[rows]
            last[rows] = new["small"][ok]
            # a node that needed a short step may take twice as long a step
            # next, and the polishing step is a full one
            frac[rows] = np.where(last[rows], 1.0, np.minimum(2.0 * frac[rows], 1.0))
            frac[pending[~ok]] *= 0.5
            if np.any(frac < 0.5**_RAY_HALVINGS):
                t = ts[np.argmin(frac)]
                raise StepCollapseError(f"the Newton solve of the pair at t = {t:.6g} stalls")
            pending = np.setdiff1d(pending, rows[done], assume_unique=True)
        else:
            raise StepCollapseError(
                f"the Newton solve of the pair does not converge in {_RAY_TRIALS} steps"
            )
        order = np.argsort(np.append(self.known_t, ts), kind="stable")
        self.known_t = np.append(self.known_t, ts)[order]
        self.known_l = np.vstack([self.known_l, l])[order]
        return l, state["A"], state["g_inv"], state["S"]
