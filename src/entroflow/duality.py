"""Legendre duality between mean and natural coordinates, for tables.

The map lam -> A = -d log Z / d lam is inverted by Newton iteration on the
strictly convex potential F(lam) = log Z(lam) + lam . A, whose gradient is
A - <a> and whose Hessian is the statistics covariance.  All three come
from one row of the family's one forward map, ``natural_states``: it gives
the mean <a>, the entropy S = log Z + lam . <a> and the covariance at lam,
so F = S + lam . (A - <a>), and each trial of the iteration reads the
family once.  The solve's last evaluation, at the lam it returns, also
gives the maximized entropy S(A) and the covariance, whose inverse is the
metric; ``solve_lambda(family, A)`` returns all three.  The solve stops
within SOLVE_TOL of A, or within what rounding puts into the mean, which
is more for statistics that spread past about 1e6.

``solve_lambda`` is the Newton solve alone: it neither checks the mean nor
looks for closed forms.  A state is made in one place,
``geometry.FamilyManifold.point``, which checks the mean once and calls
the family's ``legendre`` once; families that declare closed-form duality
(Bernoulli, the Gaussian location family and the ideal gas) get lam and S,
with the metric and its derivative, from it, and only a table, which has
none, is solved here.  So lam is read as ``point(A).force`` and the
entropy as ``point(A).S``, for any family.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleMeanError, NoConvergenceError, SingularModelError
from .family import ExponentialFamily

__all__ = ["solve_lambda"]

#: Stop when the mean-space residual drops below this (sup norm), or below
#: what rounding puts into it, _ROUNDING times the statistics' scale.
SOLVE_TOL = 1e-10
#: What rounding puts into a residual, relative to the size of its terms.
_ROUNDING = 64.0 * np.finfo(float).eps
#: Treat the iteration as diverged (infeasible mean) past this lam norm.
DIVERGENCE_NORM = 1e8

_MAX_ITER = 200
_MAX_HALVINGS = 50
_ARMIJO = 1e-4


def _sup(x: np.ndarray) -> float:
    """max |x_i|, or inf if an entry is not finite."""
    values = x.tolist()
    return max(map(abs, values)) if math.isfinite(sum(values)) else math.inf


def _forward(family: ExponentialFamily, lam: np.ndarray, A: np.ndarray):
    """From one row of ``natural_states`` at lam: the residual <a> - A, S,
    the covariance and F = S - lam . (<a> - A)."""
    mean, S, cov = family.natural_states(lam[None, :])
    gap, S = mean[0] - A, float(S[0])
    return gap, S, cov[0], S - float(lam @ gap)


def _newton_step(gap: np.ndarray, cov: np.ndarray, lam: np.ndarray, A: np.ndarray,
                 first: bool) -> np.ndarray:
    """The Newton step Cov^-1 . gap (d<a>/dlam = -Cov), once Cov passes a
    Cholesky check."""
    try:
        if not math.isfinite(sum(cov.ravel().tolist())):
            raise np.linalg.LinAlgError
        np.linalg.cholesky(cov)
        return np.linalg.solve(cov, gap)
    except np.linalg.LinAlgError:
        if first:
            # singular at the starting point: the model itself is
            # degenerate, not the requested mean
            raise SingularModelError(
                "statistics covariance is not positive definite at lam = 0"
            ) from None
        # the distribution concentrated on a hull facet while chasing the
        # target: the mean is outside the attainable open set
        raise InfeasibleMeanError(
            f"covariance collapsed while chasing mean {A} at |lam| = {_sup(lam):.3g}; "
            "the target lies outside the attainable set"
        ) from None


def solve_lambda(family: ExponentialFamily, A: np.ndarray):
    """Invert A = <a>(lam) for lam at a mean A that has passed the family's
    ``check_feasible``, and return (lam, S, Cov): lam with the entropy and
    the statistics covariance of the last evaluation, at lam.

    Newton iteration from lam = 0 with backtracking line search (halving,
    Armijo constant 1e-4) on F(lam) = log Z + lam . A; the covariance is the
    exact Hessian.  Every trial, halved ones and the polish included, is one
    row of ``natural_states``.  Where the predicted decrease is below the
    float resolution of F, the Armijo test cannot certify progress, and the
    first, full trial is taken: the pure Newton step still contracts the
    residual quadratically.

    The iteration stops once the residual is within SOLVE_TOL, or within
    what rounding puts into the mean where the statistics are so large
    that this is more.  One extra full Newton step is then taken
    and kept if it improves the residual: thanks to quadratic convergence
    this polishes lam to machine precision, so the covariance and third
    cumulant evaluated at lam (the metric and the connection) carry no
    trace of the solver tolerance.

    Raises InfeasibleMeanError when the iteration diverges (the requested
    mean lies outside the attainable set) and NoConvergenceError when the
    iteration budget is exhausted.
    """
    lam = np.zeros(family.n_dim)
    gap, S, cov, value = _forward(family, lam, A)
    # the mean rounds at the scale of the statistics, so the residual falls
    # no lower than what rounding puts into it, bounded once, from lam = 0;
    # a non-finite start is left to the Newton step to reject
    bound = _ROUNDING * (_sup(A) + _sup(gap + A) + 8.0 * math.sqrt(_sup(np.diagonal(cov))))
    tol = max(SOLVE_TOL, bound) if bound < math.inf else SOLVE_TOL
    for iteration in range(_MAX_ITER):
        if _sup(gap) <= tol:
            return _polish(family, A, lam, gap, S, cov)
        step = _newton_step(gap, cov, lam, A, first=iteration == 0)
        slope = float(-gap @ step)  # grad F . step, negative for a descent step
        # F = log Z + lam . A has terms as large as |lam . A| where the
        # statistics sit far from 0, so that sets its float resolution.
        unresolved = -slope <= 1e-14 * (1.0 + abs(value) + abs(float(lam @ A)))
        t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = lam + t * step
            trial = _forward(family, cand, A)
            if unresolved or trial[3] <= value + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            raise NoConvergenceError(
                "line search stalled during Legendre inversion"
            )
        lam, (gap, S, cov, value) = cand, trial
        if _sup(lam) > DIVERGENCE_NORM:
            raise InfeasibleMeanError(
                f"solver diverged: mean {A} lies outside the attainable set"
            )
    raise NoConvergenceError(
        f"Legendre inversion did not converge in {_MAX_ITER} iterations"
    )


def _polish(family, A, lam, gap, S, cov):
    """One more full Newton step from a converged lam, kept with its S and
    covariance if it does not worsen the residual."""
    try:
        cand = lam + _newton_step(gap, cov, lam, A, first=False)
    except InfeasibleMeanError:
        return lam, S, cov
    cand_gap, cand_S, cand_cov, _ = _forward(family, cand, A)
    if _sup(cand_gap) <= _sup(gap):
        return cand, cand_S, cand_cov
    return lam, S, cov
