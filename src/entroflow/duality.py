"""Legendre duality between mean and natural coordinates.

The map lam -> A = -d log Z / d lam is inverted by Newton iteration on the
strictly convex potential F(lam) = log Z(lam) + lam . A, whose gradient is
A - mean_parameters(lam) and whose Hessian is the statistics covariance.
The maximized entropy follows from the identity S(A) = log Z(lam) + lam . A.

Families that declare closed-form duality (Bernoulli, the Gaussian location
family and the ideal gas) bypass the solver entirely: S, lam and the metric
come from analytic derivatives of the declared entropy surface.  Tabulated
families are the only ones that run the Newton iteration.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleMeanError, NoConvergenceError, SingularModelError
from .family import ExponentialFamily

__all__ = ["solve_lambda", "entropy"]

#: Stop when the mean-space residual drops below this (sup norm).
SOLVE_TOL = 1e-10
#: Treat the iteration as diverged (infeasible mean) past this lam norm.
DIVERGENCE_NORM = 1e8

_MAX_ITER = 200
_MAX_HALVINGS = 50
_ARMIJO = 1e-4


def _newton_direction(gap: np.ndarray, hess: np.ndarray, lam_norm: float) -> np.ndarray:
    try:
        return -np.linalg.solve(hess, gap)
    except np.linalg.LinAlgError:
        # Far out in natural-parameter space the distribution concentrates
        # on a hull vertex and the covariance underflows; close in, a
        # singular covariance means the model itself is degenerate.
        if lam_norm > 1e2:
            raise InfeasibleMeanError(
                "covariance collapsed while chasing an unattainable mean"
            ) from None
        raise SingularModelError(
            "singular covariance during Legendre inversion"
        ) from None


def solve_lambda(family: ExponentialFamily, A) -> np.ndarray:
    """Invert A = mean_parameters(lam) for lam.

    Newton iteration from lam = 0 with backtracking line search (halving,
    Armijo constant 1e-4) on F(lam) = log Z + lam . A; the covariance is the
    exact Hessian.

    After the residual meets SOLVE_TOL one extra full Newton step is taken
    and kept if it improves the residual: thanks to quadratic convergence
    this polishes lam to machine precision, so the covariance and third
    cumulant evaluated at lam (the metric and the connection) carry no
    trace of the solver tolerance.

    Raises InfeasibleMeanError when the iteration diverges (the requested
    mean lies outside the attainable set) and NoConvergenceError when the
    iteration budget is exhausted.
    """
    A = family.check_feasible(A)
    analytic = family.solve_mean(A)
    if analytic is not None:
        return np.asarray(analytic, dtype=float)

    lam = np.zeros(family.n_dim)
    value = family.log_partition(lam) + lam @ A

    def residual(l):
        return family.mean_parameters(l) - A

    gap = residual(lam)
    for iteration in range(_MAX_ITER):
        if np.max(np.abs(gap)) <= SOLVE_TOL:
            return _polish(family, A, lam, gap)
        # grad F = A - mean(lam) = -gap
        try:
            hess = family.covariance(lam)
        except SingularModelError:
            if iteration == 0:
                # Singular at the starting point: the model itself is
                # degenerate, not the requested mean.
                raise
            # The distribution concentrated on a hull facet while chasing
            # the target: the mean is outside the attainable open set.
            raise InfeasibleMeanError(
                f"covariance collapsed while chasing mean {A}; "
                "the target lies outside the attainable set"
            ) from None
        step = _newton_direction(-gap, hess, float(np.max(np.abs(lam))))
        slope = float(-gap @ step)  # grad F . step, negative for a descent step
        # F is a sum of log Z and lam . A, each as large as |lam . A| where
        # the statistics sit far from 0, so that sets its float resolution.
        if -slope <= 1e-14 * (1.0 + abs(value) + abs(float(lam @ A))):
            # Predicted decrease is below the float resolution of F: the
            # Armijo test cannot certify progress here, but the pure Newton
            # step still contracts the residual quadratically.
            cand = lam + step
            cand_value = family.log_partition(cand) + cand @ A
        else:
            t = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                cand = lam + t * step
                cand_value = family.log_partition(cand) + cand @ A
                if cand_value <= value + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                raise NoConvergenceError(
                    "line search stalled during Legendre inversion"
                )
        lam, value = cand, cand_value
        if np.max(np.abs(lam)) > DIVERGENCE_NORM:
            raise InfeasibleMeanError(
                f"solver diverged: mean {A} lies outside the attainable set"
            )
        gap = residual(lam)
    raise NoConvergenceError(
        f"Legendre inversion did not converge in {_MAX_ITER} iterations"
    )


def _polish(family, A, lam, gap):
    try:
        hess = family.covariance(lam)
        step = _newton_direction(-gap, hess, float(np.max(np.abs(lam))))
    except (InfeasibleMeanError, SingularModelError):
        return lam
    cand = lam + step
    cand_gap = family.mean_parameters(cand) - A
    if np.max(np.abs(cand_gap)) <= np.max(np.abs(gap)):
        return cand
    return lam


def entropy(family: ExponentialFamily, A) -> float:
    """Maximized entropy S(A) = log Z(lam(A)) + lam(A) . A."""
    A = family.check_feasible(A)
    surface = family.entropy_surface(A)
    if surface is not None:
        return float(surface)
    lam = solve_lambda(family, A)
    return float(family.log_partition(lam) + lam @ A)

