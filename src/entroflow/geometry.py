"""Fisher-Rao geometry of the state manifold.

In mean coordinates the metric is g = -Hess S(A), which by Legendre duality
equals the inverse covariance of the sufficient statistics.  A manifold's
``point(A)`` is one ``ManifoldPoint`` of arrays: the entropy S, the force,
the metric g, checked where the point is made, and, formed on first use,
the inverse metric, the entropy-gradient magnitude sigma and the metric
derivative.  From them this module builds the Levi-Civita connection,
covariant acceleration and the antisymmetric field-strength tensor of the
unit-speed gradient flow.

Everything operates through the small ``StateManifold`` interface, ``dim``
and ``point``, so that single families and coupled composite systems share
one implementation.  ``point`` is the one check of a state and the one path
from a mean to it: a family's mean is checked once by its
``check_feasible`` and inverted once, by its ``legendre`` or, for a table,
the Newton solve ``duality.solve_lambda``.
A Hessian metric is dually flat, so its connection and every derivative
of the flow field follow exactly from the metric derivative
dg[b] = d g / d A^b = -d^3 S / dA dA dA^b, which is totally symmetric: a
closed-form family's ``legendre`` gives it with lam, S and g at a point, a
tabulated family's point gets it on first use from the third cumulant of
its statistics, and a composite's point from its two subsystem points.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import duality
from .errors import AtEquilibriumError, SingularModelError
from .family import ExponentialFamily, as_vector

__all__ = [
    "ManifoldPoint",
    "StateManifold",
    "FamilyManifold",
    "as_manifold",
    "christoffel",
    "unit_velocity",
    "covariant_acceleration",
    "field_strength",
]

#: Below this gradient magnitude the flow direction is undefined.
SIGMA_MIN = 1e-10


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each of a stack of them."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _inverses(m: np.ndarray) -> np.ndarray:
    """Batched inverses, NaN for the matrices that are exactly singular."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        out = np.full_like(m, np.nan)
        for i, mi in enumerate(m):
            try:
                out[i] = np.linalg.inv(mi)
            except np.linalg.LinAlgError:
                pass
        return out


def _check_finite(m: np.ndarray, what: str) -> None:
    # The sum of the entries as Python floats is NaN or inf if any entry is,
    # and costs a fraction of a numpy reduction on these small matrices.
    if not math.isfinite(sum(m.ravel().tolist())):
        raise SingularModelError(f"{what} is not finite")


def _check_spd(m: np.ndarray, what: str) -> None:
    # Cholesky returns NaN factors for a NaN or inf matrix without raising.
    _check_finite(m, what)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SingularModelError(f"{what} is not positive definite") from None


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    _check_spd(m, what)
    return _symmetrize(np.linalg.inv(m))


def _checked_metric(g) -> np.ndarray:
    """g symmetrized, once it passes a Cholesky check."""
    g = _symmetrize(np.asarray(g, dtype=float))
    _check_spd(g, "metric")
    return g


@dataclass(frozen=True)
class ManifoldPoint:
    """Everything the dynamics needs at one state: the mean A, the force
    one-form driving the flow, the entropy S and the metric g, checked where
    the point is made.

    The inverse metric ``g_inv``, the gradient magnitude ``sigma`` and the
    metric derivative ``dg`` are formed on first use, so a subsystem metric
    that is only summed into a composite's is never inverted.  A closed-form
    family's point holds the ``dg`` its ``legendre`` gave, a table's point
    forms it from the third cumulant of its ``family`` at lam = force, and a
    composite's point from its subsystem points ``p1`` and ``p2``.
    """

    A: np.ndarray
    force: np.ndarray
    S: float
    g: np.ndarray
    family: ExponentialFamily | None = None
    p1: ManifoldPoint | None = None
    p2: ManifoldPoint | None = None

    @cached_property
    def g_inv(self) -> np.ndarray:
        return _symmetrize(np.linalg.inv(self.g))

    @cached_property
    def sigma(self) -> float:
        """The entropy gradient magnitude (lam . g_inv . lam)^(1/2), which is
        also the entropy production rate dS/dtau along the flow."""
        return float(np.sqrt(max(self.force @ self.g_inv @ self.force, 0.0)))

    @cached_property
    def dg(self) -> np.ndarray:
        """dg[b] = d g / d A^b.

        For a table, with dlam/dA = -g and d Cov / d lam = -k3 (the third
        cumulant of the statistics), d g / dA^b = -g (dCov/dA^b) g =
        -k3(g., g., g_b.).  A composite's is dg(A) - dg'(A_T - A).
        """
        if self.p1 is not None:
            return self.p1.dg - self.p2.dg
        k3, g = self.family.cumulants(self.force), self.g
        d = len(g)
        # contract each index of k3 with the symmetric g, one product each
        dg = (g @ (g @ k3.reshape(d, d * d)).reshape(d, d, d)) @ g
        # exact symmetry in the last two indices keeps Gamma exactly
        # symmetric in its lower indices
        return -0.5 * (dg + dg.transpose(0, 2, 1))


class StateManifold(ABC):
    """Minimal surface the geometry and flow layers build on."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def point(self, A) -> ManifoldPoint:
        """The checked state at A; raises where A has none."""


class FamilyManifold(StateManifold):
    """State manifold of a single exponential family."""

    def __init__(self, family: ExponentialFamily):
        self.family = family

    @property
    def dim(self) -> int:
        return self.family.n_dim

    def point(self, A) -> ManifoldPoint:
        """The point at A, once the family's ``check_feasible`` passes it:
        lam, S, g and dg from the family's ``legendre``, or for a table lam,
        S and the covariance from the last evaluation of its Newton solve,
        ``duality.solve_lambda``, so the table is not read again.
        A table's g is the inverse of that covariance, and its g_inv the
        covariance itself, so duality between the two Hessians holds to
        inversion accuracy."""
        fam = self.family
        A = fam.check_feasible(A)
        try:
            closed = fam.legendre(A)
        except ArithmeticError as exc:  # a float form under- or overflows: no state
            raise SingularModelError(
                f"the closed forms at A = {A.tolist()} leave the float range ({exc})") from None
        if closed is None:
            lam, S, cov = duality.solve_lambda(fam, A)
            pt = ManifoldPoint(A=A, force=lam, S=S, g=_spd_inverse(cov, "covariance"), family=fam)
            pt.__dict__["g_inv"] = cov  # fills the cache of the g_inv property
            return pt
        lam, S, g, dg = closed
        pt = ManifoldPoint(A=A, force=lam, S=S, g=_checked_metric(g))
        pt.__dict__["dg"] = dg
        return pt


def as_manifold(system) -> StateManifold:
    """Accept either an ExponentialFamily or any StateManifold."""
    if isinstance(system, StateManifold):
        return system
    if isinstance(system, ExponentialFamily):
        return FamilyManifold(system)
    raise TypeError(f"not a family or state manifold: {type(system).__name__}")


def unit_velocity(pt: ManifoldPoint) -> np.ndarray:
    """The unit-speed gradient-flow velocity g_inv . force / sigma.

    Raises AtEquilibriumError below SIGMA_MIN, where the direction of
    steepest entropy ascent is undefined.
    """
    if pt.sigma < SIGMA_MIN:
        raise AtEquilibriumError(
            f"entropy gradient magnitude {pt.sigma:.3e} below {SIGMA_MIN:.3e}; "
            "flow direction undefined"
        )
    return pt.g_inv @ pt.force / pt.sigma


# ---------------------------------------------------------------------------
# connection and derived tensors


def christoffel(system, A) -> np.ndarray:
    """Levi-Civita connection coefficients gamma[a, b, c] at an interior
    point, with lower indices (b, c).

    For the Hessian metric g = -Hess S the symbols reduce to
    Gamma^a_{bc} = (1/2) g^{ad} d_d g_{bc}, with the point's exact metric
    derivative ``dg``.  Symmetry in the lower indices is exact.  ``A`` is a
    state of ``system`` or a ``ManifoldPoint``, which fixes Gamma by itself,
    so ``system`` is then not read.
    """
    pt = A if isinstance(A, ManifoldPoint) else as_manifold(system).point(A)
    return 0.5 * np.einsum("ad,dbc->abc", pt.g_inv, pt.dg)


def _flow_terms(system, A):
    """Point, unit velocity v and c_b = (1/2) w.dg[b].w.

    w = g_inv . lam = sigma v.  With d_b lam_a = -g_ab, the gradient
    magnitude varies as d_b sigma = -(lam_b + c_b) / sigma.
    """
    pt = as_manifold(system).point(A)
    v = unit_velocity(pt)
    c = 0.5 * pt.sigma**2 * np.einsum("bij,i,j->b", pt.dg, v, v)
    return pt, v, c


def covariant_acceleration(system, A, A_dot=None) -> np.ndarray:
    """Absolute derivative of the flow velocity v along A_dot.

    D v^a / dtau = A_dot^b d_b v^a + Gamma^a_{bc} A_dot^b A_dot^c, in closed
    form from d_b lam_a = -g_ab and d_b sigma.  ``A_dot`` defaults to v,
    where this is -(g_inv . c - v (c . v)) / sigma^2.
    """
    m = as_manifold(system)
    pt, v, c = _flow_terms(m, A)
    g_inv, s = pt.g_inv, pt.sigma
    if A_dot is None:
        return -(g_inv @ c - v * (c @ v)) / s**2
    x = as_vector(A_dot, m.dim, "A_dot")
    dg_x = np.einsum("abc,c->ab", pt.dg, x)
    # d_b v = -g_inv . dg[b] . v - e_b / sigma + v (lam_b + c_b) / sigma^2
    dv = -g_inv @ (dg_x @ v) - x / s + v * ((pt.force + c) @ x) / s**2
    return dv + 0.5 * g_inv @ (dg_x @ x)


def field_strength(system, A) -> np.ndarray:
    """Antisymmetric tensor of covariant derivatives of the lowered velocity.

    f_{ab} = u_{a;b} - u_{b;a} for u_a = lam_a / sigma.  The symmetric
    connection terms cancel in the antisymmetrization, and so does the
    -g_ab / sigma part of d_b u_a, leaving
    f_{ab} = (lam_a c_b - lam_b c_a) / sigma^3; antisymmetry is exact.
    Raises AtEquilibriumError below SIGMA_MIN, like ``unit_velocity``.
    """
    pt, _, c = _flow_terms(system, A)
    lam = pt.force
    return (np.outer(lam, c) - np.outer(c, lam)) / pt.sigma**3
