"""Fisher-Rao geometry of the state manifold.

In mean coordinates the metric is g = -Hess S(A), which by Legendre duality
equals the inverse covariance of the sufficient statistics.  This module
packages the metric with its inverse, exposes the entropy-gradient
magnitude sigma, and builds the Levi-Civita connection, covariant
acceleration and the antisymmetric field-strength tensor of the unit-speed
gradient flow.

Everything operates through the small ``StateManifold`` interface so that
single families, coupled composite systems and reparametrized charts all
share one implementation.  Third derivatives of S (needed for the
connection) are obtained by central differences of the analytic metric:
one differencing layer on an exact quantity is far better conditioned than
triple differences of S itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import duality
from .errors import AtEquilibriumError, InfeasibleMeanError, SingularModelError, StepTooLargeError
from .family import ExponentialFamily, as_vector

__all__ = [
    "MetricTensor",
    "ConnectionCoefficients",
    "ManifoldPoint",
    "StateManifold",
    "FamilyManifold",
    "ReparametrizedManifold",
    "as_manifold",
    "metric",
    "fd_metric_oracle",
    "sigma",
    "christoffel",
    "unit_velocity",
    "covariant_acceleration",
    "field_strength",
]

#: Below this gradient magnitude the flow direction is undefined.
SIGMA_MIN = 1e-10
#: The lowered velocity field lam/sigma is too ill-conditioned to
#: differentiate below this threshold.
FIELD_SIGMA_MIN = 1e-6


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _check_spd(m: np.ndarray, what: str) -> None:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SingularModelError(f"{what} is not positive definite") from None


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    _check_spd(m, what)
    return _symmetrize(np.linalg.inv(m))


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive-definite metric.

    Positive definiteness is checked at construction; the inverse ``g_inv``
    is formed on first use, so a metric that is only summed into another
    (a subsystem of a composite) is never inverted.
    """

    g: np.ndarray

    @classmethod
    def from_matrix(cls, g: np.ndarray) -> "MetricTensor":
        g = _symmetrize(np.asarray(g, dtype=float))
        _check_spd(g, "metric")
        return cls(g=g)

    @classmethod
    def from_covariance(cls, cov: np.ndarray) -> "MetricTensor":
        """Build the metric as the inverse of a statistics covariance.

        The covariance itself is stored as the exact inverse, so duality
        between the two Hessians holds to inversion accuracy.
        """
        cov = _symmetrize(np.asarray(cov, dtype=float))
        met = cls(g=_spd_inverse(cov, "covariance"))
        met.__dict__["g_inv"] = cov  # fills the cache of the g_inv property
        return met

    @cached_property
    def g_inv(self) -> np.ndarray:
        return _symmetrize(np.linalg.inv(self.g))

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def norm_of_form(self, w: np.ndarray) -> float:
        """Length of a one-form: (w . g_inv . w)^(1/2)."""
        return float(np.sqrt(max(w @ self.g_inv @ w, 0.0)))

    def raise_form(self, w: np.ndarray) -> np.ndarray:
        return self.g_inv @ w

    def squared_norm_of_vector(self, v: np.ndarray) -> float:
        return float(v @ self.g @ v)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Levi-Civita Christoffel symbols, symmetric in the lower indices."""

    gamma: np.ndarray  # gamma[a, b, c] with lower indices (b, c)

    def contract(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("abc,b,c->a", self.gamma, u, v)


@dataclass(frozen=True)
class ManifoldPoint:
    """Everything the dynamics needs at one state: the entropy, the force
    one-form driving the flow, the metric and the gradient magnitude.

    ``sigma`` is computed from the force and the metric on first use.
    """

    A: np.ndarray
    force: np.ndarray
    S: float
    metric: MetricTensor
    aux: tuple = ()

    @cached_property
    def sigma(self) -> float:
        return self.metric.norm_of_form(self.force)


class StateManifold(ABC):
    """Minimal surface the geometry and flow layers build on."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def check_feasible(self, A) -> np.ndarray: ...

    @abstractmethod
    def point(self, A, warm: tuple | None = None) -> ManifoldPoint:
        """Evaluate state data at A.

        ``warm`` is the ``aux`` tuple of a previously computed nearby point
        and warm-starts any solver inside.
        """

    @abstractmethod
    def entropy(self, A) -> float: ...

    @abstractmethod
    def metric_matrix(self, A, warm: tuple | None = None) -> np.ndarray:
        """Raw symmetric metric matrix at A (no inverse)."""

    # Hooks used when assembling trajectory samples.
    def sample_lambda(self, pt: ManifoldPoint) -> np.ndarray:
        return pt.force

    def sample_extras(self, pt: ManifoldPoint) -> dict:
        return {}


class FamilyManifold(StateManifold):
    """State manifold of a single exponential family."""

    def __init__(self, family: ExponentialFamily):
        self.family = family

    @property
    def dim(self) -> int:
        return self.family.n_dim

    def check_feasible(self, A) -> np.ndarray:
        return self.family.check_feasible(A)

    def point(self, A, warm: tuple | None = None) -> ManifoldPoint:
        fam = self.family
        A = as_vector(A, fam.n_dim, "A")
        init = warm[0] if warm else None
        # solve_lambda checks A once; the closed-form hooks below take the
        # vector it accepted without checking it again.
        lam = duality.solve_lambda(fam, A, init=init)
        surface = fam.entropy_surface(A)
        S = (
            float(surface)
            if surface is not None
            else float(fam.log_partition(lam) + lam @ A)
        )
        hess = fam.neg_entropy_hessian(A)
        if hess is not None:
            met = MetricTensor.from_matrix(hess)
        else:
            met = MetricTensor.from_covariance(fam.covariance(lam))
        return ManifoldPoint(
            A=A,
            force=lam,
            S=S,
            metric=met,
            aux=(lam,),
        )

    def entropy(self, A) -> float:
        return duality.entropy(self.family, A)

    def metric_matrix(self, A, warm: tuple | None = None) -> np.ndarray:
        fam = self.family
        A = fam.check_feasible(A)
        hess = fam.neg_entropy_hessian(A)
        if hess is not None:
            return _symmetrize(np.asarray(hess, dtype=float))
        init = warm[0] if warm else None
        lam = duality.solve_lambda(fam, A, init=init)
        return _spd_inverse(_symmetrize(fam.covariance(lam)), "covariance")


class ReparametrizedManifold(StateManifold):
    """A manifold viewed through a smooth invertible change of coordinates.

    ``forward`` maps base coordinates A to new coordinates B, ``inverse``
    maps back, and ``jacobian(A)`` returns dB/dA.  The entropy is a scalar,
    the force transforms as a one-form and the metric as a (0,2) tensor, so
    the unit-speed gradient flow expressed in the new chart traces the same
    curve at the same intrinsic time.
    """

    def __init__(self, base: StateManifold, forward, inverse, jacobian):
        self.base = base
        self.forward = forward
        self.inverse = inverse
        self.jacobian = jacobian

    @property
    def dim(self) -> int:
        return self.base.dim

    def _to_base(self, B) -> np.ndarray:
        return as_vector(self.inverse(as_vector(B, self.dim, "B")), self.dim, "A")

    def check_feasible(self, B) -> np.ndarray:
        B = as_vector(B, self.dim, "B")
        self.base.check_feasible(self._to_base(B))
        return B

    def point(self, B, warm: tuple | None = None) -> ManifoldPoint:
        B = as_vector(B, self.dim, "B")
        A = self._to_base(B)
        pt = self.base.point(A, warm=warm)
        jac = np.atleast_2d(np.asarray(self.jacobian(A), dtype=float))
        jac_inv = np.linalg.inv(jac)
        force = jac_inv.T @ pt.force
        met = MetricTensor.from_matrix(jac_inv.T @ pt.metric.g @ jac_inv)
        return ManifoldPoint(
            A=B,
            force=force,
            S=pt.S,
            metric=met,
            aux=pt.aux,
        )

    def entropy(self, B) -> float:
        return self.base.entropy(self._to_base(B))

    def metric_matrix(self, B, warm: tuple | None = None) -> np.ndarray:
        B = as_vector(B, self.dim, "B")
        A = self._to_base(B)
        g = self.base.metric_matrix(A, warm=warm)
        jac = np.atleast_2d(np.asarray(self.jacobian(A), dtype=float))
        jac_inv = np.linalg.inv(jac)
        return _symmetrize(jac_inv.T @ g @ jac_inv)


def as_manifold(system) -> StateManifold:
    """Accept either an ExponentialFamily or any StateManifold."""
    if isinstance(system, StateManifold):
        return system
    if isinstance(system, ExponentialFamily):
        return FamilyManifold(system)
    raise TypeError(f"not a family or state manifold: {type(system).__name__}")


def unit_velocity(pt: ManifoldPoint, sigma_min: float = SIGMA_MIN) -> np.ndarray:
    """The unit-speed gradient-flow velocity g_inv . force / sigma.

    Raises AtEquilibriumError below ``sigma_min``, where the direction of
    steepest entropy ascent is undefined.
    """
    if pt.sigma < sigma_min:
        raise AtEquilibriumError(
            f"entropy gradient magnitude {pt.sigma:.3e} below {sigma_min:.3e}; "
            "flow direction undefined"
        )
    return pt.metric.raise_form(pt.force) / pt.sigma


# ---------------------------------------------------------------------------
# point evaluations


def metric(system, A) -> MetricTensor:
    """Fisher-Rao metric at A: -Hess S, i.e. the inverse statistics covariance."""
    return as_manifold(system).point(A).metric


def sigma(system, A) -> float:
    """Magnitude of the entropy gradient, (lam . g_inv . lam)^(1/2).

    This is also the entropy production rate dS/dl along the flow; it
    vanishes exactly at entropy maxima.
    """
    return as_manifold(system).point(A).sigma


def fd_metric_oracle(system, A, step: float = 1e-4) -> np.ndarray:
    """-Hess S(A) by central finite differences of the entropy.

    Independent verification route for ``metric``; intended for tests.
    Per-coordinate steps scale with (|A_i| + 1) because coordinates may
    span orders of magnitude.
    """
    m = as_manifold(system)
    A = m.check_feasible(A)
    n = m.dim
    h = step * (np.abs(A) + 1.0)
    center = m.entropy(A)

    def shifted(i, si, j=None, sj=0.0):
        x = A.copy()
        x[i] += si * h[i]
        if j is not None:
            x[j] += sj * h[j]
        return m.entropy(x)

    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (shifted(i, 1.0) - 2.0 * center + shifted(i, -1.0)) / h[i] ** 2
        for j in range(i + 1, n):
            cross = (
                shifted(i, 1.0, j, 1.0)
                - shifted(i, 1.0, j, -1.0)
                - shifted(i, -1.0, j, 1.0)
                + shifted(i, -1.0, j, -1.0)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = cross
            hess[j, i] = cross
    return _symmetrize(-hess)


# ---------------------------------------------------------------------------
# connection and derived tensors


def _metric_derivatives(
    m: StateManifold, A: np.ndarray, step: float, warm: tuple | None
) -> np.ndarray:
    """dg[b] = d g / d A^b by central differences of the analytic metric."""
    n = m.dim
    dg = np.empty((n, n, n))
    for b in range(n):
        h = step * (abs(A[b]) + 1.0)
        xp = A.copy()
        xp[b] += h
        xm = A.copy()
        xm[b] -= h
        try:
            gp = m.metric_matrix(xp, warm=warm)
            gm = m.metric_matrix(xm, warm=warm)
        except InfeasibleMeanError as exc:
            raise StepTooLargeError(
                f"finite-difference stencil left the feasible set along axis {b}"
            ) from exc
        dg[b] = (gp - gm) / (2.0 * h)
    return dg


def christoffel(system, A, step: float = 1e-5) -> ConnectionCoefficients:
    """Levi-Civita connection coefficients at an interior point.

    Gamma^a_{bc} = (1/2) g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc}),
    with metric derivatives by central differences of step*(|A_b|+1).
    Symmetry in the lower indices is exact by construction.
    """
    m = as_manifold(system)
    A = m.check_feasible(A)
    pt = m.point(A)
    dg = _metric_derivatives(m, A, step, pt.aux)
    # inner[d, b, c] = d_b g_{dc} + d_c g_{db} - d_d g_{bc}; each dg[x] is an
    # exactly symmetric matrix, so inner (hence gamma) is bit-for-bit
    # symmetric in (b, c).
    inner = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    gamma = 0.5 * np.einsum("ad,dbc->abc", pt.metric.g_inv, inner)
    return ConnectionCoefficients(gamma=gamma)


def covariant_acceleration(system, A, A_dot=None, step: float = 1e-5) -> np.ndarray:
    """Absolute derivative of the flow velocity along itself.

    D v^a / dtau = dv^a/dtau + Gamma^a_{bc} v^b v^c, with dv/dtau obtained
    by a central directional difference of the flow field (step in
    intrinsic time).  ``A_dot`` defaults to the flow velocity at A.
    """
    m = as_manifold(system)
    A = m.check_feasible(A)
    pt = m.point(A)
    u = unit_velocity(pt) if A_dot is None else as_vector(A_dot, m.dim, "A_dot")
    vp = unit_velocity(m.point(A + step * u, warm=pt.aux))
    vm = unit_velocity(m.point(A - step * u, warm=pt.aux))
    dv = (vp - vm) / (2.0 * step)
    return dv + christoffel(m, A, step=step).contract(u, u)


def field_strength(system, A, step: float = 1e-5) -> np.ndarray:
    """Antisymmetric tensor of covariant derivatives of the lowered velocity.

    f_{ab} = u_{a;b} - u_{b;a} for u_a = lam_a / sigma.  The symmetric
    connection terms cancel in the antisymmetrization, so f reduces to the
    curl of the one-form, computed by central differences; antisymmetry is
    exact by construction.  Points with sigma below FIELD_SIGMA_MIN are
    rejected: the normalized field is ill-conditioned near equilibrium.
    """
    m = as_manifold(system)
    A = m.check_feasible(A)
    pt = m.point(A)
    if pt.sigma < FIELD_SIGMA_MIN:
        raise AtEquilibriumError(
            f"sigma {pt.sigma:.3e} below {FIELD_SIGMA_MIN:.3e}; "
            "velocity field too ill-conditioned to differentiate"
        )
    n = m.dim

    def lowered(x):
        p = m.point(x, warm=pt.aux)
        if p.sigma < SIGMA_MIN:
            raise AtEquilibriumError("stencil point is at equilibrium")
        return p.force / p.sigma

    partial = np.empty((n, n))  # partial[a, b] = d_b u_a
    for b in range(n):
        h = step * (abs(A[b]) + 1.0)
        xp = A.copy()
        xp[b] += h
        xm = A.copy()
        xm[b] -= h
        partial[:, b] = (lowered(xp) - lowered(xm)) / (2.0 * h)
    return partial - partial.T
