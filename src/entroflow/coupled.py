"""Two subsystems exchanging conserved quantities.

The total entropy is additive, S_T(A) = S(A) + S'(A_T - A), with the
conservation constraint eliminated by substitution: the reduced state A is
subsystem 1's share and A' = A_T - A is subsystem 2's.  Both Hessians then
enter the composite metric with a plus sign (the chain rule cancels the
cross-term sign), g_T(A) = g(A) + g'(A_T - A), and the constrained flow is

    dA/dtau = g_T_inv . (lam - lam') / sigma_T,

which relaxes until the conjugate forces lam and lam' are equalized.

The artifact trusts the declared state variables: whether (E, N) is enough
to describe a given physical exchange is the modeller's call, not a
detectable condition.  The feasible set is the intersection {A feasible in
subsystem 1 and A_T - A feasible in subsystem 2}; its boundary raises.
"""

from __future__ import annotations

import numpy as np

from .family import ExponentialFamily, as_vector
from .geometry import FamilyManifold, ManifoldPoint, MetricTensor, StateManifold

__all__ = ["CompositeSystem"]


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

    def point(self, A, warm: tuple | None = None) -> ManifoldPoint:
        A = as_vector(A, self.dim, "A")
        w1, w2 = warm if warm else (None, None)
        p1 = self._m1.point(A, warm=w1)
        p2 = self._m2.point(self.A_total - A, warm=w2)
        force = p1.force - p2.force
        met = MetricTensor.from_matrix(p1.metric.g + p2.metric.g)
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

    def metric_matrix(self, A, warm: tuple | None = None) -> np.ndarray:
        A = as_vector(A, self.dim, "A")
        w1, w2 = warm if warm else (None, None)
        g1 = self._m1.metric_matrix(A, warm=w1)
        g2 = self._m2.metric_matrix(self.A_total - A, warm=w2)
        return g1 + g2

    # Trajectory samples carry the subsystem split.  The conservation
    # residual max|A + A' - A_T| is zero by construction; it is kept as a
    # regression guard.

    def sample_lambda(self, pt: ManifoldPoint) -> np.ndarray:
        return pt.aux[0][0]

    def sample_extras(self, pt: ManifoldPoint) -> dict:
        a_prime = self.A_total - pt.A
        residual = float(np.max(np.abs(pt.A + a_prime - self.A_total)))
        return {
            "A_prime": a_prime,
            "lam_prime": pt.aux[1][0],
            "conservation_residual": residual,
        }

