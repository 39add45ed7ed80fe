"""Exponential-family statistical models.

A family fixes a prior measure over microstates together with n sufficient
statistics and exposes the standard log-partition machinery.  The sign
convention throughout is

    p(x | lam) = (1/Z) m(x) exp(-lam . a(x)),

so the mean parameters are A = -d log Z / d lam and the covariance of the
statistics is the Hessian of log Z.  Discrete tabulated families are
evaluated exactly by weighted summation; continuous families are admitted
only through closed forms (a unit-variance Gaussian location family and a
monatomic ideal gas defined by its entropy surface).  The Bernoulli,
Gaussian and ideal-gas families also declare their Legendre maps in closed
form, so only tabulated families need the numerical inversion.

All family objects are immutable after construction and safe to share
across threads; every operation is a pure function of its arguments.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InfeasibleMeanError,
    ParseError,
    SingularModelError,
    UnknownMicrostateError,
    ValidationError,
)

__all__ = [
    "DiscreteSpace",
    "ExponentialFamily",
    "TabulatedFamily",
    "BernoulliFamily",
    "GaussianMeanFamily",
    "IdealGasFamily",
    "tabulated_from_json",
]


def as_vector(values, n: int, name: str = "vector") -> np.ndarray:
    """Coerce scalars/sequences to a float vector of length ``n``."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


class DiscreteSpace:
    """A finite microstate space: distinct labels with positive weights.

    ``weights`` counts the microstates carrying each label, so every weight
    must be strictly positive; at least two labels are required for the
    family to be non-degenerate.
    """

    def __init__(self, points, weights):
        points = tuple(points)
        weights = np.asarray(weights, dtype=float)
        if len(points) < 2:
            raise ValueError("a discrete space needs at least 2 points")
        try:
            labels = set(points)
        except TypeError:
            raise ValueError(
                "point labels must be hashable (strings or numbers, not lists)"
            ) from None
        if len(labels) != len(points):
            raise ValueError("point labels must be unique")
        if weights.shape != (len(points),):
            raise ValueError("weights must match points in length")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("all weights must be finite and > 0")
        self.points = points
        self.weights = weights
        self._index = {label: i for i, label in enumerate(points)}

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, x) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise UnknownMicrostateError(f"unknown microstate label: {x!r}") from None


class ExponentialFamily(ABC):
    """Abstract interface shared by every supported family.

    Subclasses implement the four core evaluations (``log_partition``,
    ``mean_parameters``, ``covariance``, ``log_density``) plus feasibility
    and natural-domain checks.  Families with closed-form duality may
    additionally override the ``solve_mean`` / ``entropy_surface`` /
    ``neg_entropy_hessian`` / ``neg_entropy_third`` hooks, which let
    downstream code bypass the numerical Legendre inversion.  The hooks take
    a mean vector that has already passed ``check_feasible`` and do not
    check it again.  A family without ``neg_entropy_third`` must provide
    ``cumulants``, from which the geometry builds the connection.  A family
    whose natural domain holds lam = 0 must provide the two batched ray
    hooks the flow samples its force ray lam = t lam0 with: ``ray_rate``,
    the arclength rate at an array of t, and ``ray_states``, the mean,
    entropy, metric and inverse metric there.  A family in a coupled pair
    must provide ``natural_states``, the batched forward map the pair's
    Newton solve of its nodes runs on.
    """

    @property
    @abstractmethod
    def n_dim(self) -> int:
        """Number of sufficient statistics (manifold dimension)."""

    @property
    def labels(self) -> tuple[str, ...]:
        """Names of the statistics, used to pair coupled subsystems."""
        return tuple(f"a{i + 1}" for i in range(self.n_dim))

    # -- core evaluations -------------------------------------------------

    @abstractmethod
    def log_partition(self, lam) -> float:
        """log Z(lam); overflow-safe for any finite lam in the domain."""

    @abstractmethod
    def mean_parameters(self, lam) -> np.ndarray:
        """A(lam) = -d log Z / d lam = <a> under p(x|lam)."""

    @abstractmethod
    def covariance(self, lam) -> np.ndarray:
        """Cov(a, a) under p(x|lam); symmetric positive definite."""

    @abstractmethod
    def log_density(self, lam, x) -> float:
        """log p(x|lam) = log m(x) - lam . a(x) - log Z(lam)."""

    # -- domain checks ----------------------------------------------------

    def check_natural_domain(self, lam) -> np.ndarray:
        """Validate lam and return it as a float vector.

        Raises DomainError for non-finite entries or values outside the
        family's natural-parameter domain (finite Z is required on the
        whole declared domain).
        """
        arr = as_vector(lam, self.n_dim, "lam")
        if not all(map(math.isfinite, arr.tolist())):
            raise DomainError("natural parameters must be finite")
        return arr

    def check_feasible(self, A) -> np.ndarray:
        """Validate a mean vector against a-priori known feasibility bounds.

        Only violations that are cheap to detect analytically are raised
        here; for tabulated families the attainable set is an open convex
        hull and infeasibility surfaces as solver divergence instead.
        """
        arr = as_vector(A, self.n_dim, "A")
        if not all(map(math.isfinite, arr.tolist())):
            raise InfeasibleMeanError("mean vector must be finite")
        return arr

    # -- closed-form hooks (None = not available) -------------------------

    def solve_mean(self, A) -> np.ndarray | None:
        """Analytic lam(A) if the family has one, else None."""
        return None

    def entropy_surface(self, A) -> float | None:
        """Analytic S(A) if the family declares one, else None."""
        return None

    def neg_entropy_hessian(self, A) -> np.ndarray | None:
        """Analytic -Hess S(A) (the metric) if available, else None."""
        return None

    def neg_entropy_third(self, A) -> np.ndarray | None:
        """Analytic metric derivative T[a, b, c] = -d^3 S / dA^a dA^b dA^c
        if available, else None; totally symmetric."""
        return None

    def cumulants(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Covariance and third cumulant of the statistics under p(x|lam)."""
        raise NotImplementedError(
            f"{type(self).__name__} declares neither neg_entropy_third nor cumulants"
        )

    def ray_rate(self, lam0):
        """The arclength rate along the ray lam = t lam0, as a function that
        maps an array of t to f(t) = (lam0 . Cov(t lam0) . lam0)^(1/2) at
        each t.

        lam0 is checked once, here; the ray's segment [0, lam0] then lies in
        the convex natural domain wherever that holds lam = 0.  Along the ray
        the family is the one-parameter family of the projected statistic
        y = lam0 . a, and f is the standard deviation of y.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no ray_rate")

    def natural_states(self, lams):
        """The means A (k, n_dim), entropies S = log Z + lam . A (k,) and
        statistics covariances (k, n_dim, n_dim) at k finite natural
        parameters ``lams`` (k, n_dim), in one batched forward map.

        Nothing is checked: a row outside the natural domain comes back
        non-finite, so a batched solver can halve its step instead.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no natural_states")

    def ray_states(self, lam0):
        """The states along the ray lam = t lam0, as a function that maps an
        array of k values of t to (A, S, g, g_inv): the means (k, n_dim),
        the entropies (k,), the metrics -Hess S (k, n_dim, n_dim) and their
        inverses, the statistics covariances.

        lam0 is one that ``ray_rate`` has accepted and is not checked again.
        The metrics are not checked either: the caller checks them all at
        once.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no ray_states")


def _natural_ray_states(family: ExponentialFamily, lam0):
    """``ray_states`` from the family's ``natural_states`` at each t lam0."""
    lam0 = np.asarray(lam0, dtype=float)

    def states(ts):
        A, S, cov = family.natural_states(np.multiply.outer(ts, lam0) + 0.0)
        return A, S, _metrics_of(cov, ts), cov

    return states


def _metrics_of(cov: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The metrics, the symmetrized inverses of the covariances at each t."""
    try:
        g = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        t = ts[np.argmin(np.abs(np.linalg.det(cov)))]
        raise SingularModelError(f"statistics covariance is singular at {t:.6g} lam0") from None
    return 0.5 * (g + g.transpose(0, 2, 1))


def _log_sum_exp(values: np.ndarray) -> float:
    # Max-shift is mandatory: natural-parameter excursions during Newton
    # solves would overflow a naive sum.
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


#: Largest statistic magnitude a table may hold: the third cumulant cubes
#: centred statistics, and (2 * 1e100)^3 is still a finite double.
MAX_STATISTIC = 1e100
#: Most table entries a batched ray evaluation holds in one temporary; the
#: t values are taken in runs of max(1, RAY_CHUNK // n_points).
RAY_CHUNK = 1 << 14


def _chunks(k: int, n_points: int):
    """Slices of range(k) in runs of at most RAY_CHUNK // n_points."""
    step = max(1, RAY_CHUNK // n_points)
    return (slice(lo, lo + step) for lo in range(0, k, step))


class TabulatedFamily(ExponentialFamily):
    """Family over a finite microstate space, evaluated by exact summation."""

    def __init__(self, space: DiscreteSpace, stats, labels=None):
        stats = np.asarray(stats, dtype=float)
        if stats.ndim != 2 or stats.shape[1] != len(space):
            raise ValueError(
                "stats must be an (n_dim x n_points) matrix; "
                f"got shape {stats.shape} for {len(space)} points"
            )
        if not np.all(np.isfinite(stats)) or np.max(np.abs(stats)) > MAX_STATISTIC:
            raise ValueError(
                f"statistic values must be finite and at most {MAX_STATISTIC:.0e} in magnitude"
            )
        n_dim = stats.shape[0]
        if np.linalg.matrix_rank(stats) < n_dim:
            raise SingularModelError(
                "statistics matrix is rank-deficient; the family is degenerate"
            )
        self.space = space
        self.stats = stats
        self._labels = tuple(labels) if labels is not None else None
        if self._labels is not None and len(self._labels) != n_dim:
            raise ValueError("labels must match the number of statistics")
        self._n_dim = n_dim
        self._log_weights = np.log(space.weights)
        lo, hi = stats.min(axis=1), stats.max(axis=1)
        self._ranges = list(zip(lo.tolist(), hi.tolist()))
        # Each statistic is kept shifted by the midpoint c of its range, so
        # that sums over the table round at the scale of its spread, not of
        # a large common offset: the mean is c + <a - c>, log Z is
        # log Z_c - lam . c, and the cumulants are those of a - c.
        self._shift = 0.5 * (lo + hi)
        self._shifted = stats - self._shift[:, None]

    @property
    def n_dim(self) -> int:
        return self._n_dim

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is not None:
            return self._labels
        return super().labels

    def check_feasible(self, A) -> np.ndarray:
        """The mean lies in the open convex hull of the statistics, so each
        component lies strictly inside the range of its statistic; in one
        dimension that range is the hull."""
        arr = super().check_feasible(A)
        for a, (lo, hi) in zip(arr.tolist(), self._ranges):
            if lo == hi:
                raise SingularModelError("a statistic is constant; its variance vanishes")
            if not lo < a < hi:
                raise InfeasibleMeanError(
                    f"mean component {a} outside the open range ({lo}, {hi}) of its statistic"
                )
        return arr

    def _shifted_terms(self, lam: np.ndarray) -> np.ndarray:
        return self._log_weights - lam @ self._shifted

    def log_partition(self, lam) -> float:
        lam = self.check_natural_domain(lam)
        return _log_sum_exp(self._shifted_terms(lam)) - float(lam @ self._shift)

    def probabilities(self, lam) -> np.ndarray:
        """Probability of each labelled point under p(x|lam)."""
        lam = self.check_natural_domain(lam)
        terms = self._shifted_terms(lam)
        terms -= np.max(terms)
        w = np.exp(terms)
        return w / np.sum(w)

    def mean_parameters(self, lam) -> np.ndarray:
        return self._shift + self._shifted @ self.probabilities(lam)

    def _centered(self, lam) -> tuple[np.ndarray, np.ndarray]:
        p = self.probabilities(lam)
        return p, self._shifted - (self._shifted @ p)[:, None]

    def covariance(self, lam) -> np.ndarray:
        p, centered = self._centered(lam)
        cov = (centered * p) @ centered.T
        cov = 0.5 * (cov + cov.T)
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularModelError(
                "statistics covariance is not positive definite at this point"
            ) from None
        return cov

    def cumulants(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Covariance and third cumulant k3[i, j, k] = <c_i c_j c_k> of the
        centred statistics c, from one pass over the table."""
        p, centered = self._centered(lam)
        weighted = centered * p
        k3 = (weighted[:, None, :] * centered[None, :, :]) @ centered.T
        return weighted @ centered.T, k3

    def _weights(self, w: np.ndarray):
        """m(x) exp(-w(x) - top) in place of the exponents w (k, n_points),
        with the largest of each row, ``top``, shifted out, their sums and
        ``top``."""
        np.subtract(self._log_weights, w, out=w)
        top = np.maximum.reduce(w, axis=1)
        w -= top[:, None]
        np.exp(w, out=w)
        return w, np.add.reduce(w, axis=1), top

    def _moments(self, w: np.ndarray, z: np.ndarray):
        """The centred means <a - c> (k, n_dim) and covariances of weights w
        with sums z; w is normalized in place."""
        shifted, n_dim = self._shifted, self._n_dim
        w /= z[:, None]
        mean = np.einsum("kn,dn->kd", w, shifted)
        dev = [shifted[i] - mean[:, i, None] for i in range(n_dim)]
        cov = np.empty((len(w), n_dim, n_dim))
        for i in range(n_dim):
            for j in range(i + 1):
                cov[:, i, j] = cov[:, j, i] = np.einsum("kn,kn,kn->k", w, dev[i], dev[j])
        return mean, cov

    def ray_rate(self, lam0):
        """The standard deviation of y = lam0 . (a - c) under p(x|t lam0),
        one exponential over the table per t."""
        y = self.check_natural_domain(lam0) @ self._shifted

        def deviation(t):
            w, z, _ = self._weights(np.multiply.outer(t, y))
            dev = y - (np.einsum("kn,n->k", w, y) / z)[:, None]
            dev *= dev
            return np.sqrt(np.einsum("kn,kn->k", w, dev) / z)

        def rate(ts):
            f = np.empty(len(ts))
            for rows in _chunks(len(ts), len(y)):
                f[rows] = deviation(ts[rows])
            return f

        return rate

    def natural_states(self, lams):
        """From one max-shifted exponential over the table per row, in runs
        of rows that keep each temporary within RAY_CHUNK entries: the mean
        c + <a - c>, S = log Z + lam . A = top + log z + lam . <a - c> and
        the centred covariance."""
        lams = np.asarray(lams, dtype=float)
        k, n_dim = len(lams), self._n_dim
        A, S, cov = np.empty((k, n_dim)), np.empty(k), np.empty((k, n_dim, n_dim))
        for rows in _chunks(k, len(self._log_weights)):
            lam = lams[rows]
            w, z, top = self._weights(lam @ self._shifted)
            mean, cov[rows] = self._moments(w, z)
            A[rows] = self._shift + mean
            S[rows] = top + np.log(z) + np.einsum("kd,kd->k", mean, lam)
        return A, S, cov

    def ray_states(self, lam0):
        """From one exponential over the table per t: the probabilities, the
        mean c + <a - c>, S = log Z + lam . A = top + log z + t lam0 . <a - c>,
        and the centred covariance, whose inverse is the metric."""
        lam0 = np.asarray(lam0, dtype=float)
        n_dim = self._n_dim
        y = lam0 @ self._shifted

        def moments(t):
            w, z, top = self._weights(np.multiply.outer(t, y))
            mean, cov = self._moments(w, z)
            S = top + np.log(z) + t * np.einsum("kd,d->k", mean, lam0)
            return self._shift + mean, S, cov

        def states(ts):
            k = len(ts)
            A, S, cov = np.empty((k, n_dim)), np.empty(k), np.empty((k, n_dim, n_dim))
            for rows in _chunks(k, len(y)):
                A[rows], S[rows], cov[rows] = moments(ts[rows])
            return A, S, _metrics_of(cov, ts), cov

        return states

    def log_density(self, lam, x) -> float:
        lam = self.check_natural_domain(lam)
        i = self.space.index_of(x)
        terms = self._shifted_terms(lam)
        return float(terms[i] - _log_sum_exp(terms))


class BernoulliFamily(ExponentialFamily):
    """Two-point family: x in {0, 1}, unit weights, statistic a(x) = x.

    log Z(lam) = log(1 + e^(-lam)) and the mean A = 1/(1 + e^lam) lives in
    the open interval (0, 1).  The natural domain is all of R (Z is a
    finite two-term sum everywhere).

    The Legendre maps are closed form, so the Newton solver never runs on
    this family: lam(A) is the logit ln((1 - A)/A), S(A) is the binary
    entropy, the metric -S''(A) is 1/(A(1 - A)) and its derivative is
    (2A - 1)/(A^2 (1 - A)^2).
    """

    @property
    def n_dim(self) -> int:
        return 1

    def log_partition(self, lam) -> float:
        lam = self.check_natural_domain(lam)
        return float(np.logaddexp(0.0, -lam[0]))

    def mean_parameters(self, lam) -> np.ndarray:
        lam = self.check_natural_domain(lam)
        # sigmoid(-lam), computed through logaddexp for stability
        return np.array([math.exp(-np.logaddexp(0.0, lam[0]))])

    def covariance(self, lam) -> np.ndarray:
        lam = self.check_natural_domain(lam)
        p = math.exp(-np.logaddexp(0.0, lam[0]))
        q = math.exp(-np.logaddexp(0.0, -lam[0]))
        var = p * q
        if var <= 0.0:
            raise SingularModelError("bernoulli variance underflowed to zero")
        return np.array([[var]])

    def ray_rate(self, lam0):
        """|lam0| (p q)^(1/2), p and q the probabilities of x = 1 and 0."""
        lam0 = float(self.check_natural_domain(lam0)[0])
        size = abs(lam0)

        def rate(ts):
            lam = ts * lam0
            return size * np.sqrt(np.exp(-np.logaddexp(0.0, lam) - np.logaddexp(0.0, -lam)))

        return rate

    def natural_states(self, lams):
        """From log p = -log(1 + e^lam) and log q = -log(1 + e^-lam): A = p,
        S = -p log p - q log q and the variance p q, with no cancellation in
        1 - A near either end."""
        lam = np.asarray(lams, dtype=float)[:, 0]
        up, down = np.logaddexp(0.0, lam), np.logaddexp(0.0, -lam)
        p, q = np.exp(-up), np.exp(-down)
        return p[:, None], p * up + q * down, (p * q)[:, None, None]

    def ray_states(self, lam0):
        return _natural_ray_states(self, lam0)

    def log_density(self, lam, x) -> float:
        lam = self.check_natural_domain(lam)
        if x not in (0, 1):
            raise UnknownMicrostateError(f"bernoulli microstates are 0 and 1, got {x!r}")
        return float(-lam[0] * x - self.log_partition(lam))

    def check_feasible(self, A) -> np.ndarray:
        arr = super().check_feasible(A)
        if not 0.0 < arr[0] < 1.0:
            raise InfeasibleMeanError(f"bernoulli mean must lie in (0, 1), got {arr[0]}")
        return arr

    # -- closed forms ------------------------------------------------------

    def solve_mean(self, A) -> np.ndarray:
        a = float(A[0])
        return np.array([math.log1p(-a) - math.log(a)])

    def entropy_surface(self, A) -> float:
        a = float(A[0])
        return -a * math.log(a) - (1.0 - a) * math.log1p(-a)

    def neg_entropy_hessian(self, A) -> np.ndarray:
        a = float(A[0])
        return np.array([[1.0 / (a * (1.0 - a))]])

    def neg_entropy_third(self, A) -> np.ndarray:
        a = float(A[0])
        return np.array([[[(2.0 * a - 1.0) / (a * (1.0 - a)) ** 2]]])


class GaussianMeanFamily(ExponentialFamily):
    """Gaussian location family with prior measure m(x) = exp(-|x|^2 / 2).

    With statistics a(x) = x the partition function is closed form:
    log Z = (dim/2) log(2 pi) + |lam|^2 / 2, the mean is A = -lam and the
    covariance is the identity.  The Gaussian weight keeps Z finite on all
    of R^dim.  ``dim`` independent components give the flat product
    manifold used for multi-dimensional checks.

    The Legendre maps are closed form, so the Newton solver never runs on
    this family: lam(A) = -A, S(A) = (dim/2) log(2 pi) - |A|^2 / 2 and the
    metric is the identity, so the manifold is flat.
    """

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self._dim = int(dim)

    @property
    def n_dim(self) -> int:
        return self._dim

    def log_partition(self, lam) -> float:
        lam = self.check_natural_domain(lam)
        return float(0.5 * self._dim * math.log(2.0 * math.pi) + 0.5 * lam @ lam)

    def mean_parameters(self, lam) -> np.ndarray:
        # 0.0 - lam rather than -lam: the maximum lam = 0 maps to +0.0
        return 0.0 - self.check_natural_domain(lam)

    def covariance(self, lam) -> np.ndarray:
        self.check_natural_domain(lam)
        return np.eye(self._dim)

    def ray_rate(self, lam0):
        """|lam0| at every t: the covariance is the identity."""
        lam0 = self.check_natural_domain(lam0)
        size = math.sqrt(float(lam0 @ lam0))
        return lambda ts: np.full(len(ts), size)

    def natural_states(self, lams):
        """A = -lam, S = (dim/2) log(2 pi) - |A|^2 / 2 and the identity
        covariance, as the closed forms give them."""
        A = 0.0 - np.asarray(lams, dtype=float)
        S = 0.5 * self._dim * math.log(2.0 * math.pi) - np.einsum("ki,ki->k", 0.5 * A, A)
        return A, S, np.broadcast_to(np.eye(self._dim), (len(A), self._dim, self._dim))

    def ray_states(self, lam0):
        return _natural_ray_states(self, lam0)

    def log_density(self, lam, x) -> float:
        lam = self.check_natural_domain(lam)
        x = as_vector(x, self._dim, "x")
        return float(-0.5 * x @ x - lam @ x - self.log_partition(lam))

    # -- closed forms ------------------------------------------------------

    def solve_mean(self, A) -> np.ndarray:
        return -np.asarray(A, dtype=float)

    def entropy_surface(self, A) -> float:
        A = np.asarray(A, dtype=float)
        return float(0.5 * self._dim * math.log(2.0 * math.pi) - 0.5 * A @ A)

    def neg_entropy_hessian(self, A) -> np.ndarray:
        return np.eye(self._dim)

    def neg_entropy_third(self, A) -> np.ndarray:
        return np.zeros((self._dim,) * 3)


class IdealGasFamily(ExponentialFamily):
    """Monatomic ideal gas at fixed volume, defined by its entropy surface.

    The state variables are energy and particle number, A = (E, N), with

        S(E, N) = N [ln(V/N) + (3/2) ln(E/N)] + (5/2) N

    in units where the Boltzmann constant is 1 and the additive constant is
    dropped.  There is no microstate-level representation here: S, its
    gradient and its Hessian are the closed forms, and the log-partition
    surface follows from the Legendre identity, log Z(lam) = N(lam).  The
    natural domain requires lam_E > 0 (the inverse temperature); the
    partition surface has no finite continuation past it.

    With ``fixed_n`` set, N is frozen and only E remains as a coordinate
    (the heat-exchange-only variant).
    """

    def __init__(self, volume: float, fixed_n: float | None = None):
        volume = float(volume)
        if not volume > 0.0:
            raise ValueError("volume must be > 0")
        if fixed_n is not None and not fixed_n > 0.0:
            raise ValueError("fixed_n must be > 0")
        self.volume = volume
        self.fixed_n = None if fixed_n is None else float(fixed_n)

    @property
    def n_dim(self) -> int:
        return 1 if self.fixed_n is not None else 2

    @property
    def labels(self) -> tuple[str, ...]:
        return ("E",) if self.fixed_n is not None else ("E", "N")

    def _split(self, A: np.ndarray) -> tuple[float, float]:
        if self.fixed_n is not None:
            return float(A[0]), self.fixed_n
        return float(A[0]), float(A[1])

    def check_feasible(self, A) -> np.ndarray:
        arr = super().check_feasible(A)
        energy, number = self._split(arr)
        if energy <= 0.0:
            raise InfeasibleMeanError(f"ideal gas requires E > 0, got {energy}")
        if number <= 0.0:
            raise InfeasibleMeanError(f"ideal gas requires N > 0, got {number}")
        return arr

    def check_natural_domain(self, lam) -> np.ndarray:
        arr = super().check_natural_domain(lam)
        if arr[0] <= 0.0:
            raise DomainError(
                f"ideal gas requires lam_E > 0 for a finite partition sum, got {arr[0]}"
            )
        return arr

    # -- closed forms ------------------------------------------------------

    def entropy_surface(self, A) -> float:
        energy, number = self._split(A)
        return number * (
            math.log(self.volume / number) + 1.5 * math.log(energy / number) + 2.5
        )

    def solve_mean(self, A) -> np.ndarray:
        energy, number = self._split(A)
        lam_e = 1.5 * number / energy
        if self.fixed_n is not None:
            return np.array([lam_e])
        lam_n = math.log(self.volume / number) + 1.5 * math.log(energy / number)
        return np.array([lam_e, lam_n])

    def neg_entropy_hessian(self, A) -> np.ndarray:
        energy, number = self._split(A)
        if self.fixed_n is not None:
            return np.array([[1.5 * number / energy**2]])
        return np.array(
            [
                [1.5 * number / energy**2, -1.5 / energy],
                [-1.5 / energy, 2.5 / number],
            ]
        )

    def neg_entropy_third(self, A) -> np.ndarray:
        energy, number = self._split(A)
        t_eee = -3.0 * number / energy**3
        if self.fixed_n is not None:
            return np.array([[[t_eee]]])
        t_een = 1.5 / energy**2
        return np.array(
            [
                [[t_eee, t_een], [t_een, 0.0]],
                [[t_een, 0.0], [0.0, -2.5 / number**2]],
            ]
        )

    # -- partition-function surface, via the Legendre identity -------------

    def _number_of(self, lam: np.ndarray) -> float:
        if self.fixed_n is not None:
            return self.fixed_n
        return self.volume * (1.5 / lam[0]) ** 1.5 * math.exp(-lam[1])

    def log_partition(self, lam) -> float:
        lam = self.check_natural_domain(lam)
        number = self._number_of(lam)
        if self.fixed_n is not None:
            return number * (
                math.log(self.volume / number) + 1.5 * math.log(1.5 / lam[0]) + 1.0
            )
        return number

    def mean_parameters(self, lam) -> np.ndarray:
        lam = self.check_natural_domain(lam)
        number = self._number_of(lam)
        energy = 1.5 * number / lam[0]
        if self.fixed_n is not None:
            return np.array([energy])
        return np.array([energy, number])

    def covariance(self, lam) -> np.ndarray:
        lam = self.check_natural_domain(lam)
        number = self._number_of(lam)
        energy = 1.5 * number / lam[0]
        if self.fixed_n is not None:
            return np.array([[energy**2 / (1.5 * number)]])
        return np.array(
            [[5.0 * energy**2 / (3.0 * number), energy], [energy, number]]
        )

    def natural_states(self, lams):
        """E = 1.5 N / lam_E, N = V (1.5 / lam_E)^1.5 e^-lam_N unless fixed,
        S from the entropy surface and the covariance of ``covariance``; a
        row with lam_E <= 0 comes back NaN."""
        lams = np.asarray(lams, dtype=float)
        lam_e = np.where(lams[:, 0] > 0.0, lams[:, 0], math.nan)
        if self.fixed_n is not None:
            number = np.full(len(lams), self.fixed_n)
        else:
            number = self.volume * (1.5 / lam_e) ** 1.5 * np.exp(-lams[:, 1])
        energy = 1.5 * number / lam_e
        S = number * (np.log(self.volume / number) + 1.5 * np.log(energy / number) + 2.5)
        if self.fixed_n is not None:
            return energy[:, None], S, (energy**2 / (1.5 * number))[:, None, None]
        cov = np.stack([5.0 * energy**2 / (3.0 * number), energy, energy, number], axis=1)
        return np.column_stack([energy, number]), S, cov.reshape(-1, 2, 2)

    def log_density(self, lam, x) -> float:
        raise UnknownMicrostateError(
            "the ideal-gas family is defined by its entropy surface and has "
            "no microstate-level density"
        )


_TABULATED_KEYS = {"points", "weights", "stats"}


def _key_line(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def _located(text: str, key: str, message: str) -> str:
    line = _key_line(text, key)
    prefix = f"line {line}: " if line is not None else ""
    return f"{prefix}{message}"


def _table_violations(points, weights, stats) -> list[tuple[str, str]]:
    """(key, message) for each way a points/weights/stats table breaks the
    schema, so that ``DiscreteSpace`` and ``TabulatedFamily`` see only
    lists of the right lengths and numbers."""
    found = []
    n = len(points) if isinstance(points, list) else 0
    if n < 2:
        found.append(("points", "points must list at least 2 labels"))
    elif len(set(map(str, points))) != n:
        found.append(("points", "point labels must be unique"))
    if not isinstance(weights, list) or len(weights) != n:
        found.append(("weights", "weights must be a list matching points"))
    else:
        for i, w in enumerate(weights):
            if not isinstance(w, (int, float)) or isinstance(w, bool) or not w > 0:
                found.append(("weights", f"weights[{i}] must be > 0, got {w!r}"))
                break
    if not isinstance(stats, list) or not stats:
        found.append(("stats", "stats must be a non-empty matrix"))
    else:
        for alpha, row in enumerate(stats):
            if not (isinstance(row, list) and len(row) == n
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                            for x in row)):
                found.append(("stats", f"stats[{alpha}] must list one number per point"))
                break
    return found


def tabulated_from_json(source: str | Path) -> TabulatedFamily:
    """Load a tabulated family from a JSON document.

    The document must contain exactly the keys ``points``, ``weights`` and
    ``stats`` where ``stats`` is the (n_dim x n_points) matrix of statistic
    values.  Schema violations are rejected with a message that names the
    offending key and, where possible, its line in the document.
    """
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("tabulated family document must be a JSON object")

    unknown = sorted(set(doc) - _TABULATED_KEYS)
    if unknown:
        raise ParseError(_located(text, unknown[0], f"unknown key {unknown[0]!r}"))
    missing = sorted(_TABULATED_KEYS - set(doc))
    if missing:
        raise ValidationError([f"missing required key {k!r}" for k in missing])

    points, weights, stats = doc["points"], doc["weights"], doc["stats"]
    violations = [_located(text, k, m) for k, m in _table_violations(points, weights, stats)]
    if violations:
        raise ValidationError(violations)

    try:
        space = DiscreteSpace(points, weights)
        return TabulatedFamily(space, stats)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
