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
    ``neg_entropy_hessian`` hooks, which let downstream code bypass the
    numerical Legendre inversion.  The hooks take a mean vector that has
    already passed ``check_feasible`` and do not check it again.
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
        if not np.all(np.isfinite(arr)):
            raise DomainError("natural parameters must be finite")
        return arr

    def check_feasible(self, A) -> np.ndarray:
        """Validate a mean vector against a-priori known feasibility bounds.

        Only violations that are cheap to detect analytically are raised
        here; for tabulated families the attainable set is an open convex
        hull and infeasibility surfaces as solver divergence instead.
        """
        arr = as_vector(A, self.n_dim, "A")
        if not np.all(np.isfinite(arr)):
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


def _log_sum_exp(values: np.ndarray) -> float:
    # Max-shift is mandatory: natural-parameter excursions during Newton
    # solves would overflow a naive sum.
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


class TabulatedFamily(ExponentialFamily):
    """Family over a finite microstate space, evaluated by exact summation."""

    def __init__(self, space: DiscreteSpace, stats, labels=None):
        stats = np.asarray(stats, dtype=float)
        if stats.ndim != 2 or stats.shape[1] != len(space):
            raise ValueError(
                "stats must be an (n_dim x n_points) matrix; "
                f"got shape {stats.shape} for {len(space)} points"
            )
        if not np.all(np.isfinite(stats)):
            raise ValueError("statistic values must be finite")
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

    @property
    def n_dim(self) -> int:
        return self._n_dim

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is not None:
            return self._labels
        return super().labels

    def _shifted_terms(self, lam: np.ndarray) -> np.ndarray:
        return self._log_weights - lam @ self.stats

    def log_partition(self, lam) -> float:
        lam = self.check_natural_domain(lam)
        return _log_sum_exp(self._shifted_terms(lam))

    def probabilities(self, lam) -> np.ndarray:
        """Probability of each labelled point under p(x|lam)."""
        lam = self.check_natural_domain(lam)
        terms = self._shifted_terms(lam)
        terms -= np.max(terms)
        w = np.exp(terms)
        return w / np.sum(w)

    def mean_parameters(self, lam) -> np.ndarray:
        return self.stats @ self.probabilities(lam)

    def covariance(self, lam) -> np.ndarray:
        p = self.probabilities(lam)
        mean = self.stats @ p
        centered = self.stats - mean[:, None]
        cov = (centered * p) @ centered.T
        cov = 0.5 * (cov + cov.T)
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SingularModelError(
                "statistics covariance is not positive definite at this point"
            ) from None
        return cov

    def log_density(self, lam, x) -> float:
        lam = self.check_natural_domain(lam)
        i = self.space.index_of(x)
        return float(
            self._log_weights[i] - lam @ self.stats[:, i] - self.log_partition(lam)
        )


class BernoulliFamily(ExponentialFamily):
    """Two-point family: x in {0, 1}, unit weights, statistic a(x) = x.

    log Z(lam) = log(1 + e^(-lam)) and the mean A = 1/(1 + e^lam) lives in
    the open interval (0, 1).  The natural domain is all of R (Z is a
    finite two-term sum everywhere).

    The Legendre maps are closed form, so the Newton solver never runs on
    this family: lam(A) is the logit ln((1 - A)/A), S(A) is the binary
    entropy and the metric -S''(A) is 1/(A(1 - A)).
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


class GaussianMeanFamily(ExponentialFamily):
    """Gaussian location family with prior measure m(x) = exp(-|x|^2 / 2).

    With statistics a(x) = x the partition function is closed form:
    log Z = (dim/2) log(2 pi) + |lam|^2 / 2, the mean is A = -lam and the
    covariance is the identity.  The Gaussian weight keeps Z finite on all
    of R^dim.  ``dim`` independent components give the flat product
    manifold used for multi-dimensional checks.

    The Legendre maps are closed form, so the Newton solver never runs on
    this family: lam(A) = -A, S(A) = (dim/2) log(2 pi) - |A|^2 / 2 and the
    metric is the identity.
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
        return -self.check_natural_domain(lam)

    def covariance(self, lam) -> np.ndarray:
        self.check_natural_domain(lam)
        return np.eye(self._dim)

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

    violations = []
    points = doc["points"]
    weights = doc["weights"]
    stats = doc["stats"]
    if not isinstance(points, list) or len(points) < 2:
        violations.append(_located(text, "points", "points must list at least 2 labels"))
    elif len(set(map(str, points))) != len(points):
        violations.append(_located(text, "points", "point labels must be unique"))
    if not isinstance(weights, list) or len(weights) != len(points):
        violations.append(
            _located(text, "weights", "weights must be a list matching points")
        )
    else:
        for i, w in enumerate(weights):
            if not isinstance(w, (int, float)) or not w > 0:
                violations.append(
                    _located(text, "weights", f"weights[{i}] must be > 0, got {w!r}")
                )
                break
    if not isinstance(stats, list) or not stats:
        violations.append(_located(text, "stats", "stats must be a non-empty matrix"))
    else:
        for alpha, row in enumerate(stats):
            if not isinstance(row, list) or len(row) != len(points):
                violations.append(
                    _located(
                        text,
                        "stats",
                        f"stats[{alpha}] must list one value per point",
                    )
                )
                break
    if violations:
        raise ValidationError(violations)

    try:
        space = DiscreteSpace(points, weights)
        return TabulatedFamily(space, stats)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
