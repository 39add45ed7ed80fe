"""Exponential-family statistical models.

A family fixes a prior measure over microstates together with n sufficient
statistics.  The sign convention throughout is

    p(x | lam) = (1/Z) m(x) exp(-lam . a(x)),

so the mean parameters are A = -d log Z / d lam and the covariance of the
statistics is the Hessian of log Z.  log Z, A and the covariance are three
moments of one sum over the microstates, and a family exposes them through
one forward map, the batched ``natural_states``, which gives A, the
entropy S = log Z + lam . A and the covariance at an array of natural
parameters (log Z is S - lam . A).  Discrete tabulated families, a weight
and a vector of statistics per point (``TabulatedFamily(weights, stats)``),
are evaluated exactly by weighted summation; continuous families are
admitted only through closed forms (a unit-variance Gaussian location
family and a monatomic ideal gas defined by its entropy surface).  The
Bernoulli, Gaussian and ideal-gas families also declare their inverse map
in closed form, one ``legendre`` giving lam, S, the metric and its
derivative at a mean, so only tabulated families need the numerical
inversion.

All family objects are immutable after construction and safe to share
across threads; every operation is a pure function of its arguments.  This
module does no I/O: a table document is read, and its point labels checked
and dropped, by ``config``; a table's constructor checks only what the
numerics need.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import DomainError, InfeasibleMeanError, SingularModelError

__all__ = [
    "ExponentialFamily",
    "TabulatedFamily",
    "BernoulliFamily",
    "GaussianMeanFamily",
    "IdealGasFamily",
    "Ray",
]


def as_vector(values, n: int, name: str = "vector") -> np.ndarray:
    """Coerce scalars/sequences to a float vector of length ``n``."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


class ExponentialFamily(ABC):
    """Abstract interface shared by every supported family.

    A family has one forward map, the batched ``natural_states`` (means,
    entropies S = log Z + lam . A and covariances, so log Z = S - lam . A),
    which ``duality.solve_lambda`` reads at one row per Newton trial and a
    coupled pair's Newton solve runs on, and one ray, ``ray(lam0)``, whose
    batched ``rate`` and ``states`` the flow samples along lam = t lam0.
    A family with closed-form duality overrides ``legendre``, its one
    inverse map, which gives lam, S, the metric and its derivative at a
    checked mean with no Newton solve; a family without it (a table) must
    provide ``cumulants``, from which the geometry builds the connection.
    """

    @property
    @abstractmethod
    def n_dim(self) -> int:
        """Number of sufficient statistics (manifold dimension)."""

    @property
    def labels(self) -> tuple[str, ...]:
        """Names of the statistics, used to pair coupled subsystems."""
        return tuple(f"a{i + 1}" for i in range(self.n_dim))

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

    def legendre(self, A) -> tuple | None:
        """The closed-form Legendre map at a mean A that has passed
        ``check_feasible``: (lam, S, g, dg), the natural parameter, the
        entropy S(A), the metric g = -Hess S and its derivative
        dg[a, b, c] = -d^3 S / dA^a dA^b dA^c, totally symmetric.  None for
        a family without closed forms (a table), whose lam and S come from
        the Newton solve and whose connection from ``cumulants``."""
        return None

    @abstractmethod
    def natural_states(self, lams):
        """The means A (k, n_dim), entropies S = log Z + lam . A (k,) and
        statistics covariances (k, n_dim, n_dim) at k finite natural
        parameters ``lams`` (k, n_dim), in one batched forward map.

        Nothing is checked: a row outside the natural domain comes back
        non-finite, so a batched solver can halve its step instead.
        """

    @abstractmethod
    def ray(self, lam0) -> Ray:
        """The ray lam = t lam0 as a ``Ray``: its arclength rate
        f(t) = (lam0 . Cov(t lam0) . lam0)^(1/2) and its rows' states at
        arrays of t.

        lam0 is checked once, here; the ray's points t lam0, 0 < t <= 1, then
        lie in the natural domain, which is convex and holds lam = 0, or (the
        ideal gas's lam_E > 0) is a cone.  Along the ray the family is the
        one-parameter family of y = lam0 . a, and f is its standard deviation.
        """


class Ray:
    """A family's ray lam = t lam0 with a given arclength-rate kernel:
    ``rate(ts)`` is f at each t of an array, and ``states(ts)`` the means A
    (k, n_dim), entropies S (k,) and covariances (k, n_dim, n_dim) of the
    rows at those t, the family's ``natural_states`` at t lam0."""

    def __init__(self, family: ExponentialFamily, lam0: np.ndarray, rate):
        self.family, self.lam0, self.rate = family, lam0, rate

    def states(self, ts: np.ndarray):
        return self.family.natural_states(np.multiply.outer(ts, self.lam0) + 0.0)


#: Largest statistic magnitude a table may hold: the third cumulant cubes
#: centred statistics, and (2 * 1e100)^3 is still a finite double.
MAX_STATISTIC = 1e100
#: Most table entries a batched evaluation holds in one temporary; the rows
#: are taken in runs of max(1, RAY_CHUNK // width), width the entries one
#: row takes (the points, times the statistics for ``natural_states``, or a
#: binned ray's moments).
RAY_CHUNK = 1 << 14
#: Width of a bin of the projected statistic y on a binned ray.  Each bin is
#: expanded about its weight-mean of y, which lies in the bin, so every
#: offset d from it has |t d| < BIN_WIDTH for 0 <= t <= 1.
BIN_WIDTH = 0.5


def _taylor_terms(radius: float, bound: float = 2.0**-60) -> int:
    """The fewest terms K of exp(x) about 0 whose remainder for |x| <= radius,
    at most radius^K / (K! (1 - radius / (K + 1))), is below ``bound`` times
    exp(-radius), the least exp(x) there; the truncation error of a sum of
    positive weights times exp(x) is then below ``bound`` of the sum."""
    k, term = 0, 1.0  # radius^k / k!
    while term / (1.0 - radius / (k + 1)) >= bound * math.exp(-radius):
        k += 1
        term *= radius / k
    return k


#: Taylor terms of each bin's moments: 17 for BIN_WIDTH = 0.5.
TAYLOR_TERMS = _taylor_terms(BIN_WIDTH)
#: A table's ray is binned when its bins' Taylor terms, B * TAYLOR_TERMS,
#: are at most this share of its points; otherwise it sums over the points.
BINNED_SHARE = 0.25


def _chunks(k: int, width: int):
    """Slices of range(k) in runs of at most RAY_CHUNK // width; one empty
    run for k = 0."""
    step = max(1, RAY_CHUNK // width)
    return (slice(lo, lo + step) for lo in range(0, max(k, 1), step))


def _on_unit_interval(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    outside = ~((ts >= 0.0) & (ts <= 1.0))  # NaN included
    if np.any(outside):
        raise ValueError(f"a binned ray is expanded for 0 <= t <= 1, got t = {ts[outside][0]}")
    return ts


def _bin_moments(w: np.ndarray, delta: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 *stats: np.ndarray):
    """For each statistics matrix X of ``stats`` (p, n), over the bins of
    points [starts, ends) with weights w and offsets ``delta`` from their
    centres: each bin's weight-mean of the rows of X (p, B) and its moments
    (TAYLOR_TERMS, 1 + p + p (p + 1) / 2, B) of 1, of u and of the lower
    triangle of u u^T, all from one running product per run of points of
    one bin."""
    z = np.add.reduceat(w, starts)
    means = [np.array([np.add.reduceat(w * x, starts) / z for x in X]) for X in stats]
    pairs = [np.tril_indices(len(X)) for X in stats]
    widths = np.cumsum([0] + [1 + len(X) + len(i) for X, (i, _) in zip(stats, pairs)])
    M = np.zeros((TAYLOR_TERMS, widths[-1], len(starts)))
    steps = 1.0 / np.arange(1, TAYLOR_TERMS)[:, None]
    run = max(1, RAY_CHUNK // max(TAYLOR_TERMS, widths[-1]))
    segments = [(b, lo, min(hi, lo + run))
                for b, (first, hi) in enumerate(zip(starts.tolist(), ends.tolist()))
                for lo in range(first, hi, run)]
    for b, lo, hi in segments:
        terms = np.empty((TAYLOR_TERMS, hi - lo))
        terms[0] = w[lo:hi]
        np.multiply(delta[lo:hi], steps, out=terms[1:])
        for k in range(1, TAYLOR_TERMS):
            terms[k] *= terms[k - 1]  # m d^k / k!
        q = []
        for X, mean, (i, j) in zip(stats, means, pairs):
            u = X[:, lo:hi] - mean[:, b, None]
            q += [np.ones((1, hi - lo)), u, u[i] * u[j]]
        M[:, :, b] += terms @ np.vstack(q).T
    return [(mean, np.ascontiguousarray(M[:, first:last]))
            for mean, first, last in zip(means, widths[:-1], widths[1:])]


class _BinnedRay:
    """A table's ray lam = t lam0 from per-bin Taylor moments, read once.

    The points are grouped into bins of y = lam0 . (a - c) of width
    BIN_WIDTH; bin b holds weights m scaled by its largest and is centred on
    its weight-mean y_b, so y = y_b + d with |t d| < BIN_WIDTH.  For each
    statistic vector X (y alone for the rate, a - c for the states) each
    bin keeps its weight-mean X_b and the moments

        M_k[q] = sum over the bin of m d^k / k! q,  q in {1, u, u u^T},

    with u = X - X_b, k < TAYLOR_TERMS, built with one running product over
    k.  At t the bin's sums of m e^(-t d) q are then the Horner sums
    sum_k (-t)^k M_k[q], exact to 2^-60 of their absolute sums; those sums
    are at most e times the sums they give, so rounding stays at a few
    ulps.  Each bin weighs e^(top_b - t y_b) z_b, top_b its largest
    log-weight and z_b its sum of 1; the heaviest bin r has the largest
    log of that weight, and the others are weighed against it by
    z_b / z_r exp((top_b - top_r) - t (y_b - y_r)).  Their means
    and covariances are combined by the within-plus-between update of
    Chan, Golub and LeVeque.  Every step at t is elementwise or a sum over
    the bins, so a row does not depend on the other t of its call."""

    def __init__(self, family: TabulatedFamily, lam0: np.ndarray, y: np.ndarray,
                 order: np.ndarray, starts: np.ndarray):
        self.family, self.lam0 = family, lam0
        ends = np.append(starts[1:], len(y))
        bins = np.repeat(np.arange(len(starts)), ends - starts)
        log_w = family._log_weights[order]
        self._top = np.maximum.reduceat(log_w, starts)
        w = np.exp(log_w - self._top[bins])
        y = y[order]
        self._centre = np.add.reduceat(w * y, starts) / np.add.reduceat(w, starts)
        self._rate, self._states = _bin_moments(
            w, y - self._centre[bins], starts, ends, y[None, :], family._shifted[:, order]
        )

    def _sums(self, ts: np.ndarray, mean: np.ndarray, M: np.ndarray):
        """log Z_c, the mean and the covariance of the statistics whose bin
        means and moments are ``mean`` and ``M`` (see ``_bin_moments``) at
        each t, in runs that keep each temporary within RAY_CHUNK entries."""
        p = len(mean)
        i, j = np.tril_indices(p)
        log_z, means, cov = np.empty(len(ts)), np.empty((len(ts), p)), np.empty((len(ts), p, p))
        for rows in _chunks(len(ts), M[0].size):
            t = ts[rows, None]
            sums = M[-1] * -t[:, :, None] + M[-2]
            for moment in M[-3::-1]:
                sums *= -t[:, :, None]
                sums += moment
            z_b = sums[:, 0]
            # each bin's weight relative to the heaviest bin r: a ratio of
            # sums times e^((top_b - top_r) - t (y_b - y_r)), an exponent
            # that rounds at the scale of the differences, not of top_b
            r = np.argmax(self._top - t * self._centre + np.log(z_b), axis=1)
            at_r = np.arange(len(r)), r
            weight = z_b / z_b[at_r][:, None] * np.exp(
                (self._top - self._top[r, None]) - t * (self._centre - self._centre[r, None]))
            z = np.add.reduce(weight, axis=1)
            weight /= z[:, None]
            log_z[rows] = self._top[r] - t[:, 0] * self._centre[r] + np.log(z_b[at_r] * z)
            offset = sums[:, 1:p + 1] / z_b[:, None]  # the bins' mean u at t
            within = sums[:, p + 1:] / z_b[:, None] - offset[:, i] * offset[:, j]
            at_t = mean + offset
            means[rows] = np.add.reduce(weight[:, None] * at_t, axis=2)
            dev = at_t - means[rows, :, None]
            pairs = np.add.reduce(weight[:, None] * (within + dev[:, i] * dev[:, j]), axis=2)
            cov[rows, i, j] = cov[rows, j, i] = pairs
        return log_z, means, cov

    def rate(self, ts: np.ndarray) -> np.ndarray:
        """The standard deviation of y at each t in [0, 1]."""
        return np.sqrt(self._sums(_on_unit_interval(ts), *self._rate)[2][:, 0, 0])

    def states(self, ts: np.ndarray):
        """A = c + <a - c>, S = log Z_c + t lam0 . <a - c> and the
        covariance at each t in [0, 1], as ``natural_states`` at t lam0."""
        ts = _on_unit_interval(ts)
        log_z, mean, cov = self._sums(ts, *self._states)
        S = log_z + np.einsum("kd,kd->k", mean, np.multiply.outer(ts, self.lam0))
        return self.family._shift + mean, S, cov


class TabulatedFamily(ExponentialFamily):
    """Family over a finite microstate space, evaluated by exact summation.

    ``weights`` (n_points,) counts the microstates at each point, so every
    weight must be finite and > 0, and at least two points are required for
    the family to be non-degenerate; ``stats`` (n_dim x n_points) holds the
    statistics at the points, which must be finite, at most MAX_STATISTIC
    in magnitude and affinely independent.  Both are converted and checked
    once, here, on the log-weights and the statistics' ranges the family
    keeps.
    """

    def __init__(self, weights, stats):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {weights.shape}")
        if len(weights) < 2:
            raise ValueError("a discrete space needs at least 2 points")
        with np.errstate(divide="ignore", invalid="ignore"):
            log_weights = np.log(weights)  # finite exactly for finite w > 0
        if not np.all(np.isfinite(log_weights)):
            raise ValueError("all weights must be finite and > 0")
        stats = np.asarray(stats, dtype=float)
        if stats.ndim != 2 or stats.shape[1] != len(weights):
            raise ValueError(
                "stats must be an (n_dim x n_points) matrix; "
                f"got shape {stats.shape} for {len(weights)} points"
            )
        lo, hi = stats.min(axis=1), stats.max(axis=1)  # NaN in a row makes both NaN
        ranges = list(zip(lo.tolist(), hi.tolist()))
        if not all(-MAX_STATISTIC <= low and high <= MAX_STATISTIC for low, high in ranges):
            raise ValueError(
                f"statistic values must be finite and at most {MAX_STATISTIC:.0e} in magnitude"
            )
        n_dim = stats.shape[0]
        # the family is degenerate unless the statistics are affinely
        # independent, so the rank is taken of their differences from the
        # first point's; that of the d x n differences is that of the R
        # factor of their transpose, whose singular values cost far less
        r = np.linalg.qr((stats - stats[:, :1]).T, mode="r")
        singular = np.linalg.svd(r, compute_uv=False)
        tol = singular.max() * max(stats.shape) * np.finfo(float).eps
        if np.count_nonzero(singular > tol) < n_dim:
            raise SingularModelError(
                "statistics matrix is rank-deficient; the family is degenerate"
            )
        self._n_dim = n_dim
        self._log_weights = log_weights
        self._ranges = ranges
        # Each statistic is kept shifted by the midpoint c of its range, so
        # that sums over the table round at the scale of its spread, not of
        # a large common offset: the mean is c + <a - c>, log Z is
        # log Z_c - lam . c, and the cumulants are those of a - c.
        self._shift = 0.5 * (lo + hi)
        self._shifted = stats - self._shift[:, None]

    @property
    def n_dim(self) -> int:
        return self._n_dim

    def check_feasible(self, A) -> np.ndarray:
        """The mean lies in the open convex hull of the statistics, so each
        component lies strictly inside the range of its statistic; in one
        dimension that range is the hull."""
        arr = super().check_feasible(A)
        for a, (lo, hi) in zip(arr.tolist(), self._ranges):
            if not lo < a < hi:
                raise InfeasibleMeanError(
                    f"mean component {a} outside the open range ({lo}, {hi}) of its statistic"
                )
        return arr

    def _weights(self, w: np.ndarray):
        """m(x) exp(-w(x) - top) in place of the exponents w (k, n_points),
        with the largest of each row, ``top``, shifted out, their sums and
        ``top``."""
        np.subtract(self._log_weights, w, out=w)
        top = np.maximum.reduce(w, axis=1)
        w -= top[:, None]
        np.exp(w, out=w)
        return w, np.add.reduce(w, axis=1), top

    def _centred(self, lams: np.ndarray):
        """At each row of ``lams``: the points' probabilities, log Z_c, <a - c>
        and the deviations a - <a> (k, n_dim, n_points).  The exponents and
        the mean take one matrix-vector product per row, so a row comes out
        the same whatever rows share its call."""
        p, z, top = self._weights(np.matmul(lams[:, None, :], self._shifted)[:, 0])
        p /= z[:, None]
        mean = np.matmul(self._shifted, p[:, :, None])[:, :, 0]
        return p, top + np.log(z), mean, self._shifted - mean[:, :, None]

    def cumulants(self, lam) -> np.ndarray:
        """The third cumulant k3[i, j, k] = <c_i c_j c_k> of the centred
        statistics c, from one pass over the table."""
        p, _, _, dev = self._centred(np.asarray(lam, dtype=float)[None, :])
        weighted = dev[0] * p[0]
        return (weighted[:, None, :] * dev[0][None, :, :]) @ dev[0].T

    def ray(self, lam0):
        """The ray's rate, the standard deviation of y = lam0 . (a - c) under
        p(x|t lam0), and its rows' states, on one of two paths chosen from
        the n points and the B bins of width BIN_WIDTH that y falls in.
        Binned (B * TAYLOR_TERMS at most BINNED_SHARE of n): the table is
        read once, into per-bin Taylor moments, and each t costs a Horner
        sum over the bins (see ``_BinnedRay``; t must lie in [0, 1]).
        Direct: each t is one max-shifted exponential over the table, the
        rows ``natural_states`` at t lam0."""
        lam0 = self.check_natural_domain(lam0)
        y = lam0 @ self._shifted
        cells = np.floor((y - np.min(y)) / BIN_WIDTH).astype(np.int64)
        # sorted as the smallest type that holds every index, so that the
        # stable sort of up to 65,536 bins is a radix sort, in the same order
        key = np.promote_types(np.min_scalar_type(cells.min()), np.min_scalar_type(cells.max()))
        order = np.argsort(cells.astype(key), kind="stable")
        starts = np.flatnonzero(np.diff(cells[order], prepend=-1))
        if len(starts) * TAYLOR_TERMS <= BINNED_SHARE * len(y):
            return _BinnedRay(self, lam0, y, order, starts)

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

        return Ray(self, lam0, rate)

    def natural_states(self, lams):
        """From one max-shifted exponential over the table per row, in runs
        of rows that keep each temporary within RAY_CHUNK entries: the mean
        c + <a - c>, S = log Z + lam . A = log Z_c + lam . <a - c> and the
        covariance, one product of the weighted deviations with the
        deviations per row, symmetrized."""
        lams, runs = np.asarray(lams, dtype=float), []
        for rows in _chunks(len(lams), self._n_dim * len(self._log_weights)):
            lam = lams[rows]
            p, log_z, mean, dev = self._centred(lam)
            cov = (dev * p[:, None, :]) @ dev.transpose(0, 2, 1)
            runs.append((self._shift + mean, log_z + np.einsum("kd,kd->k", mean, lam),
                         0.5 * (cov + cov.transpose(0, 2, 1))))
        return runs[0] if len(runs) == 1 else tuple(map(np.concatenate, zip(*runs)))


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

    def ray(self, lam0) -> Ray:
        """Rate |lam0| (p q)^(1/2), p and q the probabilities of x = 1 and 0."""
        lam0 = self.check_natural_domain(lam0)
        slope = float(lam0[0])
        size = abs(slope)

        def rate(ts):
            lam = ts * slope
            return size * np.sqrt(np.exp(-np.logaddexp(0.0, lam) - np.logaddexp(0.0, -lam)))

        return Ray(self, lam0, rate)

    def natural_states(self, lams):
        """From log p = -log(1 + e^lam) and log q = -log(1 + e^-lam): A = p,
        S = -p log p - q log q and the variance p q, with no cancellation in
        1 - A near either end."""
        lam = np.asarray(lams, dtype=float)[:, 0]
        up, down = np.logaddexp(0.0, lam), np.logaddexp(0.0, -lam)
        p, q = np.exp(-up), np.exp(-down)
        return p[:, None], p * up + q * down, (p * q)[:, None, None]

    def check_feasible(self, A) -> np.ndarray:
        arr = super().check_feasible(A)
        if not 0.0 < arr[0] < 1.0:
            raise InfeasibleMeanError(f"bernoulli mean must lie in (0, 1), got {arr[0]}")
        return arr

    def legendre(self, A):
        a = float(A[0])
        lam = math.log1p(-a) - math.log(a)
        S = -a * math.log(a) - (1.0 - a) * math.log1p(-a)
        return (np.array([lam]), S, np.array([[1.0 / (a * (1.0 - a))]]),
                np.array([[[(2.0 * a - 1.0) / (a * (1.0 - a)) ** 2]]]))


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

    def ray(self, lam0) -> Ray:
        """Rate |lam0| at every t: the covariance is the identity.  ``hypot``
        scales lam0 by a power of two, so |lam0| does not underflow."""
        lam0 = self.check_natural_domain(lam0)
        size = math.hypot(*lam0.tolist())
        return Ray(self, lam0, lambda ts: np.full(len(ts), size))

    def natural_states(self, lams):
        """A = -lam, S = (dim/2) log(2 pi) - |A|^2 / 2 and the identity
        covariance, as the closed forms give them."""
        A = 0.0 - np.asarray(lams, dtype=float)
        S = 0.5 * self._dim * math.log(2.0 * math.pi) - np.einsum("ki,ki->k", 0.5 * A, A)
        return A, S, np.broadcast_to(np.eye(self._dim), (len(A), self._dim, self._dim))

    def legendre(self, A):
        A, d = np.asarray(A, dtype=float), self._dim
        with np.errstate(over="raise"):  # |A|^2 past the float range has no S
            S = float(0.5 * d * math.log(2.0 * math.pi) - 0.5 * A @ A)
        return -A, S, np.eye(d), np.zeros((d,) * 3)


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
        if not 0.0 < volume < math.inf:
            raise ValueError("volume must be finite and > 0")
        if fixed_n is not None and not 0.0 < fixed_n < math.inf:
            raise ValueError("fixed_n must be finite and > 0")
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

    def legendre(self, A):
        """lam = (1.5 N / E, ln(V / N) + 1.5 ln(E / N)), S = N (lam_N + 2.5),
        and -Hess S with its derivative, in E alone when N is fixed."""
        energy, number = self._split(A)
        lam_e = 1.5 * number / energy
        lam_n = math.log(self.volume / number) + 1.5 * math.log(energy / number)
        g_ee, t_eee = 1.5 * number / energy**2, -3.0 * number / energy**3
        S = number * (lam_n + 2.5)
        if self.fixed_n is not None:
            return np.array([lam_e]), S, np.array([[g_ee]]), np.array([[[t_eee]]])
        g_en, t_een = -1.5 / energy, 1.5 / energy**2
        g = np.array([[g_ee, g_en], [g_en, 2.5 / number]])
        dg = np.array([[[t_eee, t_een], [t_een, 0.0]], [[t_een, 0.0], [0.0, -2.5 / number**2]]])
        return np.array([lam_e, lam_n]), S, g, dg

    def ray(self, lam0) -> Ray:
        """Rate (1.5 N)^(1/2) / t with N fixed, else f^2 = N(t) (3.75 / t^2 +
        3 lam_N / t + lam_N^2) with N(t) = V (1.5 / (t lam_E))^1.5 e^(-t lam_N),
        lam0 = (lam_E, lam_N)."""
        lam0 = self.check_natural_domain(lam0)
        if self.fixed_n is not None:
            size = math.sqrt(1.5 * self.fixed_n)
            return Ray(self, lam0, lambda ts: size / ts)
        lam_e, lam_n = lam0.tolist()

        def rate(ts):
            number = self.volume * (1.5 / (ts * lam_e)) ** 1.5 * np.exp(-ts * lam_n)
            return np.sqrt(number * (3.75 / ts**2 + 3.0 * lam_n / ts + lam_n**2))

        return Ray(self, lam0, rate)

    def natural_states(self, lams):
        """E = 1.5 N / lam_E, N = V (1.5 / lam_E)^1.5 e^-lam_N unless fixed,
        S from the entropy surface and the covariance, the Hessian of log Z
        (N unless N is fixed): [[5 E^2 / (3 N), E], [E, N]], or E^2 / (1.5 N)
        with N fixed.  A row with lam_E <= 0 comes back NaN, and one that
        overflows inf or NaN, without a warning."""
        lams = np.asarray(lams, dtype=float)
        with np.errstate(all="ignore"):
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
