"""Shared oracle helpers for the test suite.

Everything here is an independent verification route: finite differences,
direct summation, the closed forms of the Bernoulli, Gaussian and ideal-gas
partition functions, quadrature wrappers, a fixed-step RK4 of the flow's
velocity field, a change of coordinates that transforms each point by the
tensor law (``Chart``) and synthetic trajectory builders, plus ``natural_row``,
which reads one row of a family's forward map, a counter of the calls a
method receives, a fault that turns a Bernoulli pair's rows to NaN, a
table that keeps the arrays it was built from for the oracles
(``OracleTable``), a family that hands ``point`` any metric
(``MetricStub``), a least-squares fit of L to windows pooled from
several trajectories (``pooled_fit``) and ``fit_window``, which runs the
library's own fit of one window.
The finite-difference oracles of the connection, field strength and flow
acceleration difference only the metric and the force of ``point``, never
the closed forms they check.
"""

import math

import numpy as np

from entroflow.coupled import PairRay
from entroflow.family import (
    BernoulliFamily, ExponentialFamily, GaussianMeanFamily, IdealGasFamily, TabulatedFamily,
)
from entroflow.flow import Trajectory
from entroflow.geometry import ManifoldPoint, StateManifold, as_manifold, unit_velocity
from entroflow.onsager import _fit, _window_bounds, _window_rows


class OracleTable(TabulatedFamily):
    """A ``TabulatedFamily`` that also keeps the ``weights`` and ``stats``
    it was built from, as given, for the oracles here: the family itself
    keeps only what it sums."""

    def __init__(self, weights, stats):
        super().__init__(weights, stats)
        self.weights = np.asarray(weights, dtype=float)
        self.stats = np.asarray(stats, dtype=float)


class MetricStub(ExponentialFamily):
    """A family whose ``legendre`` gives the matrix ``g`` as the metric at
    every finite mean, with lam = 0, S = 0 and dg = 0, so that a test can
    hand ``point`` any metric; it has no forward map."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)

    @property
    def n_dim(self) -> int:
        return len(self.g)

    def legendre(self, A):
        d = self.n_dim
        return np.zeros(d), 0.0, self.g, np.zeros((d, d, d))

    def natural_states(self, lams):
        raise NotImplementedError

    def ray(self, lam0):
        raise NotImplementedError


def fd_gradient(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = step * (abs(x[i]) + 1.0)
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def fd_hessian(f, x, step=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    h = step * (np.abs(x) + 1.0)
    center = f(x)
    hess = np.empty((n, n))
    for i in range(n):
        xp = x.copy()
        xp[i] += h[i]
        xm = x.copy()
        xm[i] -= h[i]
        hess[i, i] = (f(xp) - 2.0 * center + f(xm)) / h[i] ** 2
        for j in range(i + 1, n):
            xpp = x.copy(); xpp[i] += h[i]; xpp[j] += h[j]
            xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = x.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
            val = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h[i] * h[j])
            hess[i, j] = val
            hess[j, i] = val
    return hess


def fd_jacobian(f, x, step=1e-5):
    """J[..., i] = d f / d x_i by central differences of step (|x_i| + 1)."""
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step * (abs(x[i]) + 1.0)
        columns.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * e[i]))
    return np.stack(columns, axis=-1)


def fd_metric_oracle(system, A, step=1e-4):
    """-Hess S(A) by central differences of the entropy point(A).S."""
    m = as_manifold(system)
    return -fd_hessian(lambda x: m.point(x).S, A, step)


def fd_christoffel(system, A, step=1e-5):
    """Levi-Civita symbols from central differences of the metric point(A).g.

    Uses the general formula (1/2) g^ad (d_b g_dc + d_c g_db - d_d g_bc),
    which does not assume a Hessian metric.
    """
    m = as_manifold(system)
    dg = np.moveaxis(fd_jacobian(lambda x: m.point(x).g, A, step), -1, 0)
    inner = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("ad,dbc->abc", np.linalg.inv(m.point(A).g), inner)


def _velocity(manifold, x):
    pt = manifold.point(x)
    return np.linalg.solve(pt.g, pt.force) / pt.sigma


def fd_field_strength(system, A, step=1e-5):
    """Curl of the lowered velocity lam / sigma by central differences."""
    m = as_manifold(system)

    def lowered(x):
        pt = m.point(x)
        return pt.force / pt.sigma

    partial = fd_jacobian(lowered, A, step)  # partial[a, b] = d_b u_a
    return partial - partial.T


def fd_flow_acceleration(system, A, step=1e-5):
    """D v / dtau along the flow: a central difference of the unit velocity
    along itself, plus fd_christoffel(v, v)."""
    m = as_manifold(system)
    A = np.asarray(A, dtype=float)
    v = _velocity(m, A)
    dv = (_velocity(m, A + step * v) - _velocity(m, A - step * v)) / (2.0 * step)
    return dv + np.einsum("abc,b,c->a", fd_christoffel(system, A, step), v, v)


class Chart(StateManifold):
    """``system`` seen through a smooth invertible change of coordinates:
    ``forward`` maps its means A to B, ``inverse`` maps back and
    ``jacobian(A)`` is dB/dA.  A point keeps S, and so sigma, while the
    force transforms as a one-form, J^-T lam, and the metric as a (0,2)
    tensor, J^-T g J^-1: the transform law that makes the flow covariant,
    for ``rk4_rows`` to integrate in the chart."""

    def __init__(self, system, forward, inverse, jacobian):
        self.base = as_manifold(system)
        self.forward, self.inverse, self.jacobian = forward, inverse, jacobian

    @property
    def dim(self):
        return self.base.dim

    def point(self, B):
        B = np.asarray(B, dtype=float)
        A = np.asarray(self.inverse(B), dtype=float)
        pt = self.base.point(A)
        jac_inv = np.linalg.inv(np.atleast_2d(self.jacobian(A)))
        return ManifoldPoint(A=B, force=jac_inv.T @ pt.force, S=pt.S,
                             g=jac_inv.T @ pt.g @ jac_inv)


def squared_bernoulli(bernoulli):
    """The Bernoulli family in the chart B = A^2 of (0, 1)."""
    return Chart(bernoulli, forward=lambda A: A**2, inverse=np.sqrt,
                 jacobian=lambda A: np.array([[2.0 * A[0]]]))


def rk4_rows(system, A0, h, tau_max):
    """Rows (tau, A) of the unit-speed flow from A0 at tau = k |h|, by
    classical fixed-step RK4 of unit_velocity(point(A)); a negative h runs
    the flow backwards.  It stops at tau_max, or before a step from sigma
    below 2 |h|, which could reach the entropy maximum, where the field is
    discontinuous."""
    m = as_manifold(system)
    A = np.asarray(A0, dtype=float)
    taus, rows = [0.0], [A]
    for k in range(1, int(tau_max / abs(h) + 1e-9) + 1):
        pt = m.point(A)
        if pt.sigma < 2.0 * abs(h):
            break
        k1 = unit_velocity(pt)
        k2 = unit_velocity(m.point(A + 0.5 * h * k1))
        k3 = unit_velocity(m.point(A + 0.5 * h * k2))
        k4 = unit_velocity(m.point(A + h * k3))
        A = A + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        taus.append(k * abs(h))
        rows.append(A)
    return np.array(taus), np.array(rows)


def random_tabulated(rng, n_dim=None, n_points=None):
    """A random small tabulated family (full-rank statistics a.s.), which
    keeps its arrays for the oracles."""
    if n_dim is None:
        n_dim = int(rng.integers(1, 4))
    if n_points is None:
        n_points = int(rng.integers(n_dim + 2, 9))
    weights = rng.uniform(0.5, 2.0, n_points)
    stats = rng.normal(size=(n_dim, n_points))
    return OracleTable(weights, stats)


def seeded_table(seed, n_points, n_dim=3, norm=0.3):
    """An ``n_dim`` x ``n_points`` table with weights in [0.5, 2] and N(0, 1)
    statistics, as the benchmark's, and the mean at a seeded natural
    parameter of the given norm."""
    rng = np.random.default_rng(seed)
    weights, stats = rng.uniform(0.5, 2.0, n_points), rng.normal(size=(n_dim, n_points))
    lam0 = rng.normal(size=n_dim)
    lam0 *= norm / np.linalg.norm(lam0)
    fam = OracleTable(weights, stats)
    return fam, tabulated_mean(weights, stats, lam0)


def random_feasible_mean(rng, family, lam_box=1.0):
    """Sample an interior-feasible mean by pushing a random lam forward
    through ``states_oracle``."""
    lam = rng.uniform(-lam_box, lam_box, family.n_dim)
    return states_oracle(family, lam[None, :])[0][0]


def natural_row(family, lam):
    """log Z, the mean A and the covariance at one natural parameter, read
    from one row of the family's forward map ``natural_states``: log Z is
    S - lam . A.  This is the code under test, not an oracle."""
    lam = np.asarray(lam, dtype=float)
    A, S, cov = family.natural_states(lam[None, :])
    return float(S[0] - lam @ A[0]), A[0], cov[0]


def log_partition_oracle(family, lam):
    """log Z at lam by a route independent of the family's code: a direct
    log-sum-exp over a table or Bernoulli's two points, (d/2) ln(2 pi) +
    |lam|^2 / 2 for the Gaussian location family, and for the ideal gas
    N = V (1.5 / lam_E)^1.5 e^(-lam_N), or with N fixed
    N (ln(V / N) + 1.5 ln(1.5 / lam_E) + 1), the Legendre transform of its
    entropy surface."""
    lam = np.asarray(lam, dtype=float)
    if isinstance(family, GaussianMeanFamily):
        return 0.5 * family.n_dim * math.log(2.0 * math.pi) + 0.5 * float(lam @ lam)
    if isinstance(family, IdealGasFamily):
        lam_e = float(lam[0])
        if family.fixed_n is not None:
            n = family.fixed_n
            return n * (math.log(family.volume / n) + 1.5 * math.log(1.5 / lam_e) + 1.0)
        return family.volume * (1.5 / lam_e) ** 1.5 * math.exp(-float(lam[1]))
    if isinstance(family, BernoulliFamily):
        weights, stats = np.ones(2), np.array([[0.0, 1.0]])
    else:
        weights, stats = family.weights, family.stats
    terms = np.log(weights) - lam @ stats
    top = float(terms.max())
    return top + math.log(float(np.sum(np.exp(terms - top))))


def states_oracle(family, lams):
    """(A, S, covariance) at each row of ``lams``, by a route independent of
    the family's code: direct summation over a table (Bernoulli is the
    two-point table), the Gaussian location family's closed forms, or for
    the ideal gas A = 1.5 N / lam_E (and N) with S from its entropy surface
    and the covariance [[5 E^2 / (3 N), E], [E, N]] (E^2 / (1.5 N) with N
    fixed) of log Z = N."""
    lams = np.atleast_2d(np.asarray(lams, dtype=float))
    if isinstance(family, GaussianMeanFamily):
        A = 0.0 - lams
        S = 0.5 * family.n_dim * math.log(2.0 * math.pi) - 0.5 * np.sum(A * A, axis=1)
        return A, S, np.broadcast_to(np.eye(family.n_dim), (len(A), family.n_dim, family.n_dim))
    if isinstance(family, BernoulliFamily):
        return tabulated_states([1.0, 1.0], [[0.0, 1.0]], lams)
    if isinstance(family, IdealGasFamily):
        V = family.volume
        if family.fixed_n is not None:
            N = np.full(len(lams), family.fixed_n)
        else:
            N = V * (1.5 / lams[:, 0]) ** 1.5 * np.exp(-lams[:, 1])
        E = 1.5 * N / lams[:, 0]
        S = N * (np.log(V / N) + 1.5 * np.log(E / N) + 2.5)
        if family.fixed_n is not None:
            return E[:, None], S, (E**2 / (1.5 * N))[:, None, None]
        cov = np.array([[[5.0 * e * e / (3.0 * n), e], [e, n]] for e, n in zip(E, N)])
        return np.column_stack([E, N]), S, cov
    return tabulated_states(family.weights, family.stats, lams)


def _tabulated_moments(weights, stats, lam):
    """Mean and covariance of the statistics under p(x|lam), by direct summation."""
    logits = np.log(weights) - lam @ stats
    p = np.exp(logits - logits.max())
    p /= p.sum()
    mean = stats @ p
    centered = stats - mean[:, None]
    return mean, (centered * p) @ centered.T


def tabulated_mean(weights, stats, lam):
    """A(lam) of a tabulated family given as weights and an n_dim x n_points table."""
    return _tabulated_moments(np.asarray(weights), np.asarray(stats), np.asarray(lam))[0]


def tabulated_states(weights, stats, lams):
    """Mean, entropy and covariance of the statistics under p(x|lam) for each
    row of ``lams``, by direct summation; the entropy is -sum p log(p / w).

    The statistics are first shifted by their first column, which changes
    neither p nor the covariance and keeps the sums of a table far from 0 at
    the scale of its spread."""
    weights, stats = np.asarray(weights, dtype=float), np.asarray(stats, dtype=float)
    lams = np.atleast_2d(np.asarray(lams, dtype=float))
    shifted = stats - stats[:, :1]
    logits = np.log(weights) - lams @ shifted
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    mean = p @ shifted.T
    log_ratio = np.log(np.where(p > 0.0, p, 1.0)) - np.log(weights)
    entropy = -np.sum(np.where(p > 0.0, p * log_ratio, 0.0), axis=1)
    dev = shifted[None, :, :] - mean[:, :, None]
    cov = np.einsum("kin,kn,kjn->kij", dev, p, dev)
    return stats[:, 0] + mean, entropy, cov


def long_double_ray(weights, stats, lam0, ts):
    """The arclength rate f, means A, entropies S and covariances at t lam0
    for each t in ``ts``, by direct summation over the table in
    np.longdouble: a reference about 2^11 times finer than a double where
    the platform's long double has a 64-bit mantissa."""
    ld = np.longdouble
    weights, stats = np.asarray(weights, dtype=ld), np.asarray(stats, dtype=ld)
    lam0 = np.asarray(lam0, dtype=ld)
    rows = []
    for t in np.asarray(ts, dtype=float).tolist():
        exponent = -(ld(t) * lam0) @ stats
        p = weights * np.exp(exponent - exponent.max())
        p /= p.sum()
        mean = stats @ p
        centred = stats - mean[:, None]
        cov = (centred * p) @ centred.T
        entropy = -np.sum(p * np.log(p / weights))
        rows.append((np.sqrt(lam0 @ cov @ lam0), mean, entropy, cov))
    return tuple(np.array(column) for column in zip(*rows))


def tabulated_ray_tau(weights, stats, lam0, ts, nodes=64):
    """Intrinsic time from A(lam0) to A(t lam0) for each t in ``ts``: the
    integral over [t, 1] of sqrt(lam0 . Cov(s lam0) . lam0) by Gauss-Legendre,
    with the rate at t.  At t = 0 it is the time to the entropy maximum."""
    lam0, ts = np.asarray(lam0, dtype=float), np.atleast_1d(np.asarray(ts, dtype=float))
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = np.concatenate([(0.5 * (1.0 + ts))[:, None] + (0.5 * (1.0 - ts))[:, None] * x,
                        ts[:, None]], axis=1)
    cov = tabulated_states(weights, stats, np.multiply.outer(s.ravel(), lam0))[2]
    rate = np.sqrt(np.einsum("i,kij,j->k", lam0, cov, lam0)).reshape(s.shape)
    return 0.5 * (1.0 - ts) * (rate[:, :-1] @ w), rate[:, -1]


def composite_arclength(g1, g2, A_total, a0, a1, panels=16, nodes=16):
    """Intrinsic time from a0 to a1 along a 1-D composite, by Gauss-Legendre
    on equal panels: the integral of sqrt(g1(A) + g2(A_total - A)) dA, with
    g1 and g2 each subsystem's metric as a function of its own mean."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a0, a1, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        A = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        total += 0.5 * (hi - lo) * float(np.dot(w, np.sqrt(g1(A) + g2(A_total - A))))
    return total


def synthetic_trajectory(taus, states, lams, entropies, sigmas,
                         status="tau-budget-exhausted", entropy_gain=None):
    n = len(taus)
    return Trajectory(
        tau=np.asarray(taus, dtype=float),
        A=np.asarray(states, dtype=float).reshape(n, -1),
        lam=np.asarray(lams, dtype=float).reshape(n, -1),
        S=np.asarray(entropies, dtype=float),
        sigma=np.asarray(sigmas, dtype=float),
        speed=np.ones(n),
        entropy_gain=np.zeros(n) if entropy_gain is None else np.asarray(entropy_gain, dtype=float),
        terminal_status=status,
    )


def pooled_fit(windows, clock_rate=1.0, window=5):
    """One transport matrix fitted to the windows of the (trajectory, center)
    pairs stacked, by least squares: with one force direction per
    trajectory, two trajectories resolve a 2-D L that one window cannot."""
    rows = [_window_rows(traj, clock_rate, *_window_bounds(traj, center, window))
            for traj, center in windows]
    forces, fluxes = np.vstack([f for f, _ in rows]), np.vstack([x for _, x in rows])
    solution, *_ = np.linalg.lstsq(forces, fluxes, rcond=None)
    return solution.T


def fit_window(traj, center, clock_rate=1.0, window=5):
    """The library's fit of the window of ``window`` samples around
    ``center`` (None: the middle row)."""
    return _fit(traj, *_window_bounds(traj, center, window), clock_rate)


def count_calls(monkeypatch, cls, names):
    """Wrap ``cls.<name>`` for each name and return the live call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def wrapper(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return counts


def nan_pair_rows(monkeypatch):
    """Turn every batch of Bernoulli states that a ``PairRay`` evaluates
    outside its ``rate``, that is for the rows after its table of tau, into
    NaN.  Returns the live count of the table's batches, which ``rate``
    makes with the true states."""
    states, rate, table = BernoulliFamily.natural_states, PairRay.rate, {"batches": 0, "in": False}

    def counting_rate(self, ts):
        table["in"] = True
        try:
            return rate(self, ts)
        finally:
            table["in"] = False

    def failing_states(self, lams):
        out = states(self, lams)
        if table["in"]:
            table["batches"] += 1
            return out
        return tuple(x * math.nan for x in out)

    monkeypatch.setattr(PairRay, "rate", counting_rate)
    monkeypatch.setattr(BernoulliFamily, "natural_states", failing_states)
    return table
