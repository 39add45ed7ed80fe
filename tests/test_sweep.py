"""A seeded sweep of single-family runs that start toward the boundaries of
their state spaces: each ends at the entropy maximum or at its tau budget,
with the integrated entropy check within its bound, and where a closed form
gives the run, within its bound of that.

The starts are log-uniform toward every boundary: Bernoulli within 1e-14 to
1e-3 of either end, the 2-D Gaussian from 1 to 1e3 out along each axis,
the ideal gases from 1e-6 to 1e6 in E (and N), and seeded 3 x 50 tables
whose statistics are scaled by 1e-3 to 1e6, from a natural parameter whose
size times that scale runs from 0.1 to 30, which puts the mean near a face
of the table's hull.  Two families start where sigma is small, as at a
maximum, though the maximum is far off: Bernoulli 1e-150 to 1e-14 from 0, whose ray
ends at pi/2 - 2 asin sqrt(A0), and fixed-N gases of 1e-20 to 1e-6
particles, whose E grows as E0 exp(tau / sqrt(1.5 N)) for 100 sqrt(1.5 N)
of tau.  Runs that fail are strict xfails that name the open item that
explains them, so that the marker comes off when it is mended.
"""

import numpy as np
import pytest

from entroflow import (BernoulliFamily, GaussianMeanFamily, IdealGasFamily,
                       entropy_production_check, integrate)
from helpers import OracleTable, tabulated_mean

ENTROPY_BOUND = 1e-13
#: Bounds of tau against a closed form, and of a state's relative error.
TAU_BOUND = 1e-12
STATE_BOUND = 1e-13
SWEEP_SEED = 11
RUNS_PER_FAMILY = 10


def log_uniform(rng, low, high):
    return 10.0 ** rng.uniform(np.log10(low), np.log10(high))


def bernoulli(rng):
    d = log_uniform(rng, 1e-14, 1e-3)
    return BernoulliFamily(), [d if rng.random() < 0.5 else 1.0 - d], 2.0, 2e-3


def gaussian(rng):
    A0 = rng.choice([-1.0, 1.0], 2) * log_uniform(rng, np.ones(2), np.full(2, 1e3))
    size = float(np.linalg.norm(A0))  # the ray ends at tau = |A0|
    return GaussianMeanFamily(dim=2), A0.tolist(), 1.5 * size, size / 500.0


def gas_fixed_n(rng):
    family = IdealGasFamily(log_uniform(rng, 0.1, 10.0), fixed_n=log_uniform(rng, 0.1, 10.0))
    return family, [log_uniform(rng, 1e-6, 1e6)], 5.0, 5e-3


def gas(rng):
    family = IdealGasFamily(log_uniform(rng, 0.1, 10.0))
    return family, log_uniform(rng, np.full(2, 1e-6), np.full(2, 1e6)).tolist(), 2.0, 2e-3


def table(rng):
    scale = log_uniform(rng, 1e-3, 1e6)
    weights, stats = rng.uniform(0.5, 2.0, 50), scale * rng.normal(size=(3, 50))
    lam0 = rng.normal(size=3)
    lam0 *= log_uniform(rng, 0.1, 30.0) / (scale * np.linalg.norm(lam0))
    return OracleTable(weights, stats), tabulated_mean(weights, stats, lam0), 40.0, 0.04


def bernoulli_edge(rng):
    return BernoulliFamily(), [log_uniform(rng, 1e-150, 1e-14)], 2.0, 2e-3


def gas_fixed_n_scarce(rng):
    n = log_uniform(rng, 1e-20, 1e-6)
    family = IdealGasFamily(log_uniform(rng, 0.1, 10.0), fixed_n=n)
    tau_max = 100.0 * np.sqrt(1.5 * n)
    return family, [log_uniform(rng, 1e-6, 1e6)], tau_max, tau_max / 1000.0


#: Each family's generator index is its place here, so a family added at
#: the end leaves the draws of the others as they were.
FAMILIES = {"bernoulli": bernoulli, "gaussian-2d": gaussian, "gas-fixed-n": gas_fixed_n,
            "gas": gas, "table": table, "bernoulli-edge": bernoulli_edge,
            "gas-fixed-n-scarce": gas_fixed_n_scarce}


def edge_tau_error(system, A0, traj):
    return abs(traj.tau[-1] - (0.5 * np.pi - 2.0 * np.arcsin(np.sqrt(A0[0])))), TAU_BOUND


def scarce_gas_error(system, A0, traj):
    exact = A0[0] * np.exp(traj.tau / np.sqrt(1.5 * system.fixed_n))
    return np.max(np.abs(traj.A[:, 0] / exact - 1.0)), STATE_BOUND


#: The error of a run against its closed form, and the bound it must meet.
CLOSED_FORMS = {"bernoulli-edge": edge_tau_error, "gas-fixed-n-scarce": scarce_gas_error}


def sweep_cases():
    """(family name, run index) and the run's (system, A0, tau_max, h), the
    runs of each family drawn in turn from one generator per family."""
    cases = {}
    for index, (name, draw) in enumerate(FAMILIES.items()):
        rng = np.random.default_rng([SWEEP_SEED, index])
        for k in range(RUNS_PER_FAMILY):
            cases[name, k] = draw(rng)
    return cases


CASES = sweep_cases()
#: Runs whose check exceeds the bound today, each with its cause.  In each
#: E-and-N gas run below, S - S_0 at the worst row is within 2.5e-14 of an
#: adaptive quadrature of sigma^2 in u = -ln t, and the table's gain is not.
_OPEN_GAIN = ("ROADMAP item 4a: the open table's gain is off by {} at its worst row, "
              "with E0 / N0 = {:.1e}; S there is the closed form")
FAILING = {
    ("gas", 0): _OPEN_GAIN.format("1.8e-6", 1.5e10),
    ("gas", 6): _OPEN_GAIN.format("2.3e-9", 3.2e7),
    ("gas", 9): _OPEN_GAIN.format("7.1e-8", 6.3e7),
}


@pytest.mark.parametrize(
    "key",
    [pytest.param(key, marks=pytest.mark.xfail(strict=True, reason=FAILING[key]))
     if key in FAILING else key for key in CASES],
    ids=[f"{name}-{k}" for name, k in CASES],
)
def test_a_start_toward_a_boundary_ends_within_the_bound(key):
    system, A0, tau_max, h = CASES[key]
    traj = integrate(system, A0, tau_max=tau_max, h=h)
    assert traj.terminal_status in ("equilibrium-reached", "tau-budget-exhausted")
    assert entropy_production_check(traj).max_residual <= ENTROPY_BOUND
    if key[0] in CLOSED_FORMS:
        error, bound = CLOSED_FORMS[key[0]](system, A0, traj)
        assert error <= bound
