import numpy as np
import pytest

from entroflow import (
    BernoulliFamily,
    CompositeSystem,
    GaussianMeanFamily,
    IdealGasFamily,
    integrate,
)
from helpers import OracleTable


@pytest.fixture(scope="session")
def bernoulli():
    return BernoulliFamily()


@pytest.fixture(scope="session")
def two_point():
    """The Bernoulli family as a table, so its Legendre maps go through Newton."""
    return OracleTable([1.0, 1.0], [[0.0, 1.0]])


@pytest.fixture(scope="session")
def gaussian():
    return GaussianMeanFamily()


@pytest.fixture(scope="session")
def gaussian2():
    return GaussianMeanFamily(dim=2)


@pytest.fixture(scope="session")
def ideal_gas():
    return IdealGasFamily(volume=2.0)


@pytest.fixture(scope="session")
def equal_gas_pair():
    return CompositeSystem(IdealGasFamily(1.0), IdealGasFamily(1.0), [4.0, 2.0])


@pytest.fixture(scope="session")
def bernoulli_pair():
    return CompositeSystem(BernoulliFamily(), BernoulliFamily(), [1.0])


@pytest.fixture(scope="session")
def gas_e_only_pair():
    return CompositeSystem(
        IdealGasFamily(1.0, fixed_n=1.0), IdealGasFamily(1.0, fixed_n=1.0), [4.0]
    )


# session-scoped canned trajectories: integrations are the slow part of the
# suite, so share them between tests that only read


@pytest.fixture(scope="session")
def bernoulli_traj(bernoulli):
    return integrate(bernoulli, [0.25], tau_max=2.0)


@pytest.fixture(scope="session")
def gaussian_traj(gaussian):
    return integrate(gaussian, [-2.0], tau_max=3.0)


@pytest.fixture(scope="session")
def coupled_gas_traj(equal_gas_pair):
    return integrate(equal_gas_pair, [1.0, 0.5], tau_max=10.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240831)
