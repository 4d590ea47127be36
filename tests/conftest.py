import pytest

from mfgibbs.estimators import DistributionFunction, deep_policy
from mfgibbs.ifs_geometry import IfsSystem
from mfgibbs.spectrum import spectrum_curve
from mfgibbs.thermodynamics import Potential, normalize


@pytest.fixture(scope="session")
def cantor():
    return IfsSystem.affine((0.0, 1.0), [(1 / 3, 0.0), (1 / 3, 2 / 3)])


@pytest.fixture(scope="session")
def cantor_psi():
    return Potential.from_probabilities((0.25, 0.75))


@pytest.fixture(scope="session")
def uniform_psi():
    return Potential.from_probabilities((0.5, 0.5))


@pytest.fixture(scope="session")
def lebesgue():
    return IfsSystem.affine((0.0, 1.0), [(0.5, 0.0), (0.5, 0.5)])


@pytest.fixture(scope="session")
def moebius():
    return IfsSystem.moebius((0.0, 1.0), [(1, 0, 1, 2), (2, 2, 1, 3)])


@pytest.fixture(scope="session")
def moebius_psi(moebius):
    # geometric potential shifted so the level-10 pressure vanishes
    return normalize(moebius, Potential.geometric(moebius), k_max=10)


@pytest.fixture(scope="session")
def F_cantor(cantor, cantor_psi):
    return DistributionFunction(cantor, cantor_psi, deep_policy(cantor))


@pytest.fixture(scope="session")
def F_uniform(cantor, uniform_psi):
    return DistributionFunction(cantor, uniform_psi, deep_policy(cantor))


@pytest.fixture(scope="session")
def F_lebesgue(lebesgue, uniform_psi):
    return DistributionFunction(lebesgue, uniform_psi, deep_policy(lebesgue))


@pytest.fixture(scope="session")
def cantor_curve(cantor, cantor_psi):
    return spectrum_curve(cantor, cantor_psi)
