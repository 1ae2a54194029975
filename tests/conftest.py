import pytest

from kinwb import (
    dispersion_roots,
    gauss_symmetric,
    rte_closure,
    vfp_preset_nodes,
    vfp_quadrature,
)


@pytest.fixture(scope="session")
def q2():
    return gauss_symmetric(2)


@pytest.fixture(scope="session")
def q4():
    return gauss_symmetric(4)


@pytest.fixture(scope="session")
def spec4(q4):
    return dispersion_roots(q4)


@pytest.fixture(scope="session")
def closure4(q4, spec4):
    return rte_closure(q4, spec4)


@pytest.fixture(scope="session")
def qv3():
    return vfp_quadrature(3, 1.0, vfp_preset_nodes(3, 1.0))
