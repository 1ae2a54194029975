import pytest

from kinwb import (
    VelocityQuadrature,
    dispersion_roots,
    gauss_symmetric,
    rte_closure,
    vfp_preset_nodes,
    vfp_quadrature,
)


@pytest.fixture(scope="session")
def q1():
    """Two-stream as a velocity set: K = 1, v = 1, w = 1."""
    return VelocityQuadrature(nodes=[1.0], weights=[1.0])


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
    return vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
