import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinwb import (
    InfeasibleNodes,
    SingularBasis,
    VelocityQuadrature,
    gauss_symmetric,
    moment_report,
    vfp_preset_nodes,
    vfp_quadrature,
)
from kinwb.quadrature import _preset_root


def legendre_newton_nodes(K, iters=100):
    """Independent high-precision Gauss-Legendre oracle: Newton iteration
    on P_K starting from the Chebyshev-angle guess."""
    k = np.arange(1, K + 1)
    x = np.cos(np.pi * (k - 0.25) / (K + 0.5))
    for _ in range(iters):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for n in range(2, K + 1):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        dp = K * (x * p1 - p0) / (x**2 - 1.0)
        x = x - p1 / dp
    p0 = np.ones_like(x)
    p1 = x.copy()
    for n in range(2, K + 1):
        p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
    dp = K * (x * p1 - p0) / (x**2 - 1.0)
    w = 2.0 / ((1.0 - x**2) * dp**2)
    order = np.argsort(x)
    return x[order], w[order]


def test_gauss_two_point_closed_form(q2):
    # hand-checkable algebra: nodes (3 -+ sqrt(3))/6, equal weights 1/2
    expected = np.array([(3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0])
    assert np.allclose(q2.nodes, expected, atol=1e-15)
    assert np.allclose(q2.weights, 0.5, atol=1e-15)


def test_midpoint_rule_flagged():
    q1 = gauss_symmetric(1)
    assert q1.nodes[0] == 0.5 and q1.weights[0] == 1.0
    rep = moment_report(q1)
    assert rep.second_moment == pytest.approx(0.25)
    assert not rep.passed


def test_gauss_four_point_against_newton_oracle():
    q = gauss_symmetric(4)
    x, w = legendre_newton_nodes(4)
    assert np.allclose(q.nodes, (x + 1.0) / 2.0, atol=1e-14)
    assert np.allclose(q.weights, w / 2.0, atol=1e-14)
    assert abs(np.sum(q.weights) - 1.0) < 1e-14
    assert abs(np.sum(q.weights * q.nodes**2) - 1.0 / 3.0) < 1e-14


@pytest.mark.parametrize("K", [2, 3, 5, 8, 13, 21, 32])
def test_gauss_moments_all_orders(K):
    rep = moment_report(gauss_symmetric(K))
    assert abs(rep.sum_weights - 1.0) < 1e-14
    assert abs(rep.second_moment - 1.0 / 3.0) < 1e-13
    assert rep.passed


def test_gauss_is_value_object():
    a, b = gauss_symmetric(6), gauss_symmetric(6)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    with pytest.raises(ValueError):
        a.nodes[0] = 0.1  # frozen array


def test_constructor_validation():
    with pytest.raises(ValueError):
        VelocityQuadrature(np.array([0.5, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        VelocityQuadrature(np.array([0.2, 0.5]), np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        VelocityQuadrature(np.array([1.0]), np.array([1.0]), kappa=0.0)  # real line needs kappa > 0


def test_vfp_single_node_requires_sqrt_kappa():
    q = vfp_quadrature(1, 1.0, np.array([1.0]))
    assert q.weights[0] == pytest.approx(1.0)  # normalized to unit weight sum
    with pytest.raises(InfeasibleNodes):
        vfp_quadrature(1, 1.0, np.array([1.3]))
    # kappa = 4: feasible node is sqrt(kappa) = 2
    q = vfp_quadrature(1, 4.0, np.array([2.0]))
    rep = moment_report(q)
    assert rep.passed


def test_vfp_k3_preset_solves_constraints(qv3):
    # independent oracle: rebuild the constraint rows and substitute back
    from kinwb.spectral import vfp_psi0

    v, w = qv3.nodes, qv3.weights
    for ell in (1, 2):
        res = np.sum(w * v * (vfp_psi0(ell, v, 1.0) - vfp_psi0(ell, -v, 1.0)))
        assert abs(res) < 1e-12
    m = np.exp(-(v**2) / 2.0)
    assert abs(np.sum(w * v**2 * m) - np.sum(w * m)) < 1e-12
    assert np.all(w > 0.0)
    assert moment_report(qv3).passed


@pytest.mark.parametrize("K,kappa", [(1, 1.0), (2, 1.0), (3, 1.0), (2, 0.5), (3, 2.0)])
def test_vfp_presets_feasible(K, kappa):
    q = vfp_quadrature(K, kappa, vfp_preset_nodes(K, kappa))
    rep = moment_report(q)
    assert rep.passed
    assert abs(rep.sigma2 - kappa * rep.sigma0) < 1e-10


@pytest.mark.parametrize("K, fixed, bracket", [(2, [0.7], (1.5, 2.5)), (3, [0.6, 1.4], (2.5, 3.0))])
def test_vfp_presets_are_the_bisected_roots(K, fixed, bracket):
    # the shipped constants are what the bisection returns, to the bit
    bisected = fixed + [_preset_root(fixed, bracket)]
    assert [v.hex() for v in vfp_preset_nodes(K, 1.0).tolist()] == [v.hex() for v in bisected]


def test_vfp_generic_nodes_infeasible():
    # the constraint system has no kernel at generic node choices
    with pytest.raises(InfeasibleNodes):
        vfp_quadrature(3, 1.0, np.array([0.6, 1.4, 2.4]))


def test_vfp_duplicated_nodes_singular_basis():
    with pytest.raises(SingularBasis):
        vfp_quadrature(3, 1.0, np.array([1.0, 1.0, 2.0]))


def test_vfp_feasible_but_negative_weights():
    # on the feasibility manifold, but too lopsided: the kernel mixes signs
    from kinwb import NegativeWeight
    from kinwb.quadrature import _vfp_constraint_matrix

    def det(v3):
        return np.linalg.det(_vfp_constraint_matrix(np.array([0.2, 0.5, v3]), 1.0))

    lo, hi = 2.5, 3.0
    flo = det(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if det(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    with pytest.raises(NegativeWeight):
        vfp_quadrature(3, 1.0, np.array([0.2, 0.5, 0.5 * (lo + hi)]))


@settings(max_examples=25, deadline=None)
@given(K=st.integers(min_value=2, max_value=24))
def test_gauss_moments_property(K):
    rep = moment_report(gauss_symmetric(K))
    assert rep.passed
