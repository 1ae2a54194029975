import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinwb import (
    Chemo,
    IllConditioned,
    KineticGrid,
    NonPositiveRate,
    chemo_interfaces,
    density,
    dispersion_roots,
    gauss_symmetric,
    imex_step,
    phi_tanh,
    rte_closure,
    rte_interfaces,
    step_operator,
    stochasticity_check,
    vfp_closure,
    vfp_interfaces,
    vfp_preset_nodes,
    vfp_quadrature,
    well_balanced_residual,
)
from kinwb import scattering
from kinwb.scattering import EPS_SWITCH_FACTOR, _inverse
from kinwb.spectral import first_order_shifts

DX = 1.0 / 32.0


def s0_full(S0):
    Z = np.zeros_like(S0)
    return np.block([[Z, S0], [S0, Z]])


def quarters(M):
    """The four K x K blocks of a 2K x 2K matrix, row by row."""
    K = M.shape[0] // 2
    return M[:K, :K], M[:K, K:], M[K:, :K], M[K:, K:]


def rates(eps, phip):
    """The chemotaxis rates (T(+v), T(-v)) of response samples phi(v*gradS)."""
    return 1.0 + eps * phip, 1.0 - eps * phip


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def test_rte_closure_k2_hand_inverse(q2):
    lams = dispersion_roots(q2)
    cl = rte_closure(q2, lams)
    lam = lams[0]
    # 2x2 inversion by adjugate: M = [[phi(v1), 1], [phi(v2), 1]]
    a, b = 1.0 / (1.0 - lam * q2.nodes[0]), 1.0 / (1.0 - lam * q2.nodes[1])
    det = a - b
    gamma_oracle = np.array([1.0, -1.0]) / det
    beta_oracle = np.array([-b, a]) / det
    assert np.allclose(cl.gamma[0], gamma_oracle, atol=1e-14)
    assert np.allclose(cl.beta, beta_oracle, atol=1e-14)
    assert cl.gamma[0] @ np.array([a, b]) == pytest.approx(1.0, abs=1e-14)
    assert cl.gamma[0] @ np.ones(2) == pytest.approx(0.0, abs=1e-14)
    assert cl.beta @ np.array([a, b]) == pytest.approx(0.0, abs=1e-14)
    assert cl.beta @ np.ones(2) == pytest.approx(1.0, abs=1e-14)
    # frozen values for the standard 2-point rule
    assert np.allclose(cl.gamma[0], [0.23205080756887731, -0.23205080756887731], atol=1e-15)
    assert np.allclose(cl.beta, [0.13397459621556129, 0.86602540378443871], atol=1e-15)


def test_closure_column_sum_kill(q4, spec4, closure4):
    v, w = q4.nodes, q4.weights
    assert np.allclose(closure4.gamma @ np.ones(4), 0.0, atol=1e-13)
    zg = closure4.zeta @ closure4.gamma
    assert np.max(np.abs((w * v) @ zg)) < 1e-10


def test_rte_closure_ill_conditioned(q4):
    clustered = np.array([2.0, 2.0 + 1e-14, 3.0])
    with pytest.raises(IllConditioned):
        rte_closure(q4, clustered)


# ---------------------------------------------------------------------------
# radiative transfer S-matrix
# ---------------------------------------------------------------------------


def test_rte_smatrix_deep_limit(q4, spec4, closure4):
    eps = 1e-11
    stack = rte_interfaces(eps, DX, q4, spec4, closure4)
    assert np.max(np.abs(stack.S[0] - s0_full(stack.S0))) < 1e-8
    # below the switch threshold the explicit blocks are the analytic limit
    assert eps < 1e-8 * DX
    assert stack.B is stack.B0 or np.array_equal(stack.B, stack.B0)


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
def test_rte_smatrix_maxwellian_and_stochasticity(q4, spec4, closure4, eps):
    S = rte_interfaces(eps, DX, q4, spec4, closure4).S[0]
    ones = np.ones(8)
    assert np.max(np.abs(S @ ones - ones)) < 1e-12
    # direct column-summation oracle for Gamma S Gamma^{-1}
    wv = np.concatenate([q4.weights * q4.nodes] * 2)
    cols = (wv[:, None] * S / wv[None, :]).sum(axis=0)
    assert np.max(np.abs(cols - 1.0)) < 1e-10
    rep = stochasticity_check(S, q4)
    assert rep.col_sum_deviation < 1e-10


def test_rte_reconstruction_and_b_limit(q4, spec4, closure4):
    norms = []
    for eps in (1e-2, 1e-3, 1e-4):
        stack = rte_interfaces(eps, DX, q4, spec4, closure4)
        rec = np.max(np.abs(stack.S[0] - s0_full(stack.S0) - eps * stack.B[0]))
        assert rec < 1e-12 * np.max(np.abs(stack.S[0]))
        norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
    assert norms[0] > norms[1] > norms[2]
    # first order: one decade in eps is one decade in the gap
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.3)


def test_rte_b0_block_pattern(q4, spec4, closure4):
    B1, B2, B3, B4 = quarters(rte_interfaces(1e-3, DX, q4, spec4, closure4).B0[0])
    W = 2.0 * np.eye(4) - closure4.zeta @ closure4.gamma
    oracle = np.outer(W @ q4.nodes, closure4.beta) / DX
    assert np.allclose(B1, oracle, atol=1e-12)
    assert np.allclose(B2, -oracle, atol=1e-12)
    assert np.allclose(B3, -oracle, atol=1e-12)
    assert np.allclose(B4, oracle, atol=1e-12)


def test_rte_well_balanced_fixed_point(q4, spec4, closure4):
    for eps in (1e-1, 1e-3):
        S = rte_interfaces(eps, DX, q4, spec4, closure4).S[0]
        ones = np.ones(4)
        assert well_balanced_residual(S, eps, DX, q4, rates=(ones, ones), seed=2) < 1e-10


# ---------------------------------------------------------------------------
# chemotaxis S-matrix
# ---------------------------------------------------------------------------


def test_chemo_reduces_to_rte_at_zero_grad(q4, spec4, closure4):
    for eps in (1e-2, 1e-5):
        a = chemo_interfaces(eps, DX, q4, [0.0], phi_tanh)
        b = rte_interfaces(eps, DX, q4, spec4, closure4)
        assert np.max(np.abs(a.S[0] - b.S[0])) < 1e-12
        assert np.max(np.abs(a.B0[0] - b.B0[0])) < 1e-12


def test_chemo_rate_positivity_guard(q4):
    with pytest.raises(NonPositiveRate):
        chemo_interfaces(1.5, DX, q4, [8.0], phi_tanh)


def test_chemo_stochasticity_and_wb(q4):
    for eps, gradS in ((1e-2, 0.8), (1e-4, -1.3)):
        S = chemo_interfaces(eps, DX, q4, [gradS], phi_tanh).S[0]
        rep = stochasticity_check(S, q4)
        assert rep.col_sum_deviation < 1e-10
        T = rates(eps, phi_tanh(q4.nodes * gradS))
        assert well_balanced_residual(S, eps, DX, q4, rates=T, seed=3) < 1e-10


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_chemo_wb_with_non_default_response(q4, eps):
    # the fixed point of the interface's own response, not of phi_tanh's defaults
    def phi(u):
        return phi_tanh(u, chi=2.0, delta=0.5)

    S = chemo_interfaces(eps, DX, q4, [0.8], phi).S[0]
    T = rates(eps, phi(q4.nodes * 0.8))
    assert well_balanced_residual(S, eps, DX, q4, rates=T, seed=3) <= 1e-10


def test_chemo_reconstruction_and_b_limit(q4):
    norms = []
    for eps in (1e-2, 1e-3, 1e-4):
        stack = chemo_interfaces(eps, DX, q4, [0.8], phi_tanh)
        rec = np.max(np.abs(stack.S[0] - s0_full(stack.S0) - eps * stack.B[0]))
        assert rec < 1e-12 * np.max(np.abs(stack.S[0]))
        norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
    assert norms[0] > norms[1] > norms[2]
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.35)


def test_chemo_b0_flux_contractions(q4):
    """The four weighted contractions of B^{i0} 1 that build the limiting
    exponential-fitting flux (drift E = lambda0^1/3)."""
    gradS = 0.8
    stack = chemo_interfaces(1e-3, DX, q4, [gradS], phi_tanh)
    lam01 = first_order_shifts(q4, dispersion_roots(q4), phi_tanh(q4.nodes * gradS)[None])[0][0]
    E = lam01 / 3.0
    q0 = np.exp(-lam01 * DX)
    d = q0 - 1.0
    wv = q4.weights * q4.nodes
    ones = np.ones(4)
    B1, B2, B3, B4 = quarters(stack.B0[0])
    assert wv @ (B1 @ ones) == pytest.approx(-2.0 * E * q0 / d, rel=1e-10)
    assert wv @ (B2 @ ones) == pytest.approx(2.0 * E / d, rel=1e-10)
    assert wv @ (B3 @ ones) == pytest.approx(2.0 * E + 2.0 * E / d, rel=1e-10)
    assert wv @ (B4 @ ones) == pytest.approx(-2.0 * E / d, rel=1e-10)


def test_chemo_drift_odd_in_grad(q4):
    from kinwb import chemo_drift

    g = np.array([0.3, 0.9, 1.7])
    plus = chemo_drift(q4, g, phi_tanh)
    minus = chemo_drift(q4, -g, phi_tanh)
    assert np.allclose(plus, -minus, atol=1e-15)


# ---------------------------------------------------------------------------
# Vlasov-Fokker-Planck S-matrix
# ---------------------------------------------------------------------------


def test_vfp_closure_identities(qv3):
    cl = vfp_closure(qv3)
    m = np.exp(-qv3.nodes**2 / 2.0)
    assert np.max(np.abs(cl.gamma @ m)) < 1e-13
    assert cl.beta @ m == pytest.approx(1.0, abs=1e-13)
    from kinwb.spectral import vfp_psi0

    for ell in (1, 2):
        basis = vfp_psi0(ell, qv3.nodes, 1.0)
        assert cl.beta @ basis == pytest.approx(0.0, abs=1e-12)
        for k in (1, 2):
            assert cl.gamma[k - 1] @ basis == pytest.approx(
                1.0 if k == ell else 0.0, abs=1e-12
            )


def test_vfp_closure_single_node():
    q1 = vfp_quadrature(1, 1.0, np.array([1.0]))
    cl = vfp_closure(q1)
    assert cl.zeta.shape == (1, 0)
    assert cl.gamma.shape == (0, 1)
    assert cl.beta[0] == pytest.approx(np.exp(0.5), rel=1e-14)


def test_vfp_s0_independent_of_field(qv3):
    a = vfp_interfaces(1e-3, DX, qv3, [+2.0])
    b = vfp_interfaces(1e-3, DX, qv3, [-2.0])
    assert np.array_equal(a.S0, b.S0)


def test_vfp_maxwellian_fixed_at_zero_field(qv3):
    m = np.exp(-qv3.nodes**2 / 2.0)
    mm = np.concatenate([m, m])
    for eps in (1e-1, 1e-3, 1e-6):
        S = vfp_interfaces(eps, DX, qv3, [0.0]).S[0]
        assert np.max(np.abs(S @ mm - mm)) < 1e-12


def test_vfp_b10_contraction_reference_value(qv3):
    # sum_k w_k v_k (B^{10} exp(-V^2/2kappa))_k = (2E/kappa) sigma2 / (1 - exp(-E dx/kappa))
    kappa = 1.0
    m = np.exp(-qv3.nodes**2 / (2.0 * kappa))
    wv = qv3.weights * qv3.nodes
    sigma2 = np.sum(qv3.weights * qv3.nodes**2 * m)
    for E in (2.0, 0.5, -1.0):
        B1 = quarters(vfp_interfaces(1e-4, DX, qv3, [E]).B0[0])[0]
        got = wv @ (B1 @ m)
        expect = (2.0 * E / kappa) * sigma2 / (1.0 - np.exp(-E * DX / kappa))
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("E", [2.0, -0.7, 0.05, 0.0])
def test_vfp_reconstruction_b_limit_and_wb(qv3, E):
    norms = []
    for eps in (1e-2, 1e-3, 1e-4):
        stack = vfp_interfaces(eps, DX, qv3, [E])
        rec = np.max(np.abs(stack.S[0] - s0_full(stack.S0) - eps * stack.B[0]))
        assert rec < 1e-12 * np.max(np.abs(stack.S[0]))
        norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
        assert well_balanced_residual(stack.S[0], eps, DX, qv3, E=E, seed=4) < 1e-10
    assert norms[0] > norms[1] > norms[2]


def test_vfp_flux_defect_scales_with_eps_and_E(qv3):
    """The finite-eps Hermite modes are only O(eps*E) flux-free on the
    discrete nodes, so column stochasticity degrades linearly (reported,
    not asserted as exact by the scheme)."""
    devs = {}
    for eps in (1e-3, 1e-4):
        for E in (0.5, 2.0):
            S = vfp_interfaces(eps, DX, qv3, [E]).S[0]
            devs[(eps, E)] = stochasticity_check(S, qv3).col_sum_deviation
    assert devs[(1e-4, 0.5)] == pytest.approx(devs[(1e-3, 0.5)] / 10.0, rel=0.15)
    assert devs[(1e-3, 2.0)] == pytest.approx(4.0 * devs[(1e-3, 0.5)], rel=0.15)
    # and exactly conserving at E = 0
    S = vfp_interfaces(1e-2, DX, qv3, [0.0]).S[0]
    assert stochasticity_check(S, qv3).col_sum_deviation < 1e-12


# ---------------------------------------------------------------------------
# interface stacks against stacks of one
# ---------------------------------------------------------------------------

# eps on both sides of the B0 switch at EPS_SWITCH_FACTOR*DX (about 3e-10)
EPS = st.floats(-12.0, -1.0).map(lambda e: 10.0**e)
# exact zeros hit the radiative-transfer B0 branch (chemo) and E = 0 (vfp)
VALUES = st.lists(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)), min_size=1, max_size=6)


def assert_rows_match(stack, singles):
    for i, single in enumerate(singles):
        for got, want in (
            (stack.S[i], single.S[0]),
            (stack.B[i], single.B[0]),
            (stack.B0[i], single.B0[0]),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([2, 4, 8]), eps=EPS, grads=VALUES)
@example(K=4, eps=0.1 * EPS_SWITCH_FACTOR * DX, grads=[0.0, 0.8, -1.3])
@example(K=4, eps=1e-3, grads=[0.0, 0.8, -1.3])
@example(K=2, eps=1e-6, grads=[-1.23, 3.58])  # roots must not depend on the batch
def test_chemo_stack_matches_single_interfaces(K, eps, grads):
    q = gauss_symmetric(K)
    stack = chemo_interfaces(eps, DX, q, grads, phi_tanh)
    assert stack.S.shape == (len(grads), 2 * K, 2 * K)
    assert_rows_match(stack, [chemo_interfaces(eps, DX, q, [g], phi_tanh) for g in grads])


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([1, 2, 3]), eps=EPS, fields=VALUES)
@example(K=3, eps=0.1 * EPS_SWITCH_FACTOR * DX, fields=[0.0, 0.5, -2.0])
@example(K=3, eps=1e-3, fields=[0.0, 0.5, -2.0])
def test_vfp_stack_matches_single_interfaces(K, eps, fields):
    q = vfp_quadrature(K, 1.0, vfp_preset_nodes(K, 1.0))
    stack = vfp_interfaces(eps, DX, q, fields)
    assert stack.S.shape == (len(fields), 2 * K, 2 * K)
    assert_rows_match(stack, [vfp_interfaces(eps, DX, q, [E]) for E in fields])


def test_ill_conditioned_interface_is_named(qv3):
    # an extreme field at interface 2 makes its mode matrix singular
    with pytest.raises(IllConditioned, match="interface 2"):
        vfp_interfaces(1e-3, DX, qv3, [0.5, -0.5, 1e4, 0.0])


# ---------------------------------------------------------------------------
# the guarded inverse and B0 built on demand
# ---------------------------------------------------------------------------


def test_exactly_singular_member_is_named():
    A = np.stack([np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.eye(2)])
    with pytest.raises(IllConditioned, match="interface 2: mode matrix is singular"):
        _inverse(A)


def test_condition_number_past_limit_is_named():
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    assert np.linalg.cond(near, 1) == pytest.approx(4e14, rel=0.1)
    with pytest.raises(IllConditioned, match="interface 1: mode matrix 1-norm condition"):
        _inverse(np.stack([np.eye(2), near, np.eye(2)]))


@pytest.mark.parametrize("scale, passes", [(0.99, True), (1.01, False)])
def test_guard_is_the_exact_one_norm_condition_number(scale, passes):
    rng = np.random.default_rng(3)
    U, _, Vt = np.linalg.svd(rng.standard_normal((4, 4)))

    def basis(t):
        return U @ np.diag([1.0, 1e-3, 1e-6, t]) @ Vt

    # ||A^{-1}||_1 is dominated by 1/t: rescale t to put cond_1 at scale*1e12
    A = basis(1e-12 * np.linalg.cond(basis(1e-12), 1) / (scale * 1e12))
    assert np.linalg.cond(A, 1) == pytest.approx(scale * 1e12, rel=1e-3)
    if passes:
        assert np.allclose(_inverse(A[None])[0] @ A, np.eye(4), atol=1e-3)
    else:
        with pytest.raises(IllConditioned, match="interface 0"):
            _inverse(A[None])


def counting(monkeypatch, name):
    calls = []
    original = getattr(scattering, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scattering, name, counted)
    return calls


def test_chemo_b0_built_only_when_read(monkeypatch, q4):
    calls = counting(monkeypatch, "_chemo_B0")
    grads = [0.0, 0.8, -1.3]
    above = chemo_interfaces(1e-3, DX, q4, grads, phi_tanh)
    assert calls == []
    x = (np.arange(16) + 0.5) / 16
    model = Chemo(q4, phi_tanh)
    grid = KineticGrid(Nx=16, dx=1 / 16, dt=1 / 256, epsilon=1e-4, q=q4,
                       f=model.equilibrium(1 + 0.5 * np.cos(2 * np.pi * x)))
    op = step_operator(grid, model)
    for _ in range(3):
        grid = imex_step(grid, op, model.field(density(grid), grid.dx))
    assert calls == []
    below = chemo_interfaces(0.1 * EPS_SWITCH_FACTOR * DX, DX, q4, grads, phi_tanh)
    assert len(calls) == 1
    # B0 does not depend on eps: read on demand it is the stack built below the switch
    assert np.array_equal(above.B0, below.B)
    assert below.B0 is below.B
    assert np.array_equal(above.B0[1], below.B[1])
    assert len(calls) == 2  # once for `below`, once for the first read of above.B0


def test_vfp_b0_built_only_when_read(monkeypatch, qv3):
    calls = counting(monkeypatch, "_vfp_B0")
    fields = [0.0, 0.5, -2.0]
    above = vfp_interfaces(1e-3, DX, qv3, fields)
    assert calls == []
    eager = scattering._vfp_B0(DX, qv3.nodes, np.asarray(fields), 1.0, vfp_closure(qv3))
    assert np.array_equal(above.B0, eager)
    below = vfp_interfaces(0.1 * EPS_SWITCH_FACTOR * DX, DX, qv3, fields)
    assert np.array_equal(below.B, eager) and below.B0 is below.B
    assert len(calls) == 3  # the eager reference, above.B0, and `below`
    single = vfp_interfaces(1e-3, DX, qv3, [0.5])
    assert np.array_equal(single.B0[0], eager[1])

