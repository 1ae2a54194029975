import math
import re

import numpy as np
import pytest
from hypothesis import example, given, note, settings, strategies as st

from kinwb import (
    Chemo,
    ExperimentConfig,
    IllConditioned,
    KineticGrid,
    KinwbError,
    NonPositiveRate,
    Rte,
    Vfp,
    ap_error_table,
    chemo_interfaces,
    density,
    dispersion_roots,
    equilibrium,
    gauss_symmetric,
    imex_step,
    phi_tanh,
    rte_closure,
    step_operator,
    stochasticity_check,
    vfp_closure,
    vfp_interfaces,
    vfp_preset_nodes,
    vfp_quadrature,
    well_balanced_residual,
)
from kinwb import models, scattering, spectral
from kinwb.diagnostics import loglog_slope
from kinwb.macrolimit import bernoulli, sg_step
from kinwb.scattering import _COND_LIMIT, EPS_SWITCH_FACTOR, _inverse
from kinwb.spectral import first_order_shifts, vfp_mu, vfp_psi

DX = 1.0 / 32.0
ULP = np.finfo(float).eps


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


def test_rte_smatrix_deep_limit(q4, closure4):
    eps = 1e-11
    stack = Rte(q4).interfaces(eps, DX, None)
    assert np.max(np.abs(stack.S[0] - s0_full(closure4.S0))) < 1e-8
    # below the switch threshold the explicit blocks are the analytic limit
    assert eps < 1e-8 * DX
    assert stack.B is stack.B0 or np.array_equal(stack.B, stack.B0)


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
def test_rte_smatrix_maxwellian_and_stochasticity(q4, eps):
    S = Rte(q4).interfaces(eps, DX, None).S[0]
    ones = np.ones(8)
    assert np.max(np.abs(S @ ones - ones)) < 1e-12
    # direct column-summation oracle for Gamma S Gamma^{-1}
    wv = np.concatenate([q4.weights * q4.nodes] * 2)
    cols = (wv[:, None] * S / wv[None, :]).sum(axis=0)
    assert np.max(np.abs(cols - 1.0)) < 1e-10
    rep = stochasticity_check(S, q4)
    assert rep.col_sum_deviation < 1e-10


def test_rte_reconstruction_and_b_limit(q4, closure4):
    norms = []
    for eps in (1e-2, 1e-3, 1e-4):
        stack = Rte(q4).interfaces(eps, DX, None)
        rec = np.max(np.abs(stack.S[0] - s0_full(closure4.S0) - eps * stack.B[0]))
        assert rec < 1e-12 * np.max(np.abs(stack.S[0]))
        norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
    assert norms[0] > norms[1] > norms[2]
    # first order: one decade in eps is one decade in the gap
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.3)


def test_rte_b0_block_pattern(q4, closure4):
    B1, B2, B3, B4 = quarters(Rte(q4).interfaces(1e-3, DX, None).B0[0])
    W = 2.0 * np.eye(4) - closure4.zeta @ closure4.gamma
    oracle = np.outer(W @ q4.nodes, closure4.beta) / DX
    assert np.allclose(B1, oracle, atol=1e-12)
    assert np.allclose(B2, -oracle, atol=1e-12)
    assert np.allclose(B3, -oracle, atol=1e-12)
    assert np.allclose(B4, oracle, atol=1e-12)


def test_rte_well_balanced_fixed_point(q4):
    for eps in (1e-1, 1e-3):
        S = Rte(q4).interfaces(eps, DX, None).S[0]
        ones = np.ones(4)
        assert well_balanced_residual(S, eps, DX, q4, rates=(ones, ones)) < 1e-10


# ---------------------------------------------------------------------------
# chemotaxis S-matrix
# ---------------------------------------------------------------------------


def test_chemo_reduces_to_rte_at_zero_grad(q4):
    chemo, rte = Chemo(q4, phi_tanh), Rte(q4)
    for eps in (1e-2, 1e-5):
        a = chemo_interfaces(eps, DX, chemo, [0.0])
        b = rte.interfaces(eps, DX, None)
        assert np.max(np.abs(a.S[0] - b.S[0])) < 1e-12
        assert np.max(np.abs(a.B0[0] - b.B0[0])) < 1e-12


def test_chemo_rate_positivity_guard(q4):
    with pytest.raises(NonPositiveRate):
        chemo_interfaces(1.5, DX, Chemo(q4, phi_tanh), [8.0])


@pytest.mark.parametrize("slope", [0.8, 8.0, -1.3])
def test_chemo_rate_guard_at_its_exact_boundary(q4, slope):
    # the least eps at which 1 - eps*max|phi| rounds to <= 0
    top = np.max(np.abs(phi_tanh(q4.nodes * slope)))
    eps = 1.0 / top
    while 1.0 - eps * top <= 0.0:
        eps = np.nextafter(eps, 0.0)
    while 1.0 - eps * top > 0.0:
        eps = np.nextafter(eps, np.inf)
    model = Chemo(q4, phi_tanh)
    with pytest.raises(NonPositiveRate):
        chemo_interfaces(eps, DX, model, [slope])
    # one ulp below it the rate guard passes; the mode matrices are nearly
    # singular there, so the assembly may still fail, but only with a typed error
    try:
        chemo_interfaces(np.nextafter(eps, 0.0), DX, model, [slope])
    except KinwbError as exc:
        assert not isinstance(exc, NonPositiveRate)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 16),
    slope=st.floats(0.3, 20.0) | st.floats(-20.0, -0.3),
    chi=st.sampled_from([0.1, 1.0, 2.5, 40.0]),
    delta=st.sampled_from([0.05, 1.0, 3.0]),
    ulps=st.integers(-8, 8),
)
def test_chemo_rate_guard_decides_as_the_elementwise_margin(K, slope, chi, delta, ulps):
    # eps*max|phi| >= 1 must raise exactly where some 1 - eps*|phi| rounds to <= 0
    q = gauss_symmetric(K)

    def phi(u):
        return phi_tanh(u, chi=chi, delta=delta)

    phip = phi(np.outer([slope], q.nodes))
    eps = 1.0 / np.max(np.abs(phip))
    for _ in range(abs(ulps)):
        eps = np.nextafter(eps, np.inf if ulps > 0 else 0.0)
    margins = 1.0 - eps * np.abs(phip)
    note(f"eps={eps!r}, min margin {np.min(margins)!r}")
    model = Chemo(q, phi)
    if np.any(margins <= 0.0):
        with pytest.raises(NonPositiveRate, match=re.escape(f"min margin {np.min(margins):.3e}")):
            chemo_interfaces(eps, DX, model, [slope])
    else:
        try:
            chemo_interfaces(eps, DX, model, [slope])
        except KinwbError as exc:  # nearly singular mode matrices, typed
            assert not isinstance(exc, NonPositiveRate)


def test_chemo_stochasticity_and_wb(q4):
    model = Chemo(q4, phi_tanh)
    for eps, gradS in ((1e-2, 0.8), (1e-4, -1.3)):
        S = chemo_interfaces(eps, DX, model, [gradS]).S[0]
        rep = stochasticity_check(S, q4)
        assert rep.col_sum_deviation < 1e-10
        T = rates(eps, phi_tanh(q4.nodes * gradS))
        assert well_balanced_residual(S, eps, DX, q4, rates=T) < 1e-10


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_chemo_wb_with_non_default_response(q4, eps):
    # the fixed point of the interface's own response, not of phi_tanh's defaults
    def phi(u):
        return phi_tanh(u, chi=2.0, delta=0.5)

    S = chemo_interfaces(eps, DX, Chemo(q4, phi), [0.8]).S[0]
    T = rates(eps, phi(q4.nodes * 0.8))
    assert well_balanced_residual(S, eps, DX, q4, rates=T) <= 1e-10


@pytest.mark.parametrize("gradS", [0.8, -1.3])
def test_chemo_wb_deep_eps(q4, gradS):
    # the rates 1 +- eps*phi differ only in their last digits here; they are
    # still uneven, so the oracle's zero mode is the uneven one
    model = Chemo(q4, phi_tanh)
    for eps in (1e-6, 1e-8, 1e-10, 1e-12):
        S = chemo_interfaces(eps, DX, model, [gradS]).S[0]
        T = rates(eps, phi_tanh(q4.nodes * gradS))
        assert well_balanced_residual(S, eps, DX, q4, rates=T) <= 1e-10


def test_chemo_reconstruction_and_b_limit(q4, closure4):
    norms = []
    model = Chemo(q4, phi_tanh)
    for eps in (1e-2, 1e-3, 1e-4):
        stack = chemo_interfaces(eps, DX, model, [0.8])
        rec = np.max(np.abs(stack.S[0] - s0_full(closure4.S0) - eps * stack.B[0]))
        assert rec < 1e-12 * np.max(np.abs(stack.S[0]))
        norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
    assert norms[0] > norms[1] > norms[2]
    assert norms[0] / norms[1] == pytest.approx(10.0, rel=0.35)


def test_chemo_b0_flux_contractions(q4):
    """The four weighted contractions of B^{i0} 1 that build the limiting
    exponential-fitting flux (drift E = lambda0^1/3)."""
    gradS = 0.8
    model = Chemo(q4, phi_tanh)
    stack = chemo_interfaces(1e-3, DX, model, [gradS])
    phip = phi_tanh(q4.nodes * gradS)[None]
    lam01 = first_order_shifts(q4, model.base, phip, model.shifts)[0][0]
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


@pytest.mark.parametrize("K", [1, 2, 4, 8, 16])
def test_chemo_b0_continuous_through_zero_slope(K):
    # the zero mode carries (exp(-lambda0^1 dx) - 1)/lambda0^1, finite at
    # lambda0^1 = 0, so B0 is Lipschitz in the slope with no flat branch
    q = gauss_symmetric(K)

    def phi(u):
        return 2.0 * np.tanh(u)

    model = Chemo(q, phi)
    for dx in (1.0 / 256, 1.0 / 64, 0.5):
        flat = chemo_interfaces(1e-3, dx, model, [0.0]).B0[0]
        for g in (1e-300, 1e-14, 1e-11, 1e-9, 1e-6, -1e-6):
            B0 = chemo_interfaces(1e-3, dx, model, [g]).B0[0]
            assert np.max(np.abs(B0 - flat)) <= abs(g) * np.max(np.abs(flat)), (dx, g)


@pytest.mark.parametrize("K", [1, 2, 4, 8, 16])
def test_chemo_assembles_at_deep_eps_on_coarse_cells(K):
    # at dx = 1/2 and eps = 1e-12 the zero-mode column stays O(dx), so the
    # mode matrix keeps a modest condition number instead of dx/eps
    q = gauss_symmetric(K)
    stack = chemo_interfaces(1e-12, 0.5, Chemo(q, phi_tanh), [0.0, 0.3, -1.0])
    assert np.all(np.isfinite(stack.S)) and np.all(np.isfinite(stack.B))


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
    q1 = vfp_quadrature(1.0, np.array([1.0]))
    cl = vfp_closure(q1)
    assert cl.zeta.shape == (1, 0)
    assert cl.gamma.shape == (0, 1)
    assert cl.beta[0] == pytest.approx(np.exp(0.5), rel=1e-14)


def test_vfp_s0_independent_of_field(qv3):
    # the stacks keep no S0 of their own: both fields tend to the closure's
    S0 = vfp_closure(qv3).S0
    for E in (+2.0, -2.0):
        stack = vfp_interfaces(1e-11, DX, Vfp(qv3, [E]))
        assert np.max(np.abs(stack.S[0] - s0_full(S0))) < 1e-8


def test_vfp_maxwellian_fixed_at_zero_field(qv3):
    m = np.exp(-qv3.nodes**2 / 2.0)
    mm = np.concatenate([m, m])
    model = Vfp(qv3, [0.0])
    for eps in (1e-1, 1e-3, 1e-6):
        S = vfp_interfaces(eps, DX, model).S[0]
        assert np.max(np.abs(S @ mm - mm)) < 1e-12


def test_vfp_b10_contraction_reference_value(qv3):
    # sum_k w_k v_k (B^{10} exp(-V^2/2kappa))_k = (2E/kappa) sigma2 / (1 - exp(-E dx/kappa))
    kappa = 1.0
    m = np.exp(-qv3.nodes**2 / (2.0 * kappa))
    wv = qv3.weights * qv3.nodes
    sigma2 = np.sum(qv3.weights * qv3.nodes**2 * m)
    for E in (2.0, 0.5, -1.0):
        B1 = quarters(vfp_interfaces(1e-4, DX, Vfp(qv3, [E])).B0[0])[0]
        got = wv @ (B1 @ m)
        expect = (2.0 * E / kappa) * sigma2 / (1.0 - np.exp(-E * DX / kappa))
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("E", [2.0, -0.7, 0.05, 0.0])
def test_vfp_reconstruction_b_limit_and_wb(qv3, E):
    norms = []
    S0 = vfp_closure(qv3).S0
    model = Vfp(qv3, [E])
    for eps in (1e-2, 1e-3, 1e-4):
        stack = vfp_interfaces(eps, DX, model)
        rec = np.max(np.abs(stack.S[0] - s0_full(S0) - eps * stack.B[0]))
        assert rec < 1e-12 * np.max(np.abs(stack.S[0]))
        norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
        assert well_balanced_residual(stack.S[0], eps, DX, qv3, E=E) < 1e-10
    assert norms[0] > norms[1] > norms[2]


def test_vfp_flux_defect_scales_with_eps_and_E(qv3):
    """The finite-eps Hermite modes are only O(eps*E) flux-free on the
    discrete nodes, so column stochasticity degrades linearly (reported,
    not asserted as exact by the scheme)."""
    devs = {}
    for E in (0.5, 2.0):
        model = Vfp(qv3, [E])
        for eps in (1e-3, 1e-4):
            S = vfp_interfaces(eps, DX, model).S[0]
            devs[(eps, E)] = stochasticity_check(S, qv3).col_sum_deviation
    assert devs[(1e-4, 0.5)] == pytest.approx(devs[(1e-3, 0.5)] / 10.0, rel=0.15)
    assert devs[(1e-3, 2.0)] == pytest.approx(4.0 * devs[(1e-3, 0.5)], rel=0.15)
    # and exactly conserving at E = 0
    S = vfp_interfaces(1e-2, DX, Vfp(qv3, [0.0])).S[0]
    assert stochasticity_check(S, qv3).col_sum_deviation < 1e-12


# ---------------------------------------------------------------------------
# interface stacks against stacks of one
# ---------------------------------------------------------------------------

# eps on both sides of the B0 switch at EPS_SWITCH_FACTOR*DX (about 3e-10)
EPS = st.floats(-12.0, -1.0).map(lambda e: 10.0**e)
# exact zeros are the radiative-transfer slope (chemo) and E = 0 (vfp)
VALUES = st.lists(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)), min_size=1, max_size=6)


def assert_same_stack(a, b):
    """N, Nt, B and the outgoing traces of two stacks agree bitwise."""
    inc = np.random.default_rng(len(a.N)).uniform(0.5, 1.5, a.N.shape[1::-1])
    for got, want in ((a.N, b.N), (a.Nt, b.Nt), (a.B, b.B), (a.outgoing(inc), b.outgoing(inc))):
        assert np.array_equal(got, want)


def assert_rows_match(stack, singles):
    # N and Nt read as (M, 2K, 2K) views of C-contiguous arrays stored with
    # the interface axis last; entry i is interface i's stack of one, bitwise
    for A in (stack.N, stack.Nt):
        assert A.shape == stack.S.shape and A.transpose(1, 2, 0).flags.c_contiguous
    for i, single in enumerate(singles):
        assert np.array_equal(stack.N[i], single.N[0])
        assert np.array_equal(stack.Nt[i], single.Nt[0])
        for got, want in (
            (stack.S[i], single.S[0]),
            (stack.B[i], single.B[0]),
            (stack.B0[i], single.B0[0]),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([1, 2, 4, 8, 16]), eps=EPS, grads=VALUES)
@example(K=4, eps=0.1 * EPS_SWITCH_FACTOR * DX, grads=[0.0, 0.8, -1.3])
@example(K=4, eps=1e-3, grads=[0.0, 0.8, -1.3])
@example(K=2, eps=1e-6, grads=[-1.23, 3.58])  # roots must not depend on the batch
@example(K=16, eps=1e-3, grads=[0.0, 0.8, -1.3])
def test_chemo_stack_matches_single_interfaces(K, eps, grads):
    q = gauss_symmetric(K)
    model = Chemo(q, phi_tanh)
    stack = chemo_interfaces(eps, DX, model, grads)
    assert stack.S.shape == (len(grads), 2 * K, 2 * K)
    assert_rows_match(stack, [chemo_interfaces(eps, DX, model, [g]) for g in grads])
    # a second model of the same q sets up the same constants: the same stack, bitwise
    assert_same_stack(chemo_interfaces(eps, DX, Chemo(q, phi_tanh), grads), stack)


@settings(max_examples=40, deadline=None)
@given(K=st.sampled_from([1, 2, 3]), eps=EPS, fields=VALUES)
@example(K=3, eps=0.1 * EPS_SWITCH_FACTOR * DX, fields=[0.0, 0.5, -2.0])
@example(K=3, eps=1e-3, fields=[0.0, 0.5, -2.0])
def test_vfp_stack_matches_single_interfaces(K, eps, fields):
    q = vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0))
    stack = vfp_interfaces(eps, DX, Vfp(q, fields))
    assert stack.S.shape == (len(fields), 2 * K, 2 * K)
    assert_rows_match(stack, [vfp_interfaces(eps, DX, Vfp(q, [E])) for E in fields])


# ---------------------------------------------------------------------------
# structural invariants across the parameter space
# ---------------------------------------------------------------------------

DXS = st.floats(1.0 / 256.0, 0.5)


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(["rte", "chemo"]), K=st.integers(1, 8), eps=EPS, dx=DXS,
       slope=st.floats(-2.0, 2.0))
@example(model="chemo", K=8, eps=1e-12, dx=1.0 / 256.0, slope=1e-9)
def test_integral_interface_well_balanced_and_stochastic(model, K, eps, dx, slope):
    q = gauss_symmetric(K)
    if model == "rte":
        S = Rte(q).interfaces(eps, dx, None).S[0]
        T = (np.ones(K), np.ones(K))
    else:
        S = chemo_interfaces(eps, dx, Chemo(q, phi_tanh), [slope]).S[0]
        T = rates(eps, phi_tanh(q.nodes * slope))
    assert well_balanced_residual(S, eps, dx, q, rates=T) <= 1e-10
    assert stochasticity_check(S, q).col_sum_deviation <= 1e-10


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_well_balanced_residual_gates_the_zero_mode_at_tiny_slope(q4, eps):
    # at slope 1e-9 the unscaled zero mode exp(-lam0 x/eps)/(T - lam0 v) - 1/T
    # is 3e-11 of the largest trace and good only to 5.5e-6 by cancellation;
    # scaled by -eps/lam0 it is O(dx), and each column has its own gate
    S = chemo_interfaces(eps, DX, Chemo(q4, phi_tanh), [1e-9]).S[0]
    T = rates(eps, phi_tanh(q4.nodes * 1e-9))
    assert well_balanced_residual(S, eps, DX, q4, rates=T) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(K=st.integers(1, 3), eps=EPS, dx=DXS, E=st.floats(-2.0, 2.0))
@example(K=3, eps=1e-12, dx=0.5, E=2.0)
def test_vfp_interface_well_balanced(K, eps, dx, E):
    q = vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0))
    S = vfp_interfaces(eps, dx, Vfp(q, [E])).S[0]
    assert well_balanced_residual(S, eps, dx, q, E=E) <= 1e-10
    # reported, not asserted: the finite-eps Hermite modes are O(eps*E)-flux-free
    note(f"column-sum deviation {stochasticity_check(S, q).col_sum_deviation:.2e}")


def test_ill_conditioned_interface_is_named(qv3):
    # an extreme field at interface 2 makes its mode matrix singular
    with pytest.raises(IllConditioned, match="interface 2"):
        vfp_interfaces(1e-3, DX, Vfp(qv3, [0.5, -0.5, 1e4, 0.0]))


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


def _interface_last_inputs(K, M, eps):
    """phip (M, K) and first-order roots (M, 2K-1) of M interfaces, as the
    root solve sees them, and the model and shifts of
    :func:`scattering._chemo_micro`."""
    q = gauss_symmetric(K)
    model = Rte(q)
    grads = 3.0 * np.sin(np.arange(M) + 0.5)
    phip = phi_tanh(np.outer(grads, q.nodes))
    lam0 = model.base
    lam01, lam1 = first_order_shifts(q, lam0, phip, model.shifts)
    roots = np.hstack([-(lam0 - eps * lam1)[:, ::-1], eps * lam01[:, None], lam0 + eps * lam1])
    return q, phip, roots, (model, lam1, lam01)


@settings(max_examples=40, deadline=None)
@given(
    K=st.sampled_from([1, 2, 4, 8, 16]),
    eps=st.floats(1e-12, 1.0),
    M=st.sampled_from([1, 2, 17, 256]),
)
def test_chemo_kernels_ignore_the_layout_of_their_inputs(K, eps, M):
    # the step's contiguous interface-last copies give the bits of strided views
    q, phip, roots, limit = _interface_last_inputs(K, M, eps)
    contiguous = np.ascontiguousarray(phip.T), np.ascontiguousarray(roots.T)
    for a, b in zip(scattering._chemo_matrices(eps, DX, q.nodes, *contiguous),
                    scattering._chemo_matrices(eps, DX, q.nodes, phip.T, roots.T)):
        assert np.array_equal(a, b)
    model, lam1, lam01 = limit
    B0 = [scattering._limit_B0(model, DX, -lam01 * DX,
                               scattering._chemo_micro(model, p, lam1, lam01))
          for p in (contiguous[0], phip.T)]
    assert np.array_equal(*B0)


def test_chemo_interfaces_pass_contiguous_interface_last_inputs(monkeypatch):
    K, M = 4, 7
    seen = []
    for name in ("first_order_shifts", "_chemo_matrices", "_chemo_micro"):
        original = getattr(scattering, name)

        def recorded(*args, name=name, original=original):
            seen.append((name, [a for a in args if isinstance(a, np.ndarray) and a.ndim == 2]))
            return original(*args)

        monkeypatch.setattr(scattering, name, recorded)
    grads = np.linspace(-2.0, 2.0, M)
    chemo_interfaces(0.1 * EPS_SWITCH_FACTOR * DX, DX, Chemo(gauss_symmetric(K), phi_tanh), grads)
    shapes = {
        "first_order_shifts": [(M, K)],  # its einsum fixes the bits of the roots
        "_chemo_matrices": [(K, M), (2 * K - 1, M)],
        "_chemo_micro": [(K, M), (M, K - 1)],  # phip, and lambda1 as the shifts give it
    }
    assert [name for name, _ in seen] == list(shapes)
    for name, arrays in seen:
        assert [a.shape for a in arrays] == shapes[name], name
        assert all(a.flags.c_contiguous for a in arrays), name


def counting(monkeypatch, name):
    calls = []
    original = getattr(scattering, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(scattering, name, counted)
    return calls


@pytest.mark.parametrize("K", range(1, 17))
def test_rte_roots_solved_once_equal_the_per_call_solve(monkeypatch, K):
    # at zero slope the root solve sees the same rates and seed at every
    # eps, so the model's one row is the per-call solve, bitwise
    q = gauss_symmetric(K)
    model = Rte(q)
    model.interfaces(1e-3, DX, None)  # set-up solves the row
    for eps in [1e-1, 1e-4, 1e-8, 1e-12]:
        with monkeypatch.context() as m:
            solved = []
            for module in (scattering, models):
                original = module._all_roots_multi
                m.setattr(module, "_all_roots_multi",
                          lambda *a, f=original: solved.append(f(*a)) or solved[-1])
            stack = model.interfaces(eps, DX, None)
            assert solved == []
            cold = chemo_interfaces(eps, DX, Rte(q), [0.0])
        [roots] = solved
        assert np.array_equal(model.roots, roots)
        assert np.array_equal(np.signbit(model.roots), np.signbit(roots))
        assert np.array_equal(stack.S, cold.S)
        assert_same_stack(stack, cold)  # the model's roots, closure and shift weights


SETUP = ("dispersion_roots", "rte_closure", "shift_weights", "vfp_closure")


def count_setup(monkeypatch):
    """Calls of the field-free set-up builders, wherever a kinwb module
    reaches them from."""
    calls = dict.fromkeys(SETUP, 0)
    for module in (models, scattering, spectral):
        for name in SETUP:
            if hasattr(module, name):
                def counted(*args, name=name, original=getattr(module, name)):
                    calls[name] += 1
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    return calls


def test_field_free_setup_is_built_once_per_model(monkeypatch, q4):
    calls = count_setup(monkeypatch)
    once = {"dispersion_roots": 1, "rte_closure": 1, "shift_weights": 1, "vfp_closure": 0}
    x = (np.arange(32) + 0.5) / 32
    rho0 = 1 + 0.5 * np.cos(2 * np.pi * x)
    march = Chemo(q4, phi_tanh).march(1e-3, 1.0 / 32**2, 1.0 / 32, rho0)
    assert calls == once
    for _ in range(21):  # the initial state and 20 steps
        next(march)
    assert calls == once
    vfp_once = {"dispersion_roots": 0, "rte_closure": 0, "shift_weights": 0, "vfp_closure": 1}
    for model, K, fields, expected in (
        ("rte", 4, {}, once),
        ("chemo", 4, {}, once),
        ("vfp", 3, {"kappa": 1.0, "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}},
         vfp_once),
    ):
        calls.update(dict.fromkeys(SETUP, 0))
        config = ExperimentConfig(model=model, K=K, Nx=32, dx=1.0 / 32, dt=1.0 / 32**2,
                                  t_final=1.0 / 32**2, epsilon_list=[1e-1], **fields)
        rows, _ = ap_error_table(config, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        assert len(rows) == 5 and calls == expected, model


def test_chemo_b0_built_only_when_read(monkeypatch, q4):
    calls = counting(monkeypatch, "_limit_B0")
    grads = [0.0, 0.8, -1.3]
    model = Chemo(q4, phi_tanh)
    above = chemo_interfaces(1e-3, DX, model, grads)
    assert calls == []
    x = (np.arange(16) + 0.5) / 16
    grid = KineticGrid(Nx=16, dx=1 / 16, dt=1 / 256, epsilon=1e-4, q=q4,
                       f=equilibrium(1 + 0.5 * np.cos(2 * np.pi * x), model.q))
    op = step_operator(grid, model)
    for _ in range(3):
        grid = imex_step(grid, op, model.field(density(grid.f, grid.q), grid.dx))
    assert calls == []
    below = chemo_interfaces(0.1 * EPS_SWITCH_FACTOR * DX, DX, model, grads)
    assert len(calls) == 1
    # B0 does not depend on eps: read on demand it is the stack built below the switch
    assert np.array_equal(above.B0, below.B)
    assert below.B0 is below.B
    assert np.array_equal(above.B0[1], below.B[1])
    assert len(calls) == 2  # once for `below`, once for the first read of above.B0


@pytest.mark.parametrize("nx, eps, inverses_per_step", [(256, 5e-5, 0), (64, 1e-1, 1)])
def test_chemo_step_inverts_only_where_the_limit_inverse_does_not_certify(
    monkeypatch, q4, nx, eps, inverses_per_step
):
    # dx = 1/256 deep in eps: Y certifies every interface and the step only
    # solves; dx = 1/64 at eps = 0.1 is far from the limit and inverts N
    x = (np.arange(nx) + 0.5) / nx
    march = Chemo(q4, lambda u: phi_tanh(u, chi=2.0)).march(
        eps, 1.0 / nx**2, 1.0 / nx, 1 + 0.5 * np.cos(2 * np.pi * x)
    )
    next(march)  # the initial state
    calls = counting(monkeypatch, "_inverse")
    for _ in range(3):
        next(march)
    assert len(calls) == 3 * inverses_per_step


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("K", [1, 2, 4, 8, 16])
def test_outgoing_matches_the_b_stack(K, eps):
    # both forms lose about u cond(N)/eps to the cancellation in B
    dx = 1.0 / 64.0
    q = gauss_symmetric(K)
    stack = chemo_interfaces(eps, dx, Chemo(q, phi_tanh), [0.0, 0.3, -1.1, 2.5])
    inc = np.random.default_rng(K).uniform(0.5, 1.5, (4, 2 * K))
    ref = np.einsum("iab,ib->ia", stack.B, inc)
    out = stack.outgoing(np.ascontiguousarray(inc.T))
    assert out.shape == (2 * K, 4)
    gap = np.max(np.abs(out.T - ref)) / np.max(np.abs(ref))
    assert gap <= 1e3 * np.finfo(float).eps / 2.0 / eps


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 8), eps=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
       dx=st.floats(-3.0, 2.0).map(lambda e: 10.0**e), slope=st.floats(-3.0, 3.0))
@example(K=4, eps=5e-5, dx=1.0 / 256.0, slope=0.7)  # certified
@example(K=4, eps=1e-1, dx=1.0 / 64.0, slope=0.7)  # falls back on the inverse
@example(K=2, eps=1e-3, dx=64.0, slope=-2.5)  # ill-conditioned, uncertified
@example(K=1, eps=1e-9, dx=32.0, slope=-1.0)  # ill-conditioned, a finite bound past the limit
def test_limit_inverse_certificate_bounds_the_exact_guard(K, eps, dx, slope):
    bounds = []
    original = scattering._cond_bound

    def recorded(A, closure, r):
        result = original(A, closure, r)
        bounds.append((A.transpose(2, 0, 1), result[0]))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scattering, "_cond_bound", recorded)
        try:
            stack = chemo_interfaces(eps, dx, Chemo(gauss_symmetric(K), phi_tanh), [0.0, slope])
        except IllConditioned:
            stack = None
    (N, bound), = bounds
    certified = np.isfinite(bound)
    note(f"bound {bound}, certified {certified}")
    for A, b in zip(N[certified], bound[certified]):
        assert b >= np.linalg.cond(A, 1)
    try:
        _inverse(N)
    except IllConditioned:
        assert stack is None
    else:
        assert stack is not None
        assert (stack.inverse is None) == bool(np.all(bound <= _COND_LIMIT))


def test_certificate_carries_its_rounding_allowance_and_cuts_rho_at_one_half():
    # K = 1, r = -1: Y = [[1, 0], [-1, 1]] inverts the first member exactly,
    # so its rho is the allowance 2n u ||Y||_1 ||A||_1 = 2 ULP * 4 alone and
    # its bound lies above the exact cond_1, 4; the others have rho 0.6, 0.4
    closure = Rte(gauss_symmetric(1)).closure
    A = np.array([[[1.0, 0.0], [1.0, 1.0]], [[1.3, 0.0], [1.0, 1.0]], [[1.2, 0.0], [1.0, 1.0]]])
    bound, _, _ = scattering._cond_bound(A.transpose(1, 2, 0).copy(), closure, np.full(3, -1.0))
    assert np.linalg.cond(A[0], 1) == 4.0
    assert bound[0] == 4.0 / (1.0 - 2 * ULP * 4.0) > 4.0
    assert bound[1] == np.inf
    assert bound[2] == pytest.approx(2.0 * 2.2 / 0.6, rel=1e-14)


def explicit_cond_bound(A, Y):
    """The certificate with the limit inverse Y (M, n, n) materialised and
    Y A multiplied out, A (M, n, n): the reference of the structured
    :func:`scattering._cond_bound`.  Returns the bounds, rho and
    ||Y||_1 ||A||_1 of every member."""
    n = A.shape[-1]
    ones = np.ones(n)
    A = np.where(np.abs(A) < np.finfo(float).tiny, 0.0, A)
    with np.errstate(all="ignore"):
        E = Y @ A
        E.reshape(len(E), -1)[:, :: n + 1] -= 1.0  # E = Y A - I
        norms = (ones @ np.abs(A)).max(axis=-1) * (ones @ np.abs(Y)).max(axis=-1)
        rho = (ones @ np.abs(E, out=E)).max(axis=-1) + n * np.finfo(float).eps * norms
        bound = norms / (1.0 - rho)
    return np.where((rho <= 0.5) & np.isfinite(bound), bound, np.inf), rho, norms


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 16), eps=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
       dx=st.floats(-3.0, 2.0).map(lambda e: 10.0**e), slope=st.floats(-3.0, 3.0))
@example(K=4, eps=5e-5, dx=1.0 / 256.0, slope=0.7)  # certified
@example(K=4, eps=1e-1, dx=1.0 / 64.0, slope=0.7)  # falls back on the inverse
@example(K=2, eps=1e-3, dx=64.0, slope=-2.5)  # ill-conditioned, uncertified
@example(K=1, eps=1e-9, dx=32.0, slope=-1.0)  # ill-conditioned, a finite bound past the limit
def test_structured_certificate_matches_the_explicit_product(K, eps, dx, slope):
    # the two products of Y A round differently, each within the allowance
    # a = 2n u ||Y||_1 ||A||_1 that rho carries, so the bounds agree to a
    # few ulps plus a/(1 - rho): a few ulps where ||Y||_1 ||A||_1 is small
    recorded = []
    original = scattering._cond_bound

    def record(A, closure, r):
        result = original(A, closure, r)
        recorded.append((A, closure, r, result[0]))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scattering, "_cond_bound", record)
        try:
            chemo_interfaces(eps, dx, Chemo(gauss_symmetric(K), phi_tanh), [0.0, slope])
        except IllConditioned:
            pass
    (A, closure, r, bound), = recorded
    Y = limit_inverse(closure, r)
    ref, rho, norms = explicit_cond_bound(np.ascontiguousarray(A.transpose(2, 0, 1)), Y)
    ulp = np.finfo(float).eps
    allowance = 2 * K * ulp * norms
    tol = 4 * ulp + allowance / (1.0 - np.minimum(rho, 0.5))
    note(f"bound {bound}, reference {ref}, rho {rho}, tolerance {tol}")
    edge = np.abs(rho - 0.5) <= allowance  # rho within rounding of the 1/2 cut
    assert np.array_equal(np.isfinite(bound)[~edge], np.isfinite(ref)[~edge])
    both = np.isfinite(bound) & np.isfinite(ref)
    assert np.all(np.abs(bound[both] - ref[both]) <= tol[both] * ref[both])
    edge |= np.abs(ref - _COND_LIMIT) <= tol * _COND_LIMIT
    assert np.array_equal((bound <= _COND_LIMIT)[~edge], (ref <= _COND_LIMIT)[~edge])


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 8), eps=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
       dx=st.floats(-3.0, 2.0).map(lambda e: 10.0**e), slope=st.floats(-3.0, 3.0))
@example(K=4, eps=5e-5, dx=1.0 / 256.0, slope=0.7)  # chemo_march's regime
@example(K=8, eps=1e-3, dx=1.0 / 64.0, slope=-2.5)  # rho near its cut
@example(K=1, eps=1e-12, dx=1e-3, slope=3.0)
@example(K=4, eps=1e-1, dx=1.0 / 64.0, slope=0.7)  # uncertified: the guard's inverse
def test_certified_members_solve_with_the_limit_inverse(K, eps, dx, slope):
    # c <- Y inc - E c from c = 0, k = ceil(log(u/2)/log rho_p) times, so that
    # rho_p^k <= u/2: it agrees with LAPACK's solve within 10 u cond_1
    recorded = []
    original = scattering._cond_bound

    def record(A, closure, r):
        recorded.append(original(A, closure, r))
        return recorded[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scattering, "_cond_bound", record)
        try:
            stack = chemo_interfaces(eps, dx, Chemo(gauss_symmetric(K), phi_tanh), [0.0, slope])
        except IllConditioned:
            return
    (bound, _, rho), = recorded
    note(f"bound {bound}, rho {rho}")
    if not stack.certified.all():
        assert stack.limit is None and not stack.certified.any()
        return
    u = ULP / 2.0
    rho_p = rho.max()
    (steps,) = stack.limit[-1]
    assert steps == math.ceil(math.log(u / 2.0) / math.log(rho_p))
    assert rho_p**steps <= u / 2.0 < rho_p ** (steps - 1)
    inc = np.random.default_rng(K).uniform(0.5, 1.5, (2 * K, 2))
    c = scattering._limit_solve(inc, *stack.limit)
    for i, N in enumerate(stack.N):
        ref = np.linalg.solve(N, inc[:, i])
        gap = np.abs(c[:, i] - ref).sum() / np.abs(ref).sum()
        note(f"member {i}: gap {gap:.3e}, cond_1 {np.linalg.cond(N, 1):.3e}")
        assert gap <= 10.0 * u * np.linalg.cond(N, 1)


def test_certified_problems_of_a_batch_iterate_their_own_counts():
    # a member stops at its own problem's count, not at the batch's largest,
    # and keeps the bits of its lone stack
    model = Chemo(gauss_symmetric(4), phi_tanh)
    grads = np.array([0.0, 0.3, -1.1, 2.5, 0.7])
    eps = np.array([2e-8 * DX, 1e-3, 1e-1, 5e-5 * DX, 1e-3])
    lone = [chemo_interfaces(e, DX, model, grads) for e in eps]
    counts = [alone.limit[-1] for alone in lone if alone.limit is not None]
    assert len(counts) == 4 and len(set(counts)) == 3
    stack = chemo_interfaces(eps, DX, model, np.tile(grads, len(eps)))
    assert stack.limit[-1] == sum(counts, ())
    assert_members_are_lone_stacks(stack, lone, len(grads), np.random.default_rng(0))


def per_family_vfp_matrices(epsilon, dx, v, E, kappa):
    """The vfp mode matrices built one (family l, sign s) pair at a time
    from :func:`vfp_psi` and :func:`vfp_mu`: the reference of the
    broadcast :func:`scattering._vfp_matrices`."""
    M, K = len(E), len(v)
    v = v[:, None]
    fam = {s: np.empty((3, K, K - 1, M)) for s in (1, -1)}
    for l in range(1, K):
        for s, (at_p, at_n, decay) in fam.items():
            at_p[:, l - 1] = vfp_psi(l, s, v, epsilon, E, kappa)
            at_n[:, l - 1] = vfp_psi(l, s, -v, epsilon, E, kappa)
            decay[:, l - 1] = np.exp(-s * vfp_mu(l, epsilon, E, kappa, s) * dx / epsilon)
    (pp, pn, ep), (mp, mn, em) = fam[1], fam[-1]
    zero = scattering._vfp_zero_columns
    hp, dp = zero(0.0, v, epsilon, E, kappa)
    hn, dn = zero(dx, -v, epsilon, E, kappa)
    N = scattering._assemble(M, K, (pp, hp, mp * em, dp), (pn * ep, hn, mn, dn))
    hp, dp = zero(dx, v, epsilon, E, kappa)
    hn, dn = zero(0.0, -v, epsilon, E, kappa)
    Nt = scattering._assemble(M, K, (pp * ep, hp, mp, dp), (pn, hn, mn * em, dn))
    return N, Nt


@settings(max_examples=80, deadline=None)
@given(nodes=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4, unique=True).map(sorted),
       kappa=st.floats(0.25, 4.0), eps=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
       dx=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
       fields=st.lists(st.one_of(st.sampled_from([0.0, 5.0, -5.0]), st.floats(-5.0, 5.0)),
                       min_size=1, max_size=6))
@example(nodes=[0.5, 1.5, 2.5], kappa=1.0, eps=1e-3, dx=1.0 / 64.0, fields=[0.0, 5.0, -5.0])
@example(nodes=[1.0], kappa=1.0, eps=1e-12, dx=1e-3, fields=[0.0])
def test_vfp_matrices_match_the_per_family_loop(nodes, kappa, eps, dx, fields):
    v, E = np.array(nodes), np.array(fields)
    with np.errstate(all="ignore"):  # either side may overflow; both must agree
        got = scattering._vfp_matrices(eps, dx, v, E, kappa)
        want = per_family_vfp_matrices(eps, dx, v, E, kappa)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def test_vfp_b0_built_only_when_read(monkeypatch, qv3):
    calls = counting(monkeypatch, "_limit_B0")
    fields = [0.0, 0.5, -2.0]
    model = Vfp(qv3, fields)
    above = vfp_interfaces(1e-3, DX, model)
    assert calls == []
    E = np.asarray(fields)  # kappa = 1
    eager = scattering._limit_B0(model, DX, E * DX / 1.0, scattering._vfp_micro(model, E))
    assert np.array_equal(above.B0, eager)
    below = vfp_interfaces(0.1 * EPS_SWITCH_FACTOR * DX, DX, model)
    assert np.array_equal(below.B, eager) and below.B0 is below.B
    assert len(calls) == 3  # the eager reference, above.B0, and `below`
    single = vfp_interfaces(1e-3, DX, Vfp(qv3, [0.5]))
    assert np.array_equal(single.B0[0], eager[1])



# ---------------------------------------------------------------------------
# B0: the Il'in block of the model's D and drift plus a micro block, against
# the formulas it replaced and the Il'in / Scharfetter-Gummel update
# ---------------------------------------------------------------------------


def limit_inverse(closure, r):
    """Y (M, 2K, 2K), the exact inverse of the eps -> 0 limit of the mode
    matrices N of :func:`scattering._chemo_matrices`, with r (M,) as in
    :func:`differentiated_chemo_B0`.  In the column groups of
    :func:`scattering._assemble` that limit is [[P, 1, 0, 0], [0, 1, P, -r]],
    P = 1/(1 - v lambda0), and the closure inverts its diagonal blocks
    [P | 1]."""
    gamma, beta = closure.gamma, closure.beta
    M, K = len(r), len(beta)
    r = r[:, None]
    Y = np.zeros((M, 2 * K, 2 * K))
    Y[:, : K - 1, :K] = gamma
    Y[:, K - 1, :K] = beta
    Y[:, K : 2 * K - 1, K:] = gamma
    Y[:, 2 * K - 1, :K] = beta / r
    Y[:, 2 * K - 1, K:] = -beta / r
    return Y


def differentiated_chemo_B0(dx, v, phip, lam0, lam1, lam01, closure, r):
    """Analytic limit of (S^eps - S^0)/eps via term-by-term differentiation:
    the reference of :func:`scattering._limit_B0` for chemotaxis.

    B^0 = A'(0) X - A^0 X N'(0) X with X the block inverse of the limit
    mode matrix; stiff entries differentiate to zero, and the second-order
    middle-eigenvalue coefficient drops because gamma annihilates constants.
    The zero-mode column is normalised by 1/lambda0^1, so its limit carries
    r = (exp(-lambda0^1 dx) - 1)/lambda0^1 = -dx/B(-lambda0^1 dx), B the
    Bernoulli function.  That column is -1 times the one of the finite-eps
    N, so X is :func:`limit_inverse`'s Y with the last row negated.  phip
    is (K, M), as for :func:`scattering._chemo_matrices`.  It overflows
    where |lambda0^1 dx| > 709.
    """
    K, M = phip.shape
    zeta0 = closure.zeta
    q0 = np.exp(-lam01 * dx)
    Fm2 = (1.0 / (1.0 - np.outer(v, lam0)) ** 2)[:, :, None]
    Fp2 = (1.0 / (1.0 + np.outer(v, lam0)) ** 2)[:, :, None]
    DP = phip[:, None] - v[:, None, None] * lam1.T
    v = v[:, None]
    assemble = scattering._assemble
    Np = assemble(M, K, (-DP * Fm2, -phip, 0.0, v), (0.0, phip, DP * Fm2, r * phip - q0 * v))
    Ntp = assemble(M, K, (0.0, -phip, -DP * Fp2, q0 * v - r * phip), (DP * Fp2, phip, 0.0, -v))
    Ap = np.ascontiguousarray((Ntp - np.roll(Np, K, axis=0)).transpose(2, 0, 1))
    Np = np.ascontiguousarray(Np.transpose(2, 0, 1))
    A0 = np.zeros((2 * K, 2 * K))
    A0[K:, : K - 1] = -zeta0
    A0[:K, K : 2 * K - 1] = -zeta0
    X = limit_inverse(closure, r)
    X[:, -1] = -X[:, -1]
    return Ap @ X - A0 @ X @ Np @ X


def closed_form_vfp_B0(dx, v, E, kappa, closure):
    """Fokker-Planck's closed-form limit blocks with Bernoulli-type
    prefactors, written out on their own: the reference of
    :func:`scattering._limit_B0` for vfp."""
    K = len(v)
    gamma, beta = closure.gamma, closure.beta
    m = spectral.vfp_psi0(0, v, kappa)
    P = closure.S0
    W = np.eye(K) + P
    u = (E * dx / kappa)[:, None, None]
    b_plus = bernoulli(-u) / dx
    b_minus = bernoulli(u) / dx
    core = np.outer(W @ (v * m), beta)
    Y = np.zeros((K, K))
    for l in range(1, K):
        col = v * spectral.vfp_psi0(l, -v, kappa) + P @ (v * spectral.vfp_psi0(l, v, kappa))
        Y += np.outer(col, gamma[l - 1])
    G = (E / (2.0 * kappa))[:, None, None]
    return np.block(
        [
            [b_plus * core, G * Y - b_minus * core],
            [-G * Y - b_plus * core, b_minus * core],
        ]
    )


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 16), chi=st.floats(0.0, 40.0),
       slopes=st.lists(st.one_of(st.just(0.0), st.floats(-20.0, 20.0)), min_size=1, max_size=5),
       dx=st.floats(-3.0, 0.0).map(lambda e: 10.0**e))
@example(K=16, chi=40.0, slopes=[0.0, 20.0, -20.0], dx=1.0)
@example(K=1, chi=0.0, slopes=[0.0], dx=1e-3)  # radiative transfer
def test_chemo_b0_matches_the_differentiated_limit(K, chi, slopes, dx):
    # the two round differently: measured within 14 u of each interface's
    # largest entry over K 1-16, chi <= 40, |slope| <= 20, dx 1e-3-100
    q = gauss_symmetric(K)
    model = Chemo(q, lambda u: phi_tanh(u, chi=chi))
    phip = np.asarray(model.phi(np.outer(slopes, q.nodes)), dtype=float)
    lam01, lam1 = first_order_shifts(q, model.base, phip, model.shifts)
    phip = np.ascontiguousarray(phip.T)
    got = scattering._limit_B0(model, dx, -lam01 * dx,
                               scattering._chemo_micro(model, phip, lam1, lam01))
    r = -dx / bernoulli(-lam01 * dx)
    want = differentiated_chemo_B0(dx, q.nodes, phip, model.base, lam1, lam01, model.closure, r)
    gap = np.max(np.abs(got - want), axis=(1, 2))
    note(f"gap in u of the largest entry: {gap / np.max(np.abs(want), axis=(1, 2)) / ULP}")
    assert np.all(gap <= 50 * ULP * np.max(np.abs(want), axis=(1, 2)))


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 3), kappa=st.floats(0.25, 4.0),
       dx=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
       fields=st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=1, max_size=5))
def test_vfp_b0_is_the_closed_form(K, kappa, dx, fields):
    q = vfp_quadrature(kappa, vfp_preset_nodes(K, kappa))
    model, E = Vfp(q, fields), np.asarray(fields)
    got = scattering._limit_B0(model, dx, E * dx / kappa, scattering._vfp_micro(model, E))
    assert np.array_equal(got, closed_form_vfp_B0(dx, q.nodes, E, kappa, model.closure))


def limit_model(name, K, chi, E_half):
    """A model of the limit tests: rte, chemo with chi (delta = 1/2), or the
    K-point vfp preset at kappa = 1 in the fields E_half."""
    if name == "vfp":
        return Vfp(vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0)), E_half)
    if name == "rte":
        return Rte(gauss_symmetric(K))
    return Chemo(gauss_symmetric(K), lambda u: phi_tanh(u, chi=chi, delta=0.5))


LIMIT_CASES = st.one_of(
    st.tuples(st.sampled_from(["rte", "chemo"]), st.integers(1, 16)),
    st.tuples(st.just("vfp"), st.integers(2, 3)),
)


@settings(max_examples=80, deadline=None)
@given(case=LIMIT_CASES, Nx=st.sampled_from([1, 2, 3, 17, 64]),
       dx=st.floats(-3.0, 0.0).map(lambda e: 10.0**e), strength=st.floats(0.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(case=("chemo", 16), Nx=64, dx=1.0, strength=10.0, seed=0)
@example(case=("rte", 1), Nx=1, dx=1e-3, strength=0.0, seed=0)  # a constant: no update
def test_b0_on_maxwellian_traces_is_the_ilin_update(case, Nx, dx, strength, seed):
    # the paper's theorem: below the switch B = B0, and on the traces of a
    # Maxwellian state B0 moves the density by the exponential-fitting step
    # with the model's own D and drift.  The gap is measured against the
    # size of the flux terms (dt/dx^2) D max|rho| max(B(-u) + B(u)), which
    # stays put where the update is 0: within 6 u of it over this space
    rng = np.random.default_rng(seed)
    x, L = (np.arange(Nx) + 0.5) * dx, Nx * dx
    E_half = strength * np.sin(2 * np.pi * (x - dx / 2) / L + rng.uniform(0.0, 6.0))
    model = limit_model(*case, strength, E_half)
    # chemo's interface slopes are up to 2 pi strength
    S = strength * L * rng.uniform(-1.0, 1.0) * np.sin(2 * np.pi * x / L)
    if case[0] != "chemo":
        S = None
    rho0 = rng.uniform(0.5, 1.5, Nx)
    q, dt = model.q, dx * dx / 4.0
    stack = model.interfaces(0.1 * EPS_SWITCH_FACTOR * dx, dx, S)
    assert stack.below_switch.all()
    incoming, to_cells = model.traces(Nx, 1)
    B0 = np.broadcast_to(stack.B0, (Nx,) + stack.B0.shape[1:])  # rte's one interface
    out = np.einsum("iab,bi->ai", B0, equilibrium(rho0, q).T.take(incoming))
    wv = q.weights * q.nodes
    drho = dt / dx * np.concatenate([wv, wv]) @ out.take(to_cells)
    drift = model.drift(S, dx)
    want = sg_step(rho0, model.D, drift, dt, dx) - rho0
    u = np.asarray(drift) * dx / model.D
    scale = dt / dx**2 * model.D * np.max(rho0) * np.max(bernoulli(-u) + bernoulli(u))
    note(f"gap {np.max(np.abs(drho - want)) / scale / ULP} u of the flux terms")
    assert np.max(np.abs(drho - want)) <= 16 * ULP * scale


@settings(max_examples=40, deadline=None)
@given(case=LIMIT_CASES, dx=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
       strength=st.floats(0.0, 10.0))
@example(case=("vfp", 3), dx=1.0 / 32.0, strength=4.0)
@example(case=("chemo", 4), dx=1.0 / 32.0, strength=5.0)
def test_b_tends_to_b0_at_first_order(case, dx, strength):
    # |B - B0| = O(eps) from eps = 1e-3 down to 100 times the switch,
    # wherever it stays 10 times above the cancellation floor u cond(N)/eps
    # of B = (S - S0)/eps: measured slopes 0.94-1.00 over this space
    fields = np.array([0.0, 0.5, -1.5, 1.0]) * strength  # they sum to 0
    model = limit_model(*case, strength, fields)
    S = np.cumsum(fields) * dx if case[0] == "chemo" else None  # interface slopes `fields`
    epss = np.geomspace(1e-3, 100 * EPS_SWITCH_FACTOR * dx, 10)
    gaps, floors = [], []
    for eps in epss:
        stack = model.interfaces(eps, dx, S)
        gaps.append(np.max(np.abs(stack.B - stack.B0)))
        floors.append(ULP * np.max(np.linalg.cond(stack.N, 1)) / eps)
    gaps = np.array(gaps)
    above = gaps > 10.0 * np.array(floors)
    note(f"gaps {gaps}, above the floor {above}")
    assert np.sum(above) >= 3
    assert loglog_slope(epss[above], gaps[above]) >= 0.9


# ---------------------------------------------------------------------------
# stacks of P problems
# ---------------------------------------------------------------------------


def assert_members_are_lone_stacks(stack, lone, M, rng):
    """Every problem's M members of ``stack`` decide, and carry the outgoing
    traces and B, of its own stack in ``lone``, bitwise.  Outgoing traces
    from M = 2 on: NumPy contracts a lone column in another order."""
    K2 = stack.N.shape[-1]
    inc = rng.uniform(0.5, 1.5, (K2, len(lone) * M))
    out = stack.outgoing(inc)
    for p, alone in enumerate(lone):
        cols = slice(p * M, (p + 1) * M)
        assert np.array_equal(stack.below_switch[cols], np.full(M, alone.below_switch))
        assert np.array_equal(stack.certified[cols], np.full(M, alone.certified))
        if M > 1:
            alone_out = alone.outgoing(np.ascontiguousarray(inc[:, cols]))
            assert out[:, cols].tobytes() == alone_out.tobytes()
        assert stack.B[cols].tobytes() == alone.B.tobytes()


@pytest.mark.parametrize("K", [1, 2, 4, 8])
def test_chemo_stack_of_problems_decides_each_as_alone(K):
    # the batch straddles the B0 switch and the certificate, and repeats an eps
    model = Chemo(gauss_symmetric(K), phi_tanh)
    grads = np.array([0.0, 0.3, -1.1, 2.5, 0.7])
    eps = np.array([0.3 * DX, 1e-3, 0.5e-8 * DX, DX, 2e-8 * DX, 1e-3])
    lone = [chemo_interfaces(e, DX, model, grads) for e in eps]
    assert {bool(s.below_switch.all()) for s in lone} == {True, False}
    assert {s.inverse is None for s in lone} == {True, False}
    stack = chemo_interfaces(eps, DX, model, np.tile(grads, len(eps)))
    assert_members_are_lone_stacks(stack, lone, len(grads), np.random.default_rng(K))


def test_partly_certified_stack_inverts_only_its_uncertified_problems(monkeypatch):
    # the guard inverts the members of uncertified problems; S inverts the
    # certified ones when it is read, and each member keeps its lone bits
    model = Chemo(gauss_symmetric(4), phi_tanh)
    grads = np.array([0.0, 0.3, -1.1, 2.5, 0.7])
    eps = np.array([1e-1, 5e-5 * DX, 1e-1, 5e-5 * DX])
    lone = [chemo_interfaces(e, DX, model, grads) for e in eps]
    assert [s.inverse is None for s in lone] == [False, True, False, True]
    sizes = []
    original = scattering._inverse
    monkeypatch.setattr(scattering, "_inverse", lambda A, *what: sizes.append(len(A)) or original(A, *what))
    stack = chemo_interfaces(eps, DX, model, np.tile(grads, len(eps)))
    assert sizes == [2 * len(grads)]
    assert not stack.inverse[stack.certified].any()
    S = stack.S
    assert sizes == [2 * len(grads)] * 2
    for p, alone in enumerate(lone):
        assert S[p * len(grads) : (p + 1) * len(grads)].tobytes() == alone.S.tobytes()


@pytest.mark.parametrize("K", [2, 3])
def test_vfp_stack_of_problems_is_each_alone(K):
    model = Vfp(vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0)), np.array([0.5, -0.3, 0.0, 1.2]))
    eps = np.array([0.1, 0.5e-8 * DX, 1e-4, 2e-8 * DX])
    lone = [vfp_interfaces(e, DX, model) for e in eps]
    stack = vfp_interfaces(eps, DX, model)
    assert_members_are_lone_stacks(stack, lone, len(model.E_half), np.random.default_rng(K))


def test_rte_stack_of_problems_has_one_interface_each(q4):
    # its step reads B, broadcast along each ring
    model = Rte(q4)
    eps = np.array([1e-3, 0.5e-8 * DX, 0.2, 2e-8 * DX])
    lone = [model.interfaces(e, DX, None) for e in eps]
    assert_members_are_lone_stacks(model.interfaces(eps, DX, None), lone, 1, np.random.default_rng(0))
