import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kinwb import (
    BracketFailure,
    dispersion_roots,
    gauss_symmetric,
    hermite_poly,
    moment_report,
    orthogonality_check,
    phi_tanh,
    vfp_psi0,
)
from kinwb.scattering import _vfp_zero_columns
from kinwb.spectral import _all_roots_multi, first_order_shifts, vfp_mu, vfp_psi


def test_k2_root_closed_form(q2):
    # reduce the K=2 relation to u v1^2 v2^2 = (v1^2+v2^2)/2 - v1^2 v2^2 * 0...
    # with equal weights 1/2 the quadratic gives u = (v1^2+v2^2)/(2 v1^2 v2^2)
    v1, v2 = q2.nodes
    u = (v1**2 + v2**2) / (2.0 * v1**2 * v2**2)
    lams = dispersion_roots(q2)
    assert len(lams) == 1
    assert lams[0] == pytest.approx(np.sqrt(u), rel=1e-14)
    assert lams[0] == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-13)
    # interlacing bracket
    assert 1.0 / v2 < lams[0] < 1.0 / v1
    assert np.all(lams > 0.0)  # even rate: zero root excluded


def test_k1_empty_spectrum():
    q1 = gauss_symmetric(1)
    assert dispersion_roots(q1).size == 0


def test_bracket_failure_on_coincident_poles(q2):
    # T proportional to v collapses all positive poles onto one point
    with pytest.raises(BracketFailure):
        _all_roots_multi(q2.nodes, q2.weights, q2.nodes, q2.nodes)


def test_uneven_rate_has_middle_root(q4):
    roots = _all_roots_multi(q4.nodes, q4.weights, 1.0 + 0.1 * q4.nodes, 1.0 - 0.1 * q4.nodes)[0]
    assert roots[3] != 0.0
    assert len(roots[4:]) == 3


def test_hermite_small_orders():
    assert hermite_poly(0, 3.7) == 1.0
    assert hermite_poly(1, 2.5) == 5.0
    assert hermite_poly(2, 1.0) == 2.0
    xs = np.linspace(-3, 3, 41)
    assert np.allclose(hermite_poly(2, xs), 4 * xs**2 - 2, atol=1e-12)
    assert np.allclose(hermite_poly(3, xs), 8 * xs**3 - 12 * xs, atol=1e-12)
    assert np.allclose(hermite_poly(4, xs), 16 * xs**4 - 48 * xs**2 + 12, atol=1e-11)
    with pytest.raises(ValueError):
        hermite_poly(65, 0.0)


def test_chemo_expansion_odd_symmetry(q4):
    # rows: gradS = 0, 0.9, -0.9
    phip = phi_tanh(np.outer([0.0, 0.9, -0.9], q4.nodes))
    lam01, lam1 = first_order_shifts(q4, dispersion_roots(q4), phip)
    assert lam01[0] == 0.0
    assert np.allclose(lam1[0], 0.0, atol=1e-15)
    # odd response makes the double-zero split odd in gradS
    assert lam01[1] == pytest.approx(-lam01[2], rel=1e-14)


def test_chemo_expansion_linear_response(q2):
    # phi(u) = u with gradS = 1 gives lambda0^1 = sum w v^2 / D = 1
    lam01, _ = first_order_shifts(q2, dispersion_roots(q2), q2.nodes[None])
    assert lam01[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("K", [1, 2, 4])
def test_chemo_zero_root_first_order_matches_root_solve(K):
    # lambda0^1 divides by the quadrature's D = sum w v^2 (1/4 at K = 1, not 1/3)
    q = gauss_symmetric(K)
    phip = phi_tanh(q.nodes * 0.7)
    lam01, _ = first_order_shifts(q, dispersion_roots(q), phip[None])
    eps = 1e-6
    root = _all_roots_multi(q.nodes, q.weights, 1 + eps * phip, 1 - eps * phip)[0][K - 1]
    assert root / eps == pytest.approx(lam01[0], rel=1e-4)


def test_chemo_expansion_matches_rte_roots(q4, spec4):
    # the zeroth-order chemo roots: the rate 1 + eps*phi at eps = 0
    phip = phi_tanh(q4.nodes * 0.7)
    roots = _all_roots_multi(q4.nodes, q4.weights, 1 + 0.0 * phip, 1 - 0.0 * phip)[0]
    assert np.allclose(roots[4:], spec4, atol=1e-14)


def test_chemo_expansion_second_order_remainder(q4):
    gradS = 0.7
    phip = phi_tanh(q4.nodes * gradS)
    lam0 = dispersion_roots(q4)
    lam01, lam1 = first_order_shifts(q4, lam0, phip[None])
    eps_list = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for eps in eps_list:
        roots = _all_roots_multi(q4.nodes, q4.weights, 1 + eps * phip, 1 - eps * phip)[0]
        err = np.max(np.abs(roots[4:] - (lam0 + eps * lam1[0])))
        errs.append(max(err, abs(roots[3] - eps * lam01[0])))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_orthogonality_residuals(q2, q4):
    res = orthogonality_check(q4)
    assert np.max(res) < 1e-10
    # zero-flux sum at the K=2 root, evaluated directly
    lam = dispersion_roots(q2)[0]
    v, w = q2.nodes, q2.weights
    zero_flux = np.sum(w * v * (1 / (1 - lam * v) - 1 / (1 + lam * v)))
    assert abs(zero_flux) < 1e-12


def test_vfp_modes_table(qv3):
    assert vfp_mu(1, 0.0, 3.0, 1.0, +1) == pytest.approx(1.0)  # sqrt(l/kappa) at l=1
    assert vfp_mu(1, 0.0, 3.0, 1.0, -1) == pytest.approx(-1.0)
    pm = np.concatenate([qv3.nodes, -qv3.nodes])
    m = np.exp(-pm**2 / 2.0)
    # at eps = 0 the shifted Maxwellian zero mode is the Maxwellian
    assert np.allclose(_vfp_zero_columns(0.0, pm, 0.0, 3.0, 1.0)[0], m, atol=1e-14)
    assert np.allclose(vfp_psi0(0, pm, 1.0), m, atol=1e-14)
    # same limit for the other field sign
    assert np.allclose(_vfp_zero_columns(0.0, pm, 0.0, -3.0, 1.0)[0], m, atol=1e-14)


def test_vfp_psi0_parity(qv3):
    v = qv3.nodes
    # psi0_{-l}(-v) = (-1)^l psi0_l(v), with the minus family from vfp_psi at eps = 0
    for ell in (1, 2):
        minus_at_neg = vfp_psi(ell, -1, -v, 0.0, 0.3, 1.0)
        assert np.allclose(minus_at_neg, (-1.0) ** ell * vfp_psi0(ell, v, 1.0), atol=1e-13)
    # the eps = 0 plus family agrees with the closed-form limit and ignores E
    pm = np.concatenate([v, -v])
    for ell in (1, 2):
        stacked = np.concatenate([vfp_psi0(ell, v, 1.0), vfp_psi0(ell, -v, 1.0)])
        assert np.allclose(vfp_psi(ell, +1, pm, 0.0, 0.7, 1.0), stacked, atol=1e-13)


def test_vfp_ortho_residuals(qv3):
    res = moment_report(qv3).orthogonality_residuals[:-1]
    assert np.max(res) < 1e-10


# ---------------------------------------------------------------------------
# seeded root solve against plain bisection
# ---------------------------------------------------------------------------


def bisect_roots(nodes, weights, T_pos, T_neg):
    """Reference: every pole interval bisected to 1e-14 relative width."""
    T_pos, T_neg = np.atleast_2d(T_pos), np.atleast_2d(T_neg)
    poles = np.sort(np.concatenate([-T_neg / nodes, T_pos / nodes], axis=1), axis=1)

    def g(lam):
        right = weights / (T_pos[:, None, :] / nodes - lam[..., None])
        left = weights / (-T_neg[:, None, :] / nodes - lam[..., None])
        return right.sum(axis=2) + left.sum(axis=2)

    width = np.diff(poles, axis=1)
    lo, hi = poles[:, :-1] + 1e-13 * width, poles[:, 1:] - 1e-13 * width
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        low = g(mid) < 0.0
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        if np.all(hi - lo <= 1e-14 * (1.0 + np.abs(mid))):
            break
    return 0.5 * (lo + hi)


def assert_roots_close(got, ref):
    assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + np.abs(ref)))


@settings(max_examples=30, deadline=None)
@given(
    K=st.sampled_from([2, 4, 8, 16]),
    log_eps=st.floats(-10.0, -1.0),
    grads=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
)
def test_seeded_roots_match_bisection(K, log_eps, grads):
    q = gauss_symmetric(K)
    eps = 10.0**log_eps
    phip = phi_tanh(np.outer(grads, q.nodes))
    Tp, Tn = 1.0 + eps * phip, 1.0 - eps * phip
    ref = bisect_roots(q.nodes, q.weights, Tp, Tn)
    # the first-order seed: lambda0 + eps*lambda1, eps*lambda0^1, and the
    # negative branch as the mirror image under phi -> -phi
    lam = dispersion_roots(q)
    lam01, lam1 = first_order_shifts(q, lam, phip)
    guess = np.hstack([-(lam - eps * lam1)[:, ::-1], eps * lam01[:, None], lam + eps * lam1])
    assert_roots_close(_all_roots_multi(q.nodes, q.weights, Tp, Tn, guess), ref)
    assert_roots_close(_all_roots_multi(q.nodes, q.weights, Tp, Tn), ref)


@settings(max_examples=40, deadline=None)
@given(
    K=st.sampled_from([2, 3, 4, 8]),
    data=st.data(),
)
def test_roots_pair_weights_with_unsorted_poles(K, data):
    # poles T/v out of node order and weights that are not palindromic:
    # each weight must stay with its own pole after the brackets are sorted
    rates = st.lists(st.floats(0.1, 10.0), min_size=2 * K, max_size=2 * K)
    T = np.array(data.draw(rates))
    nodes = np.sort(np.array(data.draw(st.lists(
        st.floats(0.05, 1.0), min_size=K, max_size=K, unique=True))))
    weights = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=K, max_size=K)))
    weights /= weights.sum()
    Tp, Tn = T[None, :K], T[None, K:]
    poles = np.sort(np.concatenate([Tp[0] / nodes, -Tn[0] / nodes]))
    assume(np.all(np.diff(poles) > 1e-3 * (1.0 + np.abs(poles[1:]))))
    ref = bisect_roots(nodes, weights, Tp, Tn)
    assert_roots_close(_all_roots_multi(nodes, weights, Tp, Tn), ref)


def test_dispersion_roots_non_monotone_rate(q4):
    T = np.array([1.0, 1.0, 1.0, 10.0, 1.0, 1.0, 1.0, 1.0])
    ref = bisect_roots(q4.nodes, q4.weights, T[:4], T[4:])[0]
    roots = _all_roots_multi(q4.nodes, q4.weights, T[:4], T[4:])[0]
    assert_roots_close(roots[4:], ref[4:])
    assert_roots_close(roots[3:4], ref[3:4])


def test_root_guess_off_bracket_falls_back(q4):
    Tp, Tn = 1.0 + 0.05 * q4.nodes, 1.0 - 0.05 * q4.nodes
    ref = bisect_roots(q4.nodes, q4.weights, Tp, Tn)[0]
    poles = np.sort(np.concatenate([-Tn / q4.nodes, Tp / q4.nodes]))
    width = np.diff(poles)
    for guess in (
        poles[:-1],  # on the left pole
        poles[1:],  # on the right pole
        poles[:-1] + 1e-12 * width,  # inside, where Newton runs away from the pole
        np.full(7, 1e6),  # outside every bracket
        np.full(7, np.nan),
    ):
        got = _all_roots_multi(q4.nodes, q4.weights, Tp, Tn, guess[None])[0]
        assert_roots_close(got, ref)


def test_root_bracket_failure_in_batch(q2):
    good = np.ones(2)
    bad = q2.nodes.copy()  # T proportional to v: all positive poles coincide
    with pytest.raises(BracketFailure):
        _all_roots_multi(q2.nodes, q2.weights, np.stack([good, bad]), np.stack([good, bad]))
