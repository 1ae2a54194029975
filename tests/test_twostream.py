import numpy as np
import pytest

from kinwb import (
    Chemo,
    TwoStream,
    chemoattractant_update,
    interface_grad,
    phi_tanh,
    sg_step,
    ts_smatrix,
    ts_step,
)
from kinwb.runner import _DENSITIES

NX = 128
DX = 1.0 / NX
DT = DX**2 / 4.0  # the Keller-Segel limit has D = 1: explicit bound dt <= dx^2/2


def make_state(rho=None):
    """[f+, f-] at the equilibrium carrying rho (a cosine bump by default)."""
    if rho is None:
        rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * (np.arange(NX) + 0.5) * DX)
    return np.column_stack([rho / 2.0, rho / 2.0])


def step(f, eps):
    """One step driven by the chemoattractant of f's density, as a march takes it."""
    return ts_step(f, chemoattractant_update(f[:, 0] + f[:, 1], DX), eps, DT, DX, phi_tanh)


def test_smatrix_zero_response_is_swap():
    # phi = 0 keeps the eps-dependent diagonal 2 eps/(dx + 2 eps); the swap
    # matrix is its eps -> 0 limit
    eps, dx = 1e-2, 0.1
    a = 2.0 * eps / (dx + 2.0 * eps)
    S = ts_smatrix(eps, dx, 0.0)
    assert np.max(np.abs(S - [[a, 1.0 - a], [1.0 - a, a]])) < 1e-15
    assert np.max(np.abs(ts_smatrix(1e-14, dx, 0.0) - [[0.0, 1.0], [1.0, 0.0]])) < 1e-12


@pytest.mark.parametrize("phi", [1e-12, -1e-12, 1e-200, -1e-200])
def test_smatrix_continuous_through_zero_response(phi):
    # the denominator is divided through by phi, so tiny responses neither
    # jump to the identity nor underflow to a zero denominator
    assert np.max(np.abs(ts_smatrix(1e-2, 0.1, phi) - ts_smatrix(1e-2, 0.1, 0.0))) < 1e-12


@pytest.mark.parametrize("eps,phi", [(0.5, 0.7), (1e-3, -1.2), (1e-6, 2.0)])
def test_smatrix_left_stochastic(eps, phi):
    S = ts_smatrix(eps, 0.1, phi)
    assert np.max(np.abs(S.sum(axis=0) - 1.0)) < 1e-14


def test_smatrix_entries_against_display():
    eps, dx, phi = 1e-2, 0.1, 0.8
    EE = np.exp(-phi * dx)
    D = EE - 1.0 - eps * phi * (1.0 + EE)
    S = ts_smatrix(eps, dx, phi)
    assert S[0, 0] == pytest.approx(-2 * eps * phi / D, rel=1e-15)
    assert S[0, 1] == pytest.approx(1 + 2 * eps * phi * EE / D, rel=1e-15)
    assert S[1, 0] == pytest.approx(1 + 2 * eps * phi / D, rel=1e-15)
    assert S[1, 1] == pytest.approx(-2 * eps * phi * EE / D, rel=1e-15)


def test_smatrix_transparent_limit():
    # eps -> 0 with phi != 0: off-diagonals -> 1, diagonals -> 0
    S = ts_smatrix(1e-12, 0.1, 0.9)
    assert abs(S[0, 0]) < 1e-10 and abs(S[1, 1]) < 1e-10
    assert S[0, 1] == pytest.approx(1.0, abs=1e-10)
    assert S[1, 0] == pytest.approx(1.0, abs=1e-10)


def test_constant_state_is_equilibrium():
    f = make_state(rho=np.full(NX, 0.9))
    new = step(f, 1e-2)
    assert np.max(np.abs(new[:, 0] - f[:, 0])) < 1e-14
    assert np.max(np.abs(new[:, 1] - f[:, 1])) < 1e-14


def test_one_step_matches_keller_segel_sg():
    eps = 1e-6
    f = make_state()
    rho0 = f[:, 0] + f[:, 1]
    new = step(f, eps)
    S = chemoattractant_update(rho0, DX)
    phi_half = phi_tanh(interface_grad(S, DX))
    ref = sg_step(rho0, 1.0, phi_half, DT, DX)
    gap = np.max(np.abs(new[:, 0] + new[:, 1] - ref)) / np.max(np.abs(ref))
    assert gap < 1e-5


def test_mass_conservation_per_step():
    f = make_state()
    m0 = float(np.sum(f[:, 0] + f[:, 1]) * DX)
    for _ in range(200):
        f = step(f, 1e-3)
        m1 = float(np.sum(f[:, 0] + f[:, 1]) * DX)
        assert abs(m1 - m0) / m0 < 1e-13
        m0 = m1


def test_epsilon_sweep_first_order():
    # asymptotic range; at eps ~ 1e-2 the O(eps^2) terms still bite
    eps_list = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    gaps = []
    for eps in eps_list:
        f = make_state()
        rho0 = f[:, 0] + f[:, 1]
        new = step(f, eps)
        S = chemoattractant_update(rho0, DX)
        phi_half = phi_tanh(interface_grad(S, DX))
        ref = sg_step(rho0, 1.0, phi_half, DT, DX)
        gaps.append(np.max(np.abs(new[:, 0] + new[:, 1] - ref)))
    slope = np.polyfit(np.log(eps_list), np.log(gaps), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1e-6])
def test_twostream_is_the_k1_chemotaxis_model(eps):
    # the general march on two-stream's K = 1 set, with the response of the
    # opposite sign, on the grid of configs/twostream.json for 200 steps
    rho0 = _DENSITIES["gaussian"]((np.arange(NX) + 0.5) * DX, NX * DX)
    ts = TwoStream(phi_tanh)
    chemo = Chemo(ts.q, lambda u: -phi_tanh(u))
    gap = 0.0
    for _, (a, _), (b, _) in zip(range(201), ts.march(eps, DT, DX, rho0),
                                 chemo.march(eps, DT, DX, rho0)):
        gap = max(gap, np.max(np.abs(b - a)) / np.max(np.abs(a)))
    assert gap <= 1e-14 / eps


def test_isotropization_rate():
    # f+ - f- after a few steps is O(eps)
    mismatch = []
    for eps in (1e-3, 1e-4, 1e-5):
        f = make_state()
        for _ in range(5):
            f = step(f, eps)
        mismatch.append(np.max(np.abs(f[:, 0] - f[:, 1])))
    assert mismatch[0] / mismatch[1] == pytest.approx(10.0, rel=0.2)
    assert mismatch[1] / mismatch[2] == pytest.approx(10.0, rel=0.2)


from hypothesis import example, given, settings, strategies as st


@settings(max_examples=50, deadline=None)
@example(eps=1e-2, phi=5e-324, dx=0.1)  # eps*phi underflows to zero
@given(
    eps=st.floats(min_value=1e-8, max_value=1.0),
    phi=st.floats(min_value=-3.0, max_value=3.0),
    dx=st.floats(min_value=1e-3, max_value=1.0),
)
def test_smatrix_stochastic_property(eps, phi, dx):
    S = ts_smatrix(eps, dx, phi)
    assert np.max(np.abs(S.sum(axis=0) - 1.0)) < 1e-12
