import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinwb import (
    bernoulli,
    gauss_symmetric,
    sg_flux,
    sg_step,
)

NX = 64
DX = 1.0 / NX
DT = DX**2


def test_bernoulli_values():
    assert bernoulli(0.0) == 1.0
    # high-precision oracle 1/(e - 1)
    assert bernoulli(1.0) == pytest.approx(0.58197670686932642, rel=1e-15)
    for x in (0.5, 3.0):
        assert bernoulli(-x) == pytest.approx(bernoulli(x) + x, rel=1e-14)
    xs = np.array([-2.0, -1e-6, 0.0, 1e-6, 0.3])
    vals = bernoulli(xs)
    assert vals.shape == xs.shape
    assert vals[2] == 1.0
    # the (M, 1) column that the scattering callers pass
    col = bernoulli(xs[:, None])
    assert col.shape == (5, 1) and np.array_equal(col[:, 0], vals)
    # the smallest subnormal and a tiny normal: x/expm1(x) rounds to exactly 1
    assert bernoulli(5e-324) == 1.0 and bernoulli(1e-300) == 1.0
    # 1/B(u) = expm1(u)/u = 1 + u/2 + u^2/6 + u^3/24 + u^4/120 + O(u^5): within
    # 4 ulp for |u| <= 1e-3, where u^5/720 is below an ulp
    u = np.concatenate([-np.logspace(-3, -300, 200), [-5e-324, 5e-324], np.logspace(-300, -3, 200)])
    series = 1.0 + u * (1.0 / 2.0 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u / 120.0)))
    assert np.all(np.abs(1.0 / bernoulli(u) - series) <= 4.0 * np.spacing(series))


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_bernoulli_reflection_property(x):
    assert bernoulli(-x) == pytest.approx(bernoulli(x) + x, rel=1e-12, abs=1e-12)


def test_sg_flux_limits():
    # E -> 0 gives the central diffusive flux
    assert sg_flux(0.0, 2.0, 0.1, 1.3, 0.7) == pytest.approx(2.0 * (1.3 - 0.7) / 0.1, rel=1e-14)
    assert sg_flux(1e-9, 1.0, 0.1, 1.0, 2.0) == pytest.approx(-10.0, rel=1e-6)
    # discrete Boltzmann equilibrium carries no flux
    E, D, dx = 0.8, 0.5, 0.2
    rho_l = 1.1
    rho_r = np.exp(E * dx / D) * rho_l
    assert abs(sg_flux(E, D, dx, rho_l, rho_r)) < 1e-14
    # pure drift on the constant state
    assert sg_flux(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_sg_flux_monotone():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(20):
        E = rng.uniform(-3.0, 3.0)
        D = rng.uniform(0.1, 2.0)
        dx = rng.uniform(0.01, 0.5)
        rl, rr = rng.uniform(0.1, 2.0, size=2)
        dFl = (sg_flux(E, D, dx, rl + h, rr) - sg_flux(E, D, dx, rl - h, rr)) / (2 * h)
        dFr = (sg_flux(E, D, dx, rl, rr + h) - sg_flux(E, D, dx, rl, rr - h)) / (2 * h)
        assert dFl >= 0.0
        assert dFr <= 0.0


def test_sg_step_matches_heat_at_zero_drift():
    x = (np.arange(NX) + 0.5) * DX
    rho = 1.0 + 0.4 * np.sin(2.0 * np.pi * x)
    D = gauss_symmetric(4).second_moment
    a = sg_step(rho, D, np.zeros(NX), DT, DX)
    # the centred heat step
    b = rho + DT / DX**2 * D * (np.roll(rho, 1) - 2.0 * rho + np.roll(rho, -1))
    assert np.max(np.abs(a - b)) < 1e-14


def test_sg_step_constant_state_and_mass():
    rho = np.full(NX, 1.7)
    params = (1.0, np.full(NX, 0.6), DT, DX)  # D, E_half, dt, dx
    assert np.max(np.abs(sg_step(rho, *params) - rho)) < 1e-14
    x = (np.arange(NX) + 0.5) * DX
    rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    for step in (
        lambda r: sg_step(r, *params),
        # the chemo limit (D the Gauss second moment, drift -E) and the vfp one (D = kappa)
        lambda r: sg_step(r, gauss_symmetric(4).second_moment, np.full(NX, -0.2), DT, DX),
        lambda r: sg_step(r, 1.0, np.full(NX, 0.2), DT, DX),
    ):
        new = step(rho)
        assert abs(np.sum(new) - np.sum(rho)) / np.sum(rho) < 1e-14


def test_sg_boltzmann_steady_state():
    # frozen constant E: the discrete Boltzmann profile is flux-free, hence steady
    E, D = 0.9, 1.0
    nx, dx = 16, 1.0 / 16.0
    j = np.arange(nx)
    rho = np.exp(E * dx * j / D)
    F = sg_flux(np.full(nx, E), D, dx, np.roll(rho, 1), rho)
    interior = np.abs(F[1:])  # the wrap interface sees the profile jump
    assert np.max(interior) < 1e-13
    new = rho + DT / dx * (F - np.roll(F, -1))
    assert np.max(np.abs(new - rho)[1:-1]) < 1e-13


def test_heat_step_coefficient_and_decay():
    q = gauss_symmetric(4)
    assert np.sum(q.weights * q.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-14)
    x = (np.arange(NX) + 0.5) * DX
    rho = np.cos(2.0 * np.pi * x)
    heat = (q.second_moment, 0.0, DT, DX)  # D, E_half, dt, dx
    new = sg_step(rho, *heat)
    # discrete symbol: one mode decays by 1 - 4 (dt/dx^2) (1/3) sin^2(pi dx / L)
    factor = 1.0 - 4.0 * DT / DX**2 * (1.0 / 3.0) * np.sin(np.pi * DX) ** 2
    assert np.max(np.abs(new - factor * rho)) < 1e-13
    const = np.full(NX, 0.4)
    assert np.array_equal(sg_step(const, *heat), const)


def test_params_validation():
    with pytest.raises(ValueError):
        sg_step(np.ones(4), -1.0, np.zeros(4), DT, DX)
    with pytest.raises(ValueError):
        sg_step(np.ones(4), 1.0, np.zeros(4), 0.0, DX)
    with pytest.raises(ValueError):
        sg_flux(1.0, 0.0, DX, 1.0, 1.0)
