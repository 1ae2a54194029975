import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from kinwb import (
    Chemo,
    DriftDiffusionParams,
    KineticGrid,
    Rte,
    Vfp,
    assemble_cell_matrix,
    cfl_check,
    chemo_drift,
    chemoattractant_update,
    density,
    imex_step,
    interface_grad,
    phi_tanh,
    sg_step,
    step_operator,
    VelocityQuadrature,
    gauss_symmetric,
    vfp_preset_nodes,
    vfp_quadrature,
)
from kinwb.errors import IllConditioned, SolveFailure

NX = 64
DX = 1.0 / NX
DT = DX**2


def make_grid(model, eps, rho=None, nx=NX, dx=DX, dt=DT):
    x = (np.arange(nx) + 0.5) * dx
    if rho is None:
        rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    f = model.equilibrium(rho)
    return KineticGrid(Nx=nx, dx=dx, dt=dt, epsilon=eps, q=model.q, f=f)


def mass(grid):
    return float(np.sum(density(grid)) * grid.dx)


def test_cfl_check_examples():
    q = VelocityQuadrature(np.array([1.0]), np.array([1.0]))
    f = np.ones((4, 2))
    ok = KineticGrid(Nx=4, dx=0.1, dt=1e-7, epsilon=1e-6, q=q, f=f)
    assert cfl_check(ok)
    bad = KineticGrid(Nx=4, dx=0.1, dt=1e-6, epsilon=1e-6, q=q, f=f)
    assert not cfl_check(bad)
    hyperbolic = KineticGrid(Nx=4, dx=0.1, dt=0.05, epsilon=1.0, q=q, f=f)
    assert cfl_check(hyperbolic)  # eps = 1 reduces to the standard CFL


def test_cell_matrix_two_stream_form():
    q = VelocityQuadrature(np.array([1.0]), np.array([1.0]))
    eps, dt, dx = 0.3, 0.01, 0.1
    swap = np.array([[1.0]])
    R = assemble_cell_matrix(eps, dt, dx, q, swap)
    c = dt / dx
    assert np.allclose(R, [[eps + c, -c], [-c, eps + c]], atol=1e-15)


def test_cell_matrix_kernel_structures(q4, closure4, qv3):
    from kinwb import vfp_closure

    S0 = np.eye(4) - closure4.zeta @ closure4.gamma
    R0 = assemble_cell_matrix(0.0, DT, DX, q4, S0)
    s = np.linalg.svd(R0, compute_uv=False)
    assert s[-1] < 1e-12 * s[0]
    null = np.linalg.svd(R0)[2][-1]
    ones = np.ones(8) / np.sqrt(8.0)
    assert abs(null @ ones) > 1.0 - 1e-10
    clv = vfp_closure(qv3)
    S0v = np.eye(3) - clv.zeta @ clv.gamma
    R0v = assemble_cell_matrix(0.0, DT, DX, qv3, S0v)
    nullv = np.linalg.svd(R0v)[2][-1]
    mw = np.exp(-np.concatenate([qv3.nodes, qv3.nodes]) ** 2 / 2.0)
    cos = abs(nullv @ mw) / (np.linalg.norm(nullv) * np.linalg.norm(mw))
    assert cos > 1.0 - 1e-10


def test_cell_matrix_explicit_dominance(q4):
    S0 = np.eye(4)
    R = assemble_cell_matrix(1e6, DT, DX, q4, S0)
    assert np.max(np.abs(R - 1e6 * np.eye(8))) / 1e6 < 1e-6


def test_density_oracle(q4):
    rng = np.random.default_rng(11)
    f = rng.random((NX, 8))
    grid = KineticGrid(Nx=NX, dx=DX, dt=DT, epsilon=0.1, q=q4, f=f)
    rho = density(grid)
    naive = np.array(
        [sum(q4.weights[k] * (f[j, k] + f[j, 4 + k]) for k in range(4)) for j in range(NX)]
    )
    assert np.max(np.abs(rho - naive)) < 1e-15
    zero = KineticGrid(Nx=NX, dx=DX, dt=DT, epsilon=0.1, q=q4, f=np.zeros((NX, 8)))
    assert np.all(density(zero) == 0.0)
    halves = KineticGrid(Nx=NX, dx=DX, dt=DT, epsilon=0.1, q=q4, f=0.5 * np.ones((NX, 8)))
    assert np.allclose(density(halves), 1.0, atol=1e-15)


def test_chemoattractant_constants_and_residual():
    rho = np.full(32, 2.7)
    S = chemoattractant_update(rho, DX)
    assert np.allclose(S, 2.7, atol=1e-12)
    x = (np.arange(NX) + 0.5) * DX
    rho = 1.0 + np.cos(2.0 * np.pi * x)
    S = chemoattractant_update(rho, DX)
    # discrete Fourier-symbol oracle for the single mode
    factor = 1.0 + (2.0 / DX**2) * (1.0 - np.cos(2.0 * np.pi * DX))
    assert np.allclose(S, 1.0 + np.cos(2.0 * np.pi * x) / factor, atol=1e-12)
    lap = (np.roll(S, 1) - 2.0 * S + np.roll(S, -1)) / DX**2
    assert np.max(np.abs(-lap + S - rho)) < 1e-12


@pytest.mark.parametrize("nx", [1, 2, 3, 8])
def test_chemoattractant_matches_dense_periodic_solve(nx):
    # one or two cells make both neighbours of a cell the same index
    dx = 0.1
    eye = np.eye(nx)
    A = (1.0 + 2.0 / dx**2) * eye - (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)) / dx**2
    rho = 1.0 + np.arange(nx) ** 2 / nx
    S = chemoattractant_update(rho, dx)
    assert np.allclose(S, np.linalg.solve(A, rho), rtol=1e-12, atol=0.0)
    for h in (dx, 1e-9):
        assert np.allclose(chemoattractant_update(np.full(nx, 2.7), h), 2.7, rtol=1e-14, atol=0.0)
    # below dx ~ 2e-8 the symbol 1 of k = 0 is lost against 2/dx^2 in a
    # matrix solve; the exact symbol keeps S the mean up to O(dx^2)
    assert np.allclose(chemoattractant_update(rho, 1e-9), rho.mean(), rtol=1e-14, atol=0.0)


def test_imex_constant_maxwellian_invariant(q4, qv3):
    for model in (Rte(q4), Vfp(qv3, np.zeros(NX))):
        grid = make_grid(model, 1e-2, rho=np.ones(NX))
        new = imex_step(grid, step_operator(grid, model))
        assert np.max(np.abs(new.f - grid.f)) < 1e-13


def test_imex_rte_matches_heat_step(q4):
    model = Rte(q4)
    grid = make_grid(model, 1e-6)
    rho0 = density(grid)
    new = imex_step(grid, step_operator(grid, model))
    ref = sg_step(rho0, DriftDiffusionParams(D=q4.second_moment, E_half=0.0, dt=DT, dx=DX))
    gap = np.max(np.abs(density(new) - ref)) / np.max(np.abs(ref))
    assert gap < 1e-5


def test_imex_mass_conservation(q4):
    model = Rte(q4)
    grid = make_grid(model, 1e-2)
    m0 = mass(grid)
    op = step_operator(grid, model)
    for _ in range(50):
        grid = imex_step(grid, op)
        m1 = mass(grid)
        assert abs(m1 - m0) / m0 < 1e-12
        m0 = m1


def test_imex_nonnegativity_under_cfl(q4):
    eps = 1e-1
    dt = eps * DX / q4.nodes[-1]  # kinetic CFL bound
    model = Rte(q4)
    grid = make_grid(model, eps, dt=dt)
    assert cfl_check(grid)
    op = step_operator(grid, model)
    for _ in range(100):
        grid = imex_step(grid, op)
    assert float(np.min(grid.f)) >= -1e-14


def test_imex_hilbert_structure(q4):
    # at eps = 1e-8 the solved state is a scalar multiple of the Maxwellian per cell
    model = Rte(q4)
    grid = make_grid(model, 1e-8)
    rng = np.random.default_rng(5)
    f = np.asarray(grid.f) * (1.0 + 0.1 * rng.random(grid.f.shape))
    grid = dataclasses.replace(grid, f=f)
    new = imex_step(grid, step_operator(grid, model))
    rho = density(new)
    for j in range(NX):
        maxwellian = np.full(8, rho[j] / 2.0)
        assert np.max(np.abs(new.f[j] - maxwellian)) / np.max(np.abs(maxwellian)) < 1e-6


def test_imex_well_balanced_100_steps(q4):
    model = Rte(q4)
    grid = make_grid(model, 1e-3, rho=np.full(NX, 1.3))
    start = grid.f.copy()
    op = step_operator(grid, model)
    for _ in range(100):
        grid = imex_step(grid, op)
    assert np.max(np.abs(grid.f - start)) < 1e-11


def test_chemo_nontrivial_steady_state_invariant(q4):
    """Frozen-field chemotaxis: the one-step map conserves mass exactly, so
    it has an exact fixed point (eigenvalue one).  That nontrivial discrete
    steady state must be held by the solver over 100 steps."""
    nx = 16
    dx = 1.0 / nx
    dt = dx**2
    eps = 1e-2
    x = (np.arange(nx) + 0.5) * dx
    model = Chemo(q4, phi_tanh)
    S = chemoattractant_update(1.0 + 0.8 * np.cos(2.0 * np.pi * x), dx)
    grid0 = make_grid(model, eps, rho=np.ones(nx), nx=nx, dx=dx, dt=dt)
    op = step_operator(grid0, model)
    # one-step map is linear in f: extract it column by column
    n = nx * 2 * q4.K
    A = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        gi = dataclasses.replace(grid0, f=e.reshape(nx, -1))
        A[:, i] = imex_step(gi, op, S).f.ravel()
    eigvals, eigvecs = np.linalg.eig(A)
    k = int(np.argmin(np.abs(eigvals - 1.0)))
    assert abs(eigvals[k] - 1.0) < 1e-12
    steady = np.real(eigvecs[:, k]).reshape(nx, -1)
    steady *= np.sign(steady.sum())
    assert np.std(density(dataclasses.replace(grid0, f=steady))) > 1e-3  # genuinely non-flat
    grid = dataclasses.replace(grid0, f=steady)
    for _ in range(100):
        grid = imex_step(grid, op, S)
    assert np.max(np.abs(grid.f - steady)) / np.max(np.abs(steady)) < 1e-10


def test_vfp_mass_drift_law_with_field(qv3):
    """With E != 0 conservation degrades to O(eps) per step: the discrete
    zero-flux identities hold only for the eps = 0 modes (characterization,
    see also the exact E = 0 conservation in the acceptance suite)."""
    nx = 32
    dx = 1.0 / nx
    xi = np.arange(nx) * dx
    model = Vfp(qv3, 0.5 * np.sin(2.0 * np.pi * xi))
    drifts = []
    for eps in (1e-3, 1e-4):
        grid = make_grid(model, eps, nx=nx, dx=dx, dt=dx**2)
        op = step_operator(grid, model)
        m0 = mass(grid)
        drifts.append(abs(mass(imex_step(grid, op)) - m0) / m0)
    assert drifts[0] == pytest.approx(10.0 * drifts[1], rel=0.2)


def test_interface_helpers(q4):
    vals = np.array([1.0, 2.0, 4.0, 7.0])
    g = interface_grad(vals, 0.5)
    assert np.allclose(g, [(1.0 - 7.0) / 0.5, 2.0, 4.0, 6.0], atol=1e-15)
    E = chemo_drift(q4, [0.0], phi_tanh)
    assert E[0] == 0.0


def roll_rhs(grid, op, S=None):
    """The step's right-hand side as written with np.roll/np.hstack before the
    gather indices."""
    B = op.B if S is None else op.model.interfaces(grid.epsilon, grid.dx, S).B
    B = np.broadcast_to(B, (grid.Nx,) + B.shape[1:])
    K = grid.q.K
    f = grid.f
    incoming = np.hstack([np.roll(f[:, :K], 1, axis=0), f[:, K:]])
    out = np.einsum("iab,ib->ia", B, incoming)
    b = np.hstack([out[:, :K], np.roll(out[:, K:], -1, axis=0)])
    Vd = np.concatenate([grid.q.nodes, grid.q.nodes])
    return grid.epsilon * f + (grid.epsilon * grid.dt / grid.dx) * Vd * b


def imex_step_roll(grid, op, S=None):
    """The reference of the bitwise test below: it checks the gather indices,
    so it multiplies by the operator's R_eps^{-1} as the step does."""
    return roll_rhs(grid, op, S) @ op.R_inv.T


def _model(name, K, nx):
    if name == "rte":
        return Rte(gauss_symmetric(K))
    if name == "chemo":
        return Chemo(gauss_symmetric(K), lambda u: phi_tanh(u, chi=1.5, delta=0.5))
    xi = np.arange(nx) / nx
    return Vfp(vfp_quadrature(K, 1.0, vfp_preset_nodes(K, 1.0)), 0.5 * np.sin(2.0 * np.pi * xi))


@pytest.mark.parametrize("eps", [1e-2, 1e-9])  # above and below the B0 switch
@pytest.mark.parametrize("nx", [1, 2, 3, 17])  # 1 and 2: the periodic wrap of the indices
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("name", ["rte", "chemo", "vfp"])
def test_imex_step_bitwise_equals_roll_formula(name, K, nx, eps):
    model = _model(name, K, nx)
    dx = 1.0 / nx
    rng = np.random.default_rng([K, nx])
    f = rng.uniform(0.5, 1.5, (nx, 2 * K))  # no symmetry for the B term to hide
    grid = KineticGrid(Nx=nx, dx=dx, dt=dx**2 / 4.0, epsilon=eps, q=model.q, f=f)
    op = step_operator(grid, model)
    for _ in range(3):
        S = model.field(density(grid), dx)  # chemo: a field S each step
        new = imex_step(grid, op, S)
        assert np.array_equal(new.f, imex_step_roll(grid, op, S))
        assert not new.f.flags.writeable
        grid = new


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["rte", "vfp"])
def test_non_finite_b_stack_is_a_solve_failure(name, bad):
    # the product with R_eps^{-1} spreads a non-finite right-hand side into
    # the new state, and the check on it turns that into SolveFailure
    model = _model(name, 2, 8)
    grid = make_grid(model, 1e-2, nx=8, dx=1.0 / 8, dt=1.0 / 256)
    op = step_operator(grid, model)
    B = op.B.copy()
    B[0, 1, 2] = bad
    with pytest.raises(SolveFailure):
        imex_step(grid, dataclasses.replace(op, B=B))


@pytest.mark.parametrize("nx", [1, 2, 3, 17])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("name", ["rte", "chemo", "vfp"])
def test_imex_step_matches_lu_solve_within_condition_bound(name, K, nx):
    # the step multiplies by R_eps^{-1}; against a backward-stable LU solve
    # of the same system its relative error may grow like u cond_1(R_eps)
    model = _model(name, K, nx)
    dx = 1.0 / nx
    f = np.random.default_rng([K, nx]).uniform(0.5, 1.5, (nx, 2 * K))
    u = np.finfo(float).eps / 2.0
    for eps in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        grid = KineticGrid(Nx=nx, dx=dx, dt=dx**2 / 4.0, epsilon=eps, q=model.q, f=f)
        op = step_operator(grid, model)
        S = model.field(density(grid), dx)
        R = assemble_cell_matrix(eps, grid.dt, dx, model.q, model.closure.S0)
        try:
            new = imex_step(grid, op, S)
        except IllConditioned:
            # chemo at dx >= 1/2 and eps = 1e-12: the assembly still builds
            # the mode matrices, which a step below the B0 switch does not
            # read, and they exceed the condition guard; no step to compare
            assert name == "chemo" and nx <= 2 and eps == 1e-12
            continue
        ref = sla.lu_solve(sla.lu_factor(R), roll_rhs(grid, op, S).T).T
        gap = np.max(np.abs(new.f - ref)) / np.max(np.abs(ref))
        assert gap <= 4.0 * u * np.linalg.cond(R, 1), (eps, gap)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("name", ["rte", "chemo"])
def test_per_step_mass_drift_stays_at_rounding(name, eps):
    # rte and chemo conserve mass exactly; what a step loses is rounding of
    # the solve, amplified by the 1/eps condition of R_eps
    nx = 32
    dx = 1.0 / nx
    model = _model(name, 4, nx)
    grid = make_grid(model, eps, nx=nx, dx=dx, dt=dx**2 / 4.0)
    op = step_operator(grid, model)
    drift = 0.0
    for _ in range(50):
        m0 = mass(grid)
        grid = imex_step(grid, op, model.field(density(grid), dx))
        drift = max(drift, abs(mass(grid) - m0) / m0)
    assert drift <= 1e-12
