import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kinwb import (
    Chemo,
    KineticGrid,
    Rte,
    TwoStream,
    Vfp,
    assemble_cell_matrix,
    chemo_drift,
    chemo_interfaces,
    chemoattractant_update,
    density,
    equilibrium,
    imex_step,
    interface_grad,
    phi_tanh,
    sg_step,
    step_operator,
    VelocityQuadrature,
    gauss_symmetric,
    vfp_interfaces,
    vfp_preset_nodes,
    vfp_quadrature,
)
from kinwb.diagnostics import loglog_slope
from kinwb.errors import SolveFailure
from kinwb.kinetic import trace_indices

NX = 64
DX = 1.0 / NX
DT = DX**2


def make_grid(model, eps, rho=None, nx=NX, dx=DX, dt=DT):
    x = (np.arange(nx) + 0.5) * dx
    if rho is None:
        rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    f = equilibrium(rho, model.q)
    return KineticGrid(Nx=nx, dx=dx, dt=dt, epsilon=eps, q=model.q, f=f)


def mass(grid):
    return float(np.sum(density(grid.f, grid.q)) * grid.dx)


def test_cell_matrix_two_stream_form():
    q = VelocityQuadrature(np.array([1.0]), np.array([1.0]))
    eps, dt, dx = 0.3, 0.01, 0.1
    swap = np.array([[1.0]])
    R = assemble_cell_matrix(eps, dt, dx, q, swap)
    c = dt / dx
    assert np.allclose(R, [[eps + c, -c], [-c, eps + c]], atol=1e-15)


@pytest.mark.parametrize("eps", [0.0, 1e-6, 0.3])
@pytest.mark.parametrize("K", range(1, 17))
def test_cell_matrix_equals_block_form(K, eps):
    # R_eps fills [[I, -S0], [-S0, I]] in place; bitwise the np.block form,
    # signs of zeros included
    q = gauss_symmetric(K)
    S0 = Rte(q).closure.S0
    H = np.block([[np.eye(K), -S0], [-S0, np.eye(K)]])
    Vd = np.concatenate([q.nodes, q.nodes])
    expected = eps * np.eye(2 * K) + DT / DX * (Vd[:, None] * H)
    R = assemble_cell_matrix(eps, DT, DX, q, S0)
    assert np.array_equal(R, expected)
    assert np.array_equal(np.signbit(R), np.signbit(expected))


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
    rho = density(grid.f, grid.q)
    naive = np.array(
        [sum(q4.weights[k] * (f[j, k] + f[j, 4 + k]) for k in range(4)) for j in range(NX)]
    )
    assert np.max(np.abs(rho - naive)) < 1e-15
    zero = KineticGrid(Nx=NX, dx=DX, dt=DT, epsilon=0.1, q=q4, f=np.zeros((NX, 8)))
    assert np.all(density(zero.f, zero.q) == 0.0)
    halves = KineticGrid(Nx=NX, dx=DX, dt=DT, epsilon=0.1, q=q4, f=0.5 * np.ones((NX, 8)))
    assert np.allclose(density(halves.f, halves.q), 1.0, atol=1e-15)


# every kind of velocity set: unit-interval Gauss rules, the vfp presets at
# any kappa in [0.1, 10], and two-stream's {v = 1, w = 1}
_VELOCITY_SETS = st.one_of(
    st.sampled_from([gauss_symmetric(K) for K in range(1, 9)] + [TwoStream.q]),
    st.builds(lambda K, kappa: vfp_quadrature(kappa, vfp_preset_nodes(K, kappa)),
              st.sampled_from([1, 2, 3]), st.floats(0.1, 10.0)),
)


@settings(max_examples=200, deadline=None)
@given(q=_VELOCITY_SETS,
       rho=st.lists(st.floats(1e-200, 1e200), min_size=1, max_size=16))
def test_density_of_equilibrium_is_rho(q, rho):
    m = np.ones(q.K) if q.kappa is None else np.exp(-q.nodes**2 / (2.0 * q.kappa))
    assert np.allclose(q.maxwellian, m, rtol=1e-15, atol=0.0)
    rho = np.array(rho)
    f = equilibrium(rho, q)
    assert np.array_equal(f[:, :q.K], f[:, q.K:])
    assert np.all(np.abs(density(f, q) - rho) <= 4.0 * np.spacing(rho))


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
    rho0 = density(grid.f, grid.q)
    new = imex_step(grid, step_operator(grid, model))
    ref = sg_step(rho0, q4.second_moment, 0.0, DT, DX)
    gap = np.max(np.abs(density(new.f, new.q) - ref)) / np.max(np.abs(ref))
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
    assert q4.nodes[-1] * grid.dt <= grid.epsilon * grid.dx * (1.0 + 1e-12)
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
    rho = density(new.f, new.q)
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
    assert np.std(density(steady, grid0.q)) > 1e-3  # genuinely non-flat
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


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(float, st.integers(1, 300),
                      elements=st.floats(-1e300, 1e300, allow_subnormal=True)),
    dx=st.floats(1e-6, 1e3),
)
@example(values=np.array([3.5]), dx=0.25)  # Nx = 1: the cell is its own neighbour
@example(values=np.array([1.0, -2.0]), dx=0.5)  # Nx = 2: both interfaces see the same pair
def test_interface_grad_is_the_rolled_difference_bitwise(values, dx):
    assert interface_grad(values, dx).tobytes() == ((values - np.roll(values, 1)) / dx).tobytes()
    if len(values) == 1:
        assert interface_grad(values, dx)[0] == 0.0


@pytest.mark.parametrize("bad", ["epsilon", "dx", "dt"])
def test_nan_is_not_positive(bad):
    # x <= 0 is False for NaN, so each entry point asks x > 0; a valid grid
    # stores its one eps as a (1,) float array
    q, qv = gauss_symmetric(2), vfp_quadrature(1.0, vfp_preset_nodes(2, 1.0))
    good = {"epsilon": 1e-2, "dx": 0.25, "dt": 0.01}
    grid = KineticGrid(Nx=4, q=q, f=np.ones((4, 4)), **good)
    assert grid.epsilon.shape == (1,) and grid.epsilon.dtype == float
    args = {**good, bad: np.nan}
    with pytest.raises(ValueError, match="must be positive"):
        KineticGrid(Nx=4, q=q, f=np.ones((4, 4)), **args)
    if bad != "dt":
        with pytest.raises(ValueError, match="must be positive"):
            chemo_interfaces(args["epsilon"], args["dx"], Chemo(q, phi_tanh), np.zeros(4))
        with pytest.raises(ValueError, match="must be positive"):
            vfp_interfaces(args["epsilon"], args["dx"], Vfp(qv, np.zeros(4)))


def row_scale(grid):
    """The velocity scale (dt/dx) V of the step, (2K,), with the step's bits."""
    return grid.dt / grid.dx * np.concatenate([grid.q.nodes, grid.q.nodes])


def interface_b_stack(grid, model, scale=None):
    """The model's static B stack by interface, (2K, 2K, Nx), interface axis
    last and contiguous, row a multiplied by ``scale[a]`` when given; rte's
    one S-matrix is broadcast with stride 0."""
    B = np.ascontiguousarray(model.interfaces(grid.epsilon, grid.dx, None).B.transpose(1, 2, 0))
    if scale is not None:
        B = scale[:, None, None] * B
    return np.broadcast_to(B, B.shape[:2] + (grid.Nx,))


def roll_traces(grid, op, S=None, outgoing=None, scale=None):
    """The outgoing traces each cell receives, (Nx, 2K), as written with
    np.roll/np.hstack before the gather indices: a static model's from its
    stack, rows scaled by ``scale`` when given, a dynamic model's from its
    stack in the field S; ``outgoing``, when given, maps the (Nx, 2K)
    incoming traces to them."""
    K = grid.q.K
    f = grid.f
    incoming = np.hstack([np.roll(f[:, :K], 1, axis=0), f[:, K:]])
    if outgoing is not None:
        out = outgoing(incoming)
    elif S is None:
        out = np.einsum("abi,bi->ai", interface_b_stack(grid, op.model, scale),
                        np.ascontiguousarray(incoming.T)).T
    else:
        stack = op.model.interfaces(grid.epsilon, grid.dx, S)
        out = stack.outgoing(np.ascontiguousarray(incoming.T)).T
    return np.hstack([out[:, :K], np.roll(out[:, K:], -1, axis=0)])


def roll_rhs(grid, op, S=None, outgoing=None):
    """The right-hand side eps f + (eps dt/dx) V b of the R_eps system."""
    Vd = np.concatenate([grid.q.nodes, grid.q.nodes])
    b = roll_traces(grid, op, S, outgoing)
    return grid.epsilon * grid.f + (grid.epsilon * grid.dt / grid.dx) * Vd * b


def imex_step_roll(grid, op, S=None):
    """The reference of the bitwise test below: it checks the gather indices,
    so it scales the velocities as the step does, into a static stack's rows
    and onto a dynamic model's traces, and multiplies by the operator's
    M = eps R_eps^{-1} of the grid's one ring."""
    if S is None:
        rhs = grid.f + roll_traces(grid, op, scale=row_scale(grid))
    else:
        rhs = grid.f + row_scale(grid) * roll_traces(grid, op, S)
    return rhs @ op.M[0].T


def _model(name, K, nx):
    if name == "rte":
        return Rte(gauss_symmetric(K))
    if name == "chemo":
        return Chemo(gauss_symmetric(K), lambda u: phi_tanh(u, chi=1.5, delta=0.5))
    xi = np.arange(nx) / nx
    return Vfp(vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0)), 0.5 * np.sin(2.0 * np.pi * xi))


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
        S = model.field(density(grid.f, grid.q), dx)  # chemo: a field S each step
        new = imex_step(grid, op, S)
        assert np.array_equal(new.f, imex_step_roll(grid, op, S))
        assert not new.f.flags.writeable
        grid = new


@pytest.mark.parametrize("P", [None, 3])  # one problem, three rings
@pytest.mark.parametrize("nx", [1, 2, 17])
@pytest.mark.parametrize("name", ["rte", "chemo", "vfp"])
def test_state_is_stored_velocity_major_after_every_step(name, nx, P):
    # f keeps its (P*Nx, 2K) shape as the transposed view of the step's
    # C-contiguous buffer, from a C-ordered f on; a C-ordered copy of the
    # state steps to the same bits
    K, dx = 2, 1.0 / nx
    model = _model(name, K, nx)
    eps = 1e-2 if P is None else np.array([1e-2, 1e-9, 0.3])
    rows = nx * np.size(eps)
    f = np.random.default_rng([K, nx]).uniform(0.5, 1.5, (rows, 2 * K))
    grid = KineticGrid(Nx=nx, dx=dx, dt=dx**2 / 4.0, epsilon=eps, q=model.q, f=f)
    op = step_operator(grid, model)
    for _ in range(3):
        assert grid.f.shape == (rows, 2 * K) and grid.f.T.flags.c_contiguous
        S = model.field(density(grid.f.reshape(grid.cells + (-1,)), grid.q), dx)
        new = imex_step(grid, op, S)
        copy = dataclasses.replace(grid, f=np.ascontiguousarray(grid.f))
        assert imex_step(copy, op, S).f.tobytes() == new.f.tobytes()
        grid = new
    assert grid.f.shape == (rows, 2 * K) and grid.f.T.flags.c_contiguous


@pytest.mark.parametrize("nx", [1, 2, 17])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_static_b_stack_is_the_models_stack_interface_axis_last(K, nx):
    # stored by receiving cell: the +v rows of cell j are interface j's, the
    # -v rows interface j+1's
    model = _model("vfp", K, nx)  # a sinusoidal field: every interface differs
    grid = make_grid(model, 1e-2, nx=nx, dx=1.0 / nx, dt=1.0 / nx**2)
    B = step_operator(grid, model).B
    assert B.shape == (2 * K, 2 * K, 1, nx) and B.flags.c_contiguous and not B.flags.writeable
    B = B[:, :, 0]  # the grid's one ring
    stack = interface_b_stack(grid, model, row_scale(grid))
    assert np.array_equal(B[:K], stack[:K])
    assert np.array_equal(B[K:], np.roll(stack[K:], -1, axis=-1))


@pytest.mark.parametrize("P", [None, 3])  # one problem, three rings
@pytest.mark.parametrize("nx", [1, 2, 17])
@pytest.mark.parametrize("name", ["rte", "vfp"])
def test_static_b_stack_is_stored_by_receiving_cell(name, nx, P):
    # ring by ring, the +v rows are the model's stack interface-last and the
    # -v rows that stack rolled by one interface within the ring; rte's one
    # interface per ring stays a stride-0 broadcast along its cells
    K, dx = 2, 1.0 / nx
    model = _model(name, K, nx)
    eps = 1e-2 if P is None else np.array([1e-2, 1e-9, 0.3])
    f = np.ones((np.size(eps) * nx, 2 * K))
    grid = KineticGrid(Nx=nx, dx=dx, dt=dx**2 / 4.0, epsilon=eps, q=model.q, f=f)
    B = step_operator(grid, model).B
    stack = row_scale(grid)[:, None, None] * np.moveaxis(model.interfaces(eps, dx, None).B, 0, -1)
    stack = np.broadcast_to(stack.reshape(stack.shape[:2] + (np.size(eps), -1)),
                            (2 * K, 2 * K) + grid.cells)
    assert B.shape == stack.shape and not B.flags.writeable
    assert np.array_equal(B[:K], stack[:K])
    assert np.array_equal(B[K:], np.roll(stack[K:], -1, axis=-1))
    assert B.strides[-1] == 0 if name == "rte" else B.flags.c_contiguous


@pytest.mark.parametrize("P", [None, 3])
@pytest.mark.parametrize("nx", [1, 2, 17])
def test_static_faces_are_each_rings_own_with_face_nx_face_0(nx, P):
    # the faces of a ring gather from its own cells, faces 0..Nx-1 are the
    # incoming traces of its interfaces and face Nx is face 0; a one-cell
    # ring keeps its one face
    K = 2
    model = _model("vfp", K, nx)
    eps = 1e-2 if P is None else np.array([1e-2, 1e-9, 0.3])
    f = np.ones((np.size(eps) * nx, 2 * K))
    grid = KineticGrid(Nx=nx, dx=1.0 / nx, dt=1.0 / nx**2, epsilon=eps, q=model.q, f=f)
    op = step_operator(grid, model)
    incoming = trace_indices(nx, K, np.size(eps))[0].reshape((2 * K,) + grid.cells)
    faces = op.faces
    assert op.incoming is None and op.to_cells is None  # a static step only reads its faces
    assert faces.shape == (2 * K,) + grid.cells[:-1] + (nx + (nx > 1),)
    assert np.array_equal(faces[..., :nx], incoming)
    assert np.array_equal(faces[..., -1], faces[..., 0])
    ring = faces % (np.size(eps) * nx) // nx  # the ring of each gathered cell
    rings = np.arange(np.size(eps)).reshape(grid.cells[:-1] + (1,))
    assert np.array_equal(ring, np.broadcast_to(rings, ring.shape))
    chemo = step_operator(grid, _model("chemo", K, nx))
    assert chemo.faces is None and chemo.B is None and chemo.incoming is not None


@pytest.mark.parametrize("eps", [1e-2, 1e-9])
@pytest.mark.parametrize("nx", [1, 2, 17])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("name", ["rte", "vfp"])
def test_static_step_agrees_with_interface_major_product(name, K, nx, eps):
    # the bitwise test shares the step's contraction; this reference builds
    # B inc from the model's (Nx, 2K, 2K) stack, summed in another order
    model = _model(name, K, nx)
    dx = 1.0 / nx
    f = np.random.default_rng([K, nx]).uniform(0.5, 1.5, (nx, 2 * K))
    grid = KineticGrid(Nx=nx, dx=dx, dt=dx**2 / 4.0, epsilon=eps, q=model.q, f=f)
    op = step_operator(grid, model)
    B = row_scale(grid)[:, None] * model.interfaces(eps, dx, None).B
    B = np.broadcast_to(B, (nx, 2 * K, 2 * K))
    rhs = grid.f + roll_traces(grid, op, outgoing=lambda inc: np.einsum("iab,ib->ia", B, inc))
    ref = rhs @ op.M[0].T
    gap = np.max(np.abs(imex_step(grid, op).f - ref)) / np.max(np.abs(ref))
    assert gap <= 4 * np.finfo(float).eps, gap


def test_rte_b_stack_is_one_broadcast_matrix():
    nx, K = 1024, 16
    model = _model("rte", K, nx)
    B = step_operator(make_grid(model, 1e-2, nx=nx, dx=1.0 / nx, dt=1.0 / nx**2), model).B
    assert B.shape == (2 * K, 2 * K, 1, nx) and B.strides[-1] == 0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["rte", "vfp"])
def test_non_finite_b_stack_is_a_solve_failure(name, bad):
    # the product with R_eps^{-1} spreads a non-finite right-hand side into
    # the new state, and the check on it turns that into SolveFailure
    model = _model(name, 2, 8)
    grid = make_grid(model, 1e-2, nx=8, dx=1.0 / 8, dt=1.0 / 256)
    op = step_operator(grid, model)
    B = op.B.copy()
    B[0, 1, 0, 2] = bad
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
        S = model.field(density(grid.f, grid.q), dx)
        R = assemble_cell_matrix(eps, grid.dt, dx, model.q, model.closure.S0)
        new = imex_step(grid, op, S)
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
        grid = imex_step(grid, op, model.field(density(grid.f, grid.q), dx))
        drift = max(drift, abs(mass(grid) - m0) / m0)
    assert drift <= 1e-12


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["rte", "chemo"]), K=st.integers(1, 8), nx=st.integers(1, 32),
       eps=st.floats(-12.0, -1.0).map(lambda e: 10.0**e))
@example(name="rte", K=4, nx=32, eps=1e-12)
@example(name="chemo", K=4, nx=32, eps=1e-12)
def test_per_step_mass_drift_is_rounding_down_to_eps_1e_12(name, K, nx, eps):
    # g^T M = g^T and the flux row projected out of B: no 1/eps growth
    dx = 1.0 / nx
    model = _model(name, K, nx)
    grid = make_grid(model, eps, nx=nx, dx=dx, dt=dx**2 / 4.0)
    op = step_operator(grid, model)
    for _ in range(3):
        m0 = mass(grid)
        grid = imex_step(grid, op, model.field(density(grid.f, grid.q), dx))
        assert abs(mass(grid) - m0) / m0 <= 1e-14, eps


@pytest.mark.parametrize("name, K", [("rte", 4), ("chemo", 4), ("vfp", 3)])
def test_multi_step_ap_gap_is_first_order_down_to_eps_1e_12(name, K):
    # over 20 steps, each step is O(eps) from one step of the limit scheme
    # from the step's own initial density, driven by the step's own field
    nx, steps = 32, 20
    dx = 1.0 / nx
    dt = dx**2 / 4.0
    model = _model(name, K, nx)
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * (np.arange(nx) + 0.5) * dx)
    epsilons = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
    gaps = []
    for eps in epsilons:
        march = model.march(eps, dt, dx, rho0)
        rho, _ = next(march)
        gap = 0.0
        for _ in range(steps):
            new, S = next(march)
            ref = sg_step(rho, model.D, model.drift(S, dx), dt, dx)
            gap = max(gap, np.max(np.abs(new - ref)) / np.max(np.abs(ref)))
            rho = new
        gaps.append(gap)
    assert loglog_slope(epsilons, gaps) >= 0.9, gaps


@pytest.mark.parametrize("E", [0.5, -2.0])
@pytest.mark.parametrize("K", [2, 3])
def test_vfp_shifted_maxwellian_is_a_fixed_point_at_every_eps(K, E):
    # in a constant field the space-homogeneous mode exp(-(v - eps E)^2/2 kappa)
    # is stationary, and the step keeps it: vfp's B is not projected, and
    # M's mass row moves it by rounding only
    nx = 16
    dx = 1.0 / nx
    q = vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0))
    model = Vfp(q, np.full(nx, E))
    v = np.concatenate([q.nodes, -q.nodes])
    for eps in (1e-1, 1e-3, 1e-6, 1e-10):
        f = np.tile(np.exp(-((v - eps * E) ** 2) / (2.0 * q.kappa)), (nx, 1))
        grid = KineticGrid(Nx=nx, dx=dx, dt=dx**2 / 4.0, epsilon=eps, q=q, f=f)
        op = step_operator(grid, model)
        for _ in range(10):
            grid = imex_step(grid, op)
        assert np.max(np.abs(grid.f - f)) / np.max(f) <= 1e-10, eps


# ---------------------------------------------------------------------------
# P problems on P rings
# ---------------------------------------------------------------------------


def test_trace_indices_of_rings_are_each_rings_own_shifted():
    # ring p's indices are a lone grid's, moved to its rows and columns: the
    # periodic wrap stays inside the ring
    Nx, K, P = 3, 2, 4
    incoming, to_cells = trace_indices(Nx, K, P)
    lone_in, lone_out = trace_indices(Nx, K, 1)
    assert incoming.shape == (2 * K, P * Nx) and to_cells.shape == (2 * K, P * Nx)
    for p in range(P):
        ring = slice(p * Nx, (p + 1) * Nx)
        for index, lone in ((incoming, lone_in), (to_cells, lone_out)):
            rows, cols = np.divmod(lone, Nx)  # velocity a and cell i of a lone state
            assert np.array_equal(index[:, ring], rows * P * Nx + p * Nx + cols)


def _batch_model(name, K, nx):
    if name == "twostream":
        return TwoStream(lambda u: phi_tanh(u, chi=1.5, delta=0.5))
    return _model(name, K, nx)


@pytest.mark.parametrize("nx", [2, 3, 17])
@pytest.mark.parametrize("name, K", [("rte", 2), ("chemo", 2), ("chemo", 3), ("vfp", 2), ("vfp", 3),
                                     ("twostream", 1)])
def test_a_march_of_p_eps_is_p_lone_marches_bitwise(name, K, nx):
    # after the first step the rings differ, so every step checks that a ring
    # reads only its own cells and its own eps; the eps straddle the B0 switch
    # and the certificate, and repeat
    model = _batch_model(name, K, nx)
    dx = 1.0 / nx
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * (np.arange(nx) + 0.5) / nx)
    eps = np.array([0.3, 1e-3, 0.5e-8 * dx, 2e-8 * dx, 1e-3, 1e-12])
    batch = model.march(eps, dx * dx / 4.0, dx, rho0)
    lone = [model.march(float(e), dx * dx / 4.0, dx, rho0) for e in eps]
    for _ in range(4):
        rho, S = next(batch)
        assert rho.shape == (len(eps), nx)
        for p, march in enumerate(lone):
            rho_p, S_p = next(march)
            assert rho_p.shape == (1, nx)  # a lone eps is a batch of one
            assert rho[p].tobytes() == rho_p[0].tobytes()
            assert (S is None and S_p is None) or S[p].tobytes() == S_p[0].tobytes()
