"""IMEX well-balanced time marching on a 1D periodic grid.

One step solves, cell by cell,

    R_eps f_j^{n+1} = eps f_j^n + (eps dt/dx) V (B-block terms, neighbors),

    R_eps = eps I + (dt/dx) V [[I, -S0], [-S0, I]],

with the stiff leading scattering block S0 implicit and the eps-correction
blocks explicit.  It is taken as

    f_j^{n+1} = M (f_j^n + (dt/dx) V (B-block terms)),   M = eps R_eps^{-1}:

S0 comes from the limit closure, which does not see the field, so
:func:`step_operator` builds M once per run, and eps enters the step only
through M.  R_eps has the left kernel g = (w, w) of A = R_eps - eps I, so
g^T M = g^T exactly, and the step conserves the density g.f that the B
terms do not move; M's mass row is set to g^T after the inversion, whose
rounding grows like 1/eps.  The B terms carry the per-interface field
dependence: a static model's B stack is built once per run, its rows
scaled by (dt/dx) V, and a chemotaxis step takes the outgoing traces
B inc from the interfaces it assembles (:meth:`InterfaceStack.outgoing`)
and scales them.  The state of cell j is (f_j(v_1..v_K),
f_j(-v_1..-v_K)), and it is stored velocity-major: ``KineticGrid.f`` is
the (P*Nx, 2K) transposed view of a C-contiguous (2K, P*Nx) buffer.  Cell
j reads the outgoing +v trace of interface j and the -v trace of interface
j+1.  A chemotaxis step gathers the incoming traces of its P*Nx interfaces
as (2K, P*Nx), contracts them with its mode matrices, interface axis last,
and scatters each outgoing trace into the cell it enters.  The static B
stack is stored (2K, 2K, P, Nx) by receiving cell instead: the -v rows of
cell j are those of interface j+1, so the static step gathers the traces
of the Nx+1 faces of each ring once and contracts each half straight into
its cells, with no scatter.  Every operation of a step, from the gather to
the product with M, runs its inner loop over the cells or interfaces
instead of over 2K velocities, and each element of the static product
sums over b left to right.

eps has one shape: a grid's ``epsilon`` is a (P,) array, P independent
problems on P periodic rings of Nx cells, ring p the cells p*Nx .. p*Nx +
Nx - 1 (the columns of the buffer), each with its own eps; ``kinwb run``
marches P = 1.  One step serves them all: one gather, one assembly or B
product, and one stacked product with the (P, 2K, 2K) M on the (P, 2K, Nx)
view of the buffer, in which ring p sees the operations of its problem
alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolveFailure


def phi_tanh(u, chi: float = 1.0, delta: float = 1.0):
    """Default bounded odd tumbling response chi*tanh(u/delta)."""
    return chi * np.tanh(np.asarray(u, dtype=float) / delta)


@dataclass(frozen=True, eq=False)
class KineticGrid:
    """Periodic kinetic state of P problems: f[j] = (f_j(v_1..v_K),
    f_j(-v_1..-v_K)), the P rings of Nx cells, (P*Nx, 2K).  ``epsilon`` is
    stored as the (P,) float array of the eps it was given, one value for P
    = 1.  f is read-only and stored velocity-major: ``f.T`` is the
    C-contiguous (2K, P*Nx) buffer that a step reads and writes, whatever
    the order of the f it was given."""

    Nx: int
    dx: float
    dt: float
    epsilon: np.ndarray
    q: object
    f: np.ndarray

    @property
    def cells(self) -> tuple:
        """The shape of a density, (P, Nx)."""
        return (len(self.epsilon), self.Nx)

    def __post_init__(self):
        eps = np.array(self.epsilon, dtype=float, ndmin=1)
        if not (self.dx > 0.0 and self.dt > 0.0 and (eps > 0.0).all()):  # False for NaN too
            raise ValueError("dx, dt, epsilon must be positive")
        object.__setattr__(self, "epsilon", eps)
        f = np.array(self.f, dtype=float, order="F")
        rows = len(eps) * self.Nx
        if f.shape != (rows, 2 * self.q.K):
            raise ValueError(f"f must have shape ({rows}, {2*self.q.K})")
        if not np.all(np.isfinite(f)):
            raise ValueError("densities must be finite")
        f.flags.writeable = False
        object.__setattr__(self, "f", f)


def equilibrium(rho: np.ndarray, q) -> np.ndarray:
    """Kinetic data at the model Maxwellian m = ``q.maxwellian`` carrying the
    density: rho/(2 sigma0) m on both halves, sigma0 = sum_k w_k m_k; a
    density of any shape gets the velocities on a new last axis."""
    m = q.maxwellian
    half = rho[..., None] / (2.0 * float(np.sum(q.weights * m))) * m
    return np.concatenate([half, half], axis=-1)


def density(f: np.ndarray, q) -> np.ndarray:
    """Macroscopic density rho_j = sum_k w_k (f_j(v_k) + f_j(-v_k)) of f
    (..., 2K): the two half densities are one product of ``q.half_weights``
    with the velocity-major view of f, (2K, Nx).  Give P rings as
    (P, Nx, 2K), one product per ring: a matrix-vector product, and a flat
    product over P*Nx cells, sums a cell in an order that depends on where
    it sits, so each ring then has the bits of its problem alone."""
    halves = q.half_weights @ f.swapaxes(-1, -2)
    return halves[..., 0, :] + halves[..., 1, :]


def chemoattractant_update(rho: np.ndarray, dx: float) -> np.ndarray:
    """Solve -(S_{j+1} - 2 S_j + S_{j-1})/dx^2 + S_j = rho_j, periodic.

    The operator is circulant with the exact symbol 1 + (2 sin(pi k/Nx)/dx)^2
    >= 1, so one FFT pair solves it for every Nx and dx; constants map to
    themselves.  A (P, Nx) rho is P rings, each solved alone.
    """
    Nx = rho.shape[-1]
    symbol = 1.0 + (2.0 * np.sin(np.pi * np.arange(Nx // 2 + 1) / Nx) / dx) ** 2
    return np.fft.irfft(np.fft.rfft(rho) / symbol, n=Nx)


def assemble_cell_matrix(epsilon: float, dt: float, dx: float, q, S0: np.ndarray) -> np.ndarray:
    """R_eps = eps I + (dt/dx) V [[I, -S0], [-S0, I]].

    The anti-diagonal placement of the leading scattering block makes the
    implicit solve strictly cell-local; at eps = 0 the matrix is singular
    with the model Maxwellian as kernel.
    """
    K = q.K
    Vd = np.concatenate([q.nodes, q.nodes])
    H = np.eye(2 * K)
    H[:K, K:] = H[K:, :K] = -S0
    return epsilon * np.eye(2 * K) + dt / dx * (Vd[:, None] * H)


def interface_grad(values: np.ndarray, dx: float) -> np.ndarray:
    """(values_j - values_{j-1})/dx at interface x_{j-1/2}, periodic along
    the last axis: the bits of ``(values - np.roll(values, 1, axis=-1))/dx``,
    from two slices."""
    diff = np.empty(np.shape(values))
    np.subtract(values[..., 1:], values[..., :-1], out=diff[..., 1:])
    np.subtract(values[..., :1], values[..., -1:], out=diff[..., :1])
    diff /= dx
    return diff


def chemo_drift(q, grads, phi) -> np.ndarray:
    """Interface drift E_{j-1/2} = sum_k w_k v_k phi(v_k dS/dx)."""
    v, w = q.nodes, q.weights
    return phi(np.outer(np.asarray(grads, dtype=float), v)) @ (w * v)


def trace_indices(Nx: int, K: int, rings: int) -> tuple[np.ndarray, np.ndarray]:
    """The two (2K, rings*Nx) flat indices of a step on ``rings`` periodic
    rings of Nx cells, into a velocity-major (2K, rings*Nx) array:
    ``F.take(incoming)`` gives the incoming traces (f_{i-1}(+v), f_i(-v)) of
    interface i from the state F, and ``out.take(to_cells)`` puts each
    outgoing trace of ``out`` into the cell it enters (cell i for +v, cell
    i-1 for -v), in the same layout.  Interface and cell p*Nx + i are number
    i of ring p, which wraps around by itself.  They see only (Nx, K,
    rings), so a model builds them once per grid size."""
    n = rings * Nx
    cells = np.arange(n)
    ring = cells - cells % Nx  # the first cell of each cell's ring
    left, right = ring + (cells - 1) % Nx, ring + (cells + 1) % Nx
    plus, minus = np.arange(K)[:, None] * n, np.arange(K, 2 * K)[:, None] * n  # the rows
    incoming = np.concatenate([plus + left, minus + cells])
    to_cells = np.concatenate([plus + cells, minus + right])
    return incoming, to_cells


def face_indices(Nx: int, K: int, rings: int) -> np.ndarray:
    """The (2K, rings, Nx+1) flat indices of a static step's faces into a
    velocity-major (2K, rings*Nx) array: face i of ring p is its interface
    i, whose incoming traces ``F.take`` gives as :func:`trace_indices`
    does, and face Nx is face 0 of the same ring (a one-cell ring keeps
    its one face, (2K, rings, 1)).  Cell i reads faces i and i+1."""
    faces = trace_indices(Nx, K, rings)[0].reshape(2 * K, rings, Nx)
    return np.concatenate([faces, faces[..., :1]], axis=-1) if Nx > 1 else faces


@dataclass(frozen=True, eq=False)
class StepOperator:
    """Run constants of :func:`imex_step`: the model (see :mod:`models`),
    M = eps R_eps^{-1}, (P, 2K, 2K), with its mass row exact, the read-only
    B stack of a static model (None when each step assembles its own) and
    the velocities scaled by dt/dx, (2K, 1, 1) against the (2K, P, Nx) view
    of the velocity-major state.

    The static B stack is stored by receiving cell, (2K, 2K, P, Nx), cell
    axis last and contiguous, with each row a scaled by the velocity
    (dt/dx) V_a of its trace: B[a, b, p, j] is block row a of the interface
    whose outgoing trace a enters cell j of ring p, interface j for the +v
    rows and interface j+1 of the same ring for the -v rows; rte's one
    S-matrix per ring is broadcast with stride 0 along the ring's cells.
    ``faces``, of a static model only, are the :func:`face_indices` of the
    grid, (2K, P, Nx+1); ``incoming`` and ``to_cells``, of a chemotaxis
    model only, are its :func:`trace_indices`, with which its step gathers
    and scatters its traces.  The model builds either once per
    grid size, and every operator on it shares them.  Each element of the
    static product sums over b left to right."""

    model: object
    M: np.ndarray
    B: np.ndarray | None
    scaled_v: np.ndarray
    incoming: np.ndarray | None
    to_cells: np.ndarray | None
    faces: np.ndarray | None


def step_operator(grid: KineticGrid, model) -> StepOperator:
    """The run constants of the IMEX step on this grid.  M = eps R_eps^{-1}
    takes S0 from the model's closure, which does not see the field; its
    mass row is then set to g^T, g = (w, w), by the rank-one update
    M += (m/(g.m)) (g - g^T M)^T, with g^T M summed as columns so that each
    ring keeps its bits.  The B stack is kept, by receiving cell and scaled
    by (dt/dx) V, for a model whose interfaces stay the same.  An exactly
    singular R_eps raises :class:`SolveFailure`."""
    eps = grid.epsilon[:, None, None]
    P, Nx = grid.cells
    R = assemble_cell_matrix(eps, grid.dt, grid.dx, grid.q, model.closure.S0)
    try:
        M = eps * np.linalg.inv(R)
    except np.linalg.LinAlgError:
        at = ", ".join(f"{e:g}" for e in grid.epsilon)
        raise SolveFailure(f"R_eps is singular at eps={at}") from None
    g, unit = grid.q.mass_row
    M += unit[:, None] * (g - (g[:, None] * M).sum(axis=-2))[..., None, :]
    scale = grid.dt / grid.dx * np.concatenate([grid.q.nodes, grid.q.nodes])
    B = faces = incoming = to_cells = None
    if model.static:
        B = _cell_stack(grid, model, scale[:, None, None, None])
        faces = model.faces(Nx, P)
    else:
        incoming, to_cells = model.traces(Nx, P)
    return StepOperator(model=model, M=M, B=B, scaled_v=scale[:, None, None],
                        incoming=incoming, to_cells=to_cells, faces=faces)


def _cell_stack(grid: KineticGrid, model, scale: np.ndarray) -> np.ndarray:
    """A static model's read-only B stack by receiving cell, each row a
    multiplied by ``scale[a]`` (see :class:`StepOperator`); the model's own
    stack, interface by interface, is dropped on return.  rte's one matrix
    per ring is scaled before it is broadcast, so the stack stays stride 0
    along the cells."""
    K, (P, Nx) = grid.q.K, grid.cells
    stack = model.interfaces(grid.epsilon, grid.dx, None).B.transpose(1, 2, 0)
    if model.shared_interface:  # one interface serves each ring
        stack = scale * stack.reshape(2 * K, 2 * K, P, 1)
        B = np.broadcast_to(stack, (2 * K, 2 * K, P, Nx))
    else:  # the -v rows of cell j are those of interface j+1 of its ring
        stack = stack.reshape(2 * K, 2 * K, P, Nx)
        B = np.empty(stack.shape)
        B[:K] = stack[:K]
        B[K:, ..., :-1], B[K:, ..., -1] = stack[K:, ..., 1:], stack[K:, ..., 0]
        B *= scale
    B.flags.writeable = False
    return B


def imex_step(grid: KineticGrid, op: StepOperator, S: np.ndarray | None = None) -> KineticGrid:
    """One IMEX step; pure function grid -> grid.  The interfaces are
    assembled from the field S when given, and their outgoing traces
    scattered into the cells they enter and scaled by (dt/dx) V; else each
    half of op's static stack, stored by receiving cell and already scaled,
    contracts straight into its half of the right-hand side, the +v rows
    with faces 0..Nx-1 and the -v rows with faces 1..Nx.  The right-hand
    side adds the state, and M is one product with it, stacked over the P
    rings.  Every operation runs on the (2K, P, Nx) view of the
    velocity-major state; the traces are dropped as soon as they are used,
    which keeps a batch small."""
    F = grid.f.T
    K, Nx = grid.q.K, grid.Nx
    shape = (2 * K,) + grid.cells  # the (2K, P, Nx) view of the state
    if S is None:
        faces = F.take(op.faces)
        rhs = np.empty(shape)
        np.einsum("ab...,b...->a...", op.B[:K], faces[..., :Nx], out=rhs[:K])
        np.einsum("ab...,b...->a...", op.B[K:], faces[..., -Nx:], out=rhs[K:])
        del faces
    else:
        out = op.model.interfaces(grid.epsilon, grid.dx, S).outgoing(F.take(op.incoming))
        rhs = out.take(op.to_cells).reshape(shape)
        rhs *= op.scaled_v
    rhs += F.reshape(rhs.shape)
    fnew = np.empty_like(rhs)  # a non-finite rhs gives a non-finite fnew
    np.matmul(op.M, rhs.swapaxes(0, 1), out=fnew.swapaxes(0, 1))
    if not np.isfinite(fnew).all():
        raise SolveFailure("the IMEX step produced a non-finite state")
    fnew.flags.writeable = False  # fresh and checked: skip __post_init__'s copy and check
    new = object.__new__(KineticGrid)
    new.__dict__.update(grid.__dict__, f=fnew.reshape(F.shape).T)
    return new
