"""IMEX well-balanced time marching on a 1D periodic grid.

One step solves, cell by cell,

    R_eps f_j^{n+1} = eps f_j^n + (eps dt/dx) V (B-block terms, neighbors),

    R_eps = eps I + (dt/dx) V [[I, -S0], [-S0, I]],

with the stiff leading scattering block S0 implicit and the eps-correction
blocks explicit.  S0 comes from the limit closure, which does not see the
field, so :func:`step_operator` inverts R_eps once per run and a step is one
product with the inverse; the B stack carries the per-interface field
dependence.  State layout per cell: (f(v_1..v_K), f(-v_1..-v_K)).
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolveFailure


def phi_tanh(u, chi: float = 1.0, delta: float = 1.0):
    """Default bounded odd tumbling response chi*tanh(u/delta)."""
    return chi * np.tanh(np.asarray(u, dtype=float) / delta)


@dataclass(frozen=True, eq=False)
class KineticGrid:
    """Periodic kinetic state: f[j] = (f_j(v_1..v_K), f_j(-v_1..-v_K))."""

    Nx: int
    dx: float
    dt: float
    epsilon: float
    q: object
    f: np.ndarray

    def __post_init__(self):
        if self.dx <= 0.0 or self.dt <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("dx, dt, epsilon must be positive")
        f = np.array(self.f, dtype=float)
        if f.shape != (self.Nx, 2 * self.q.K):
            raise ValueError(f"f must have shape ({self.Nx}, {2*self.q.K})")
        if not np.all(np.isfinite(f)):
            raise ValueError("densities must be finite")
        f.flags.writeable = False
        object.__setattr__(self, "f", f)


def cfl_check(grid: KineticGrid) -> bool:
    """Advisory kinetic CFL max(v) dt <= eps dx (the positivity-proof bound;
    the IMEX stiff solve permits larger steps)."""
    vmax = float(grid.q.nodes[-1])
    return vmax * grid.dt <= grid.epsilon * grid.dx * (1.0 + 1e-12)


def density(grid: KineticGrid) -> np.ndarray:
    """Macroscopic density rho_j = sum_k w_k (f_j(v_k) + f_j(-v_k))."""
    K = grid.q.K
    w = grid.q.weights
    return grid.f[:, :K] @ w + grid.f[:, K:] @ w


def chemoattractant_update(rho: np.ndarray, dx: float) -> np.ndarray:
    """Solve -(S_{j+1} - 2 S_j + S_{j-1})/dx^2 + S_j = rho_j, periodic.

    The operator is circulant with the exact symbol 1 + (2 sin(pi k/Nx)/dx)^2
    >= 1, so one FFT pair solves it for every Nx and dx; constants map to
    themselves.
    """
    Nx = len(rho)
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
    H = np.block([[np.eye(K), -S0], [-S0, np.eye(K)]])
    return epsilon * np.eye(2 * K) + dt / dx * (Vd[:, None] * H)


def interface_grad(values: np.ndarray, dx: float) -> np.ndarray:
    """(values_j - values_{j-1})/dx at interface x_{j-1/2}, periodic."""
    return (values - np.roll(values, 1)) / dx


def chemo_drift(q, grads, phi) -> np.ndarray:
    """Interface drift E_{j-1/2} = sum_k w_k v_k phi(v_k dS/dx)."""
    v, w = q.nodes, q.weights
    return phi(np.outer(np.asarray(grads, dtype=float), v)) @ (w * v)


@dataclass(frozen=True, eq=False)
class StepOperator:
    """Run constants of :func:`imex_step`: the model (see :mod:`models`),
    R_eps^{-1}, the read-only (Nx, 2K, 2K) B stack of a static model (None
    when each step assembles its own; rte's one S-matrix is broadcast), the
    velocities scaled by eps dt/dx, and two (Nx, 2K) flat indices: ``f.take(incoming)``
    gives interface i its incoming traces (f_{i-1}(+v), f_i(-v)), and
    ``out.take(to_cells)`` puts each outgoing trace into the cell it enters
    (cell i for +v, cell i-1 for -v)."""

    model: object
    R_inv: np.ndarray
    B: np.ndarray | None
    scaled_v: np.ndarray
    incoming: np.ndarray
    to_cells: np.ndarray


def step_operator(grid: KineticGrid, model) -> StepOperator:
    """The run constants of the IMEX step on this grid.  R_eps takes S0 from
    the model's closure, which does not see the field; the B stack is kept
    for a model whose interfaces stay the same.  An exactly singular R_eps
    raises :class:`SolveFailure`."""
    R = assemble_cell_matrix(grid.epsilon, grid.dt, grid.dx, grid.q, model.closure.S0)
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        raise SolveFailure(f"R_eps is singular at eps={grid.epsilon:g}") from None
    B = None
    if model.static:
        B = model.interfaces(grid.epsilon, grid.dx, None).B
        B = np.broadcast_to(B, (grid.Nx,) + B.shape[1:])
    K = grid.q.K
    cell = np.arange(grid.Nx)[:, None]
    plus, minus = np.arange(K), np.arange(K, 2 * K)
    return StepOperator(
        model=model, R_inv=R_inv, B=B,
        scaled_v=(grid.epsilon * grid.dt / grid.dx) * np.concatenate([grid.q.nodes, grid.q.nodes]),
        incoming=np.hstack([(cell - 1) % grid.Nx * 2 * K + plus, cell * 2 * K + minus]),
        to_cells=np.hstack([cell * 2 * K + plus, (cell + 1) % grid.Nx * 2 * K + minus]),
    )


def imex_step(grid: KineticGrid, op: StepOperator, S: np.ndarray | None = None) -> KineticGrid:
    """One IMEX step; pure function grid -> grid.  The interfaces are
    assembled from the field S when given, else op's static stack is used."""
    B = op.B if S is None else op.model.interfaces(grid.epsilon, grid.dx, S).B
    out = np.einsum("iab,ib->ia", B, grid.f.take(op.incoming))
    rhs = grid.epsilon * grid.f + op.scaled_v * out.take(op.to_cells)
    fnew = rhs @ op.R_inv.T  # a non-finite rhs gives a non-finite fnew
    if not np.all(np.isfinite(fnew)):
        raise SolveFailure("the IMEX step produced a non-finite state")
    fnew.flags.writeable = False  # fresh and checked: skip __post_init__'s copy and check
    new = object.__new__(KineticGrid)
    new.__dict__.update(grid.__dict__, f=fnew)
    return new
