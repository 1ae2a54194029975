"""IMEX well-balanced time marching on a 1D periodic grid.

One step solves, cell by cell,

    R_eps f_j^{n+1} = eps f_j^n + (eps dt/dx) V (B-block terms, neighbors),

    R_eps = eps I + (dt/dx) V [[I, -S0], [-S0, I]],

with the stiff leading scattering block S0 implicit and the eps-correction
blocks explicit.  S0 comes from the limit closure, which does not see the
field, so :func:`step_operator` factorizes R_eps once per run; the B stack
carries the per-interface field dependence.  State layout per cell:
(f(v_1..v_K), f(-v_1..-v_K)).
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .errors import SolveFailure
from .scattering import (
    ClosureCoefficients,
    InterfaceStack,
    chemo_interfaces,
    rte_closure,
    rte_interfaces,
    vfp_closure,
    vfp_interfaces,
)
from .spectral import DispersionSpectrum, dispersion_roots


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

    def with_f(self, f: np.ndarray) -> "KineticGrid":
        return KineticGrid(
            Nx=self.Nx, dx=self.dx, dt=self.dt, epsilon=self.epsilon,
            q=self.q, f=f,
        )


@dataclass(frozen=True, eq=False)
class MacroField:
    rho: np.ndarray
    S: np.ndarray | None = None
    E_half: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class KineticModel:
    """Which collision model drives the step, plus its parameters."""

    name: str  # rte | chemo | vfp
    phi: Callable | None = None
    kappa: float | None = None

    def __post_init__(self):
        if self.name not in ("rte", "chemo", "vfp"):
            raise ValueError(f"unknown model {self.name!r}")
        if self.name == "chemo" and self.phi is None:
            object.__setattr__(self, "phi", phi_tanh)
        if self.name == "vfp" and (self.kappa is None or self.kappa <= 0.0):
            raise ValueError("vfp model requires kappa > 0")


def cfl_check(grid: KineticGrid) -> bool:
    """Advisory kinetic CFL max(v) dt <= eps dx (the positivity-proof bound;
    the IMEX stiff solve permits larger steps)."""
    vmax = float(grid.q.nodes[-1])
    return vmax * grid.dt <= grid.epsilon * grid.dx * (1.0 + 1e-12)


def density(grid: KineticGrid) -> MacroField:
    """Macroscopic density rho_j = sum_k w_k (f_j(v_k) + f_j(-v_k))."""
    K = grid.q.K
    w = grid.q.weights
    rho = grid.f[:, :K] @ w + grid.f[:, K:] @ w
    return MacroField(rho=rho)


def total_mass(grid: KineticGrid) -> float:
    return float(np.sum(density(grid).rho) * grid.dx)


def chemoattractant_update(rho: np.ndarray, dx: float) -> np.ndarray:
    """Solve -(S_{j+1} - 2 S_j + S_{j-1})/dx^2 + S_j = rho_j, periodic.

    The operator is circulant symmetric positive definite; constants map
    to themselves.
    """
    Nx = len(rho)
    first_col = np.zeros(Nx)
    first_col[0] = 1.0 + 2.0 / dx**2
    first_col[1] = -1.0 / dx**2
    first_col[-1] = -1.0 / dx**2
    return sla.solve_circulant(first_col, rho)


def assemble_cell_matrix(
    epsilon: float, dt: float, dx: float, q, S0_left: np.ndarray, S0_right: np.ndarray
) -> np.ndarray:
    """R_eps = eps I + (dt/dx) V [[I, -S0_left], [-S0_right, I]].

    The anti-diagonal placement of the leading scattering block makes the
    implicit solve strictly cell-local; at eps = 0 the matrix is singular
    with the model Maxwellian as kernel.
    """
    K = q.K
    Vd = np.concatenate([q.nodes, q.nodes])
    H = np.block([[np.eye(K), -S0_left], [-S0_right, np.eye(K)]])
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
    """Run constants of :func:`imex_step`: the limit spectrum (None for
    vfp) and closure, the LU of R_eps, and the (Nx, 2K, 2K) B stack of a
    static field (None when each step assembles its own; rte keeps a stack
    of one)."""

    model: KineticModel
    base: DispersionSpectrum | None
    closure: ClosureCoefficients
    lu: tuple
    B: np.ndarray | None = None

    def interfaces(self, grid: KineticGrid, fields: MacroField | None) -> InterfaceStack:
        """Interface decompositions for the given fields; interface i sits
        at x_{i-1/2}, between cells i-1 and i (periodic)."""
        q, eps, dx = grid.q, grid.epsilon, grid.dx
        if self.model.name == "rte":
            return rte_interfaces(eps, dx, q, self.base, self.closure)
        if self.model.name == "chemo":
            if fields is None or fields.S is None:
                raise ValueError("chemo interfaces need fields.S")
            grads = interface_grad(fields.S, dx)
            return chemo_interfaces(eps, dx, q, grads, self.model.phi, self.base, self.closure)
        if fields is None or fields.E_half is None:
            raise ValueError("vfp interfaces need fields.E_half")
        return vfp_interfaces(eps, dx, q, fields.E_half, self.model.kappa, self.closure)


def step_operator(
    grid: KineticGrid, model: KineticModel | str, fields: MacroField | None = None
) -> StepOperator:
    """The run constants of the IMEX step on this grid; the B stack is
    kept for rte, which sees no field, and for static ``fields`` given here."""
    if isinstance(model, str):
        model = KineticModel(name=model)
    q = grid.q
    base = None if model.name == "vfp" else dispersion_roots(q, np.ones(2 * q.K))
    closure = vfp_closure(q) if base is None else rte_closure(q, base)
    S0 = closure.S0
    R = assemble_cell_matrix(grid.epsilon, grid.dt, grid.dx, q, S0, S0)
    op = StepOperator(model=model, base=base, closure=closure, lu=sla.lu_factor(R))
    if model.name == "rte" or fields is not None:
        op = replace(op, B=op.interfaces(grid, fields).B)
    return op


def imex_step(
    grid: KineticGrid, op: StepOperator, fields: MacroField | None = None
) -> KineticGrid:
    """One IMEX step; pure function grid -> grid.  The interfaces are
    assembled from ``fields`` when given, else op's static stack is used."""
    B = op.B if fields is None and op.B is not None else op.interfaces(grid, fields).B
    B = np.broadcast_to(B, (grid.Nx,) + B.shape[1:])  # rte: one S-matrix for all
    K = grid.q.K
    f = grid.f
    # interface i takes the incoming traces f_{i-1}(+v), f_i(-v) and sends
    # its outgoing ones into cell i (+v) and cell i-1 (-v)
    incoming = np.hstack([np.roll(f[:, :K], 1, axis=0), f[:, K:]])
    out = np.einsum("iab,ib->ia", B, incoming)
    b = np.hstack([out[:, :K], np.roll(out[:, K:], -1, axis=0)])
    Vd = np.concatenate([grid.q.nodes, grid.q.nodes])
    rhs = grid.epsilon * f + (grid.epsilon * grid.dt / grid.dx) * Vd * b
    fnew = sla.lu_solve(op.lu, rhs.T).T
    if not np.all(np.isfinite(fnew)):
        raise SolveFailure("the IMEX step produced a non-finite state")
    return grid.with_f(fnew)


def equilibrium_state(model: KineticModel | str, q, rho: np.ndarray) -> np.ndarray:
    """Kinetic data at the model Maxwellian carrying the given density."""
    name = model if isinstance(model, str) else model.name
    K = len(q.nodes)
    if name in ("rte", "chemo"):
        half = np.repeat(rho[:, None] / 2.0, K, axis=1)
        return np.hstack([half, half])
    m = np.exp(-(q.nodes**2) / (2.0 * q.kappa))
    sigma0 = float(np.sum(q.weights * m))
    half = rho[:, None] / (2.0 * sigma0) * m[None, :]
    return np.hstack([half, half])

