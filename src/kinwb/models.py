"""The four models, one object each.

A model knows its velocity set and limit closure (the kinetic ones), its
equilibrium, the field it reads from the density, and how it relaxes as
eps -> 0.  All four limits are one exponential-fitting scheme,
:func:`macrolimit.sg_step`; only the diffusion coefficient ``D`` and the
interface drift ``drift(S, dx)`` depend on the model.  ``march`` yields
(rho, S) for the initial state and then after every step, forever; S is
the chemoattractant that drove the step (None without one).
"""

import logging

import numpy as np

from .kinetic import (
    KineticGrid,
    chemo_drift,
    chemoattractant_update,
    density,
    imex_step,
    interface_grad,
    step_operator,
)
from .scattering import chemo_interfaces, rte_closure, rte_interfaces, vfp_closure, vfp_interfaces
from .spectral import dispersion_roots, vfp_psi0
from .twostream import TwoStreamState, ts_step

log = logging.getLogger("kinwb")


class _Kinetic:
    """The general IMEX march over interface scattering matrices."""

    static = True  # the interfaces stay the same for the whole run

    def equilibrium(self, rho: np.ndarray) -> np.ndarray:
        """Kinetic data at the uniform Maxwellian carrying the density."""
        half = np.repeat(rho[:, None] / 2.0, self.q.K, axis=1)
        return np.hstack([half, half])

    def field(self, rho: np.ndarray, dx: float):
        return None

    def check_step(self, dt: float, dx: float) -> None:
        """Warn when dt exceeds dx^2/(2D), the stability bound of the explicit
        B term; the bound does not see eps, so the set-up checks it once."""
        bound = dx**2 / (2.0 * self.D)
        if dt > bound:
            log.warning(
                "dt=%g exceeds dx^2/(2D)=%g, the stability bound of the explicit "
                "B term; the march may blow up", dt, bound,
            )

    def march(self, eps: float, dt: float, dx: float, rho0: np.ndarray):
        grid = KineticGrid(
            Nx=len(rho0), dx=dx, dt=dt, epsilon=eps, q=self.q, f=self.equilibrium(rho0)
        )
        op = step_operator(grid, self)
        S = None
        while True:
            rho = density(grid)
            yield rho, S
            S = self.field(rho, dx)
            grid = imex_step(grid, op, S)


class Rte(_Kinetic):
    """Radiative transfer; its limit is the heat equation with D the
    quadrature's second moment."""

    def __init__(self, q):
        self.q = q
        self.D = q.second_moment
        self.base = dispersion_roots(q)
        self.closure = rte_closure(q, self.base)

    def drift(self, S, dx: float):
        return 0.0

    def interfaces(self, eps: float, dx: float, S):
        return rte_interfaces(eps, dx, self.q, self.base, self.closure)


class Chemo(Rte):
    """Othmer-Alt chemotaxis with tumbling rate 1 + eps*phi(v dS/dx); S
    solves the elliptic equation of the density every step."""

    static = False

    def __init__(self, q, phi):
        super().__init__(q)
        self.phi = phi

    def field(self, rho: np.ndarray, dx: float) -> np.ndarray:
        return chemoattractant_update(rho, dx)

    def drift(self, S: np.ndarray, dx: float) -> np.ndarray:
        # the macroscopic flux is D d_x rho + E rho: drift of opposite sign
        return -chemo_drift(self.q, interface_grad(S, dx), self.phi)

    def interfaces(self, eps: float, dx: float, S: np.ndarray):
        grads = interface_grad(S, dx)
        return chemo_interfaces(eps, dx, self.q, grads, self.phi, self.base, self.closure)


class Vfp(_Kinetic):
    """Vlasov-Fokker-Planck in the static field ``E_half`` (at the
    interfaces x_{j-1/2}); D is the quadrature's kappa."""

    def __init__(self, q, E_half: np.ndarray):
        self.q = q
        self.D = q.kappa
        self.E_half = E_half
        self.closure = vfp_closure(q)

    def equilibrium(self, rho: np.ndarray) -> np.ndarray:
        """Kinetic data at the Maxwellian exp(-v^2/2 kappa) carrying the density."""
        q = self.q
        m = vfp_psi0(0, q.nodes, q.kappa)
        sigma0 = float(np.sum(q.weights * m))
        half = rho[:, None] / (2.0 * sigma0) * m[None, :]
        return np.hstack([half, half])

    def drift(self, S, dx: float) -> np.ndarray:
        return self.E_half

    def interfaces(self, eps: float, dx: float, S):
        return vfp_interfaces(eps, dx, self.q, self.E_half, self.closure)


class TwoStream:
    """Velocities +-1 with the closed-form 2x2 scheme of :mod:`twostream`;
    its Keller-Segel limit has D = 1 and drift phi(dS/dx)."""

    D = 1.0

    def __init__(self, phi):
        self.phi = phi

    def equilibrium(self, rho: np.ndarray) -> np.ndarray:
        return np.column_stack([rho / 2.0, rho / 2.0])

    def field(self, rho: np.ndarray, dx: float) -> np.ndarray:
        return chemoattractant_update(rho, dx)

    def drift(self, S: np.ndarray, dx: float) -> np.ndarray:
        return self.phi(interface_grad(S, dx))

    def check_step(self, dt: float, dx: float) -> None:
        """The closed-form step has no explicit B term and no step bound."""

    def march(self, eps: float, dt: float, dx: float, rho0: np.ndarray):
        f = self.equilibrium(rho0)
        state = TwoStreamState(
            Nx=len(rho0), dx=dx, dt=dt, epsilon=eps,
            f_plus=f[:, 0], f_minus=f[:, 1], S=self.field(rho0, dx),
        )
        while True:
            yield state.rho, state.S
            state = ts_step(state, self.phi)
