"""The four models, one object each.

A model knows its velocity set ``q`` (two-stream's is {v = 1, w = 1}) and
limit closure (the kinetic ones), the field it reads from the density, and
how it relaxes as eps -> 0; every march starts at ``kinetic.equilibrium`` on
``q`` and reads ``kinetic.density``.  All four limits are one
exponential-fitting scheme, :func:`macrolimit.sg_step`; only the diffusion
coefficient ``D`` and the interface drift ``drift(S, dx)`` depend on the
model.  Radiative transfer assembles its interface as chemotaxis at zero
slope.  ``march`` yields (rho, S) for the initial state and then after
every step, forever; S is the chemoattractant that drove the step, at the
initial state the one the first step reads (None without one).  eps has
one shape: ``march`` takes one eps or P and marches P independent problems
from the same rho0 at once, on the P rings of :class:`kinetic.KineticGrid`
(``kinwb run`` marches P = 1).  rho and S are always (P, Nx), one row per
eps, each with the bits of its march alone from Nx = 2 on.
"""

import logging
from functools import cached_property

import numpy as np

from .kinetic import (
    KineticGrid,
    chemo_drift,
    chemoattractant_update,
    density,
    equilibrium,
    face_indices,
    imex_step,
    interface_grad,
    step_operator,
)
from .quadrature import VelocityQuadrature
from .scattering import chemo_interfaces, rte_closure, vfp_closure, vfp_interfaces
from .spectral import _all_roots_multi, dispersion_roots, shift_weights
from .twostream import ts_step

log = logging.getLogger("kinwb")


class _Kinetic:
    """The general IMEX march over interface scattering matrices.  What sees
    neither eps nor the field is built once per model: the closure, and the
    faces of each grid size it marches."""

    static = True  # the interfaces stay the same for the whole run
    shared_interface = False  # one interface serves every cell
    conserves_mass = True  # every step keeps the total density to rounding

    def __init__(self, q, D: float, closure):
        self.q, self.D, self.closure = q, D, closure
        self._faces = {}  # (Nx, rings) -> face_indices(Nx, K, rings)

    def faces(self, Nx: int, rings: int):
        """:func:`kinetic.face_indices` on rings of Nx cells, built once per
        grid size: all a step reads of the grid's layout."""
        if (Nx, rings) not in self._faces:
            self._faces[Nx, rings] = face_indices(Nx, self.q.K, rings)
        return self._faces[Nx, rings]

    def field(self, rho: np.ndarray, dx: float):
        return None

    def check_step(self, dt: float, dx: float) -> None:
        """Warn when dt exceeds dx^2/(2D), the stability bound of the explicit
        B term; the bound does not see eps, so the set-up checks it once."""
        bound = dx * dx / (2.0 * self.D)
        if dt > bound:
            log.warning(
                "dt=%g exceeds dx^2/(2D)=%g, the stability bound of the explicit "
                "B term; the march may blow up", dt, bound,
            )

    def march(self, eps, dt: float, dx: float, rho0: np.ndarray):
        """(rho, S) of the P problems of ``eps``, taken as a (P,) array, as
        (P, Nx) rows: at the initial state, then after every step."""
        eps = np.array(eps, dtype=float, ndmin=1)
        grid = KineticGrid(Nx=len(rho0), dx=dx, dt=dt, epsilon=eps, q=self.q,
                           f=np.tile(equilibrium(rho0, self.q), (len(eps), 1)))  # one ring per eps
        op = step_operator(grid, self)
        rho = density(grid.f.reshape(grid.cells + (-1,)), self.q)
        S = self.field(rho, dx)
        yield rho, S
        while True:
            grid = imex_step(grid, op, S)
            rho = density(grid.f.reshape(grid.cells + (-1,)), self.q)
            yield rho, S
            S = self.field(rho, dx)


class Rte(_Kinetic):
    """Radiative transfer; its limit is the heat equation with D the
    quadrature's second moment.  One interface serves the whole grid; it
    is chemotaxis at zero response ``phi``, from the same set-up."""

    phi = staticmethod(np.zeros_like)
    shared_interface = True

    def __init__(self, q):
        self.base = dispersion_roots(q)
        super().__init__(q, q.second_moment, rte_closure(q, self.base))
        self.shifts = shift_weights(q, self.base)

    @cached_property
    def roots(self) -> np.ndarray:
        """The interface's finite-eps roots: at zero slope neither the rates
        nor the root seed see eps, so one row serves every eps."""
        ones = np.ones((1, self.q.K))
        seed = np.hstack([-self.base[::-1], 0.0, self.base])[None]
        return _all_roots_multi(self.q.nodes, self.q.weights, ones, ones, seed)

    def drift(self, S, dx: float):
        return 0.0

    def interfaces(self, eps, dx: float, S):
        P = np.size(eps)  # one interface per problem
        return chemo_interfaces(eps, dx, self, np.zeros(P), np.repeat(self.roots, P, axis=0))


class Chemo(Rte):
    """Othmer-Alt chemotaxis with tumbling rate 1 + eps*phi(v dS/dx); S
    solves the elliptic equation of the density every step."""

    static = shared_interface = False

    def __init__(self, q, phi):
        super().__init__(q)
        self.phi = phi

    def field(self, rho: np.ndarray, dx: float) -> np.ndarray:
        return chemoattractant_update(rho, dx)

    def drift(self, S: np.ndarray, dx: float) -> np.ndarray:
        # the macroscopic flux is D d_x rho + E rho: drift of opposite sign
        return -chemo_drift(self.q, interface_grad(S, dx), self.phi)

    def interfaces(self, eps, dx: float, S: np.ndarray):
        return chemo_interfaces(eps, dx, self, interface_grad(S, dx))


class Vfp(_Kinetic):
    """Vlasov-Fokker-Planck in the static field ``E_half`` (at the
    interfaces x_{j-1/2}); D is the quadrature's kappa.  It conserves mass
    only to O(eps) in a field E != 0."""

    conserves_mass = False

    def __init__(self, q, E_half: np.ndarray):
        super().__init__(q, q.kappa, vfp_closure(q))
        self.E_half = E_half

    def drift(self, S, dx: float) -> np.ndarray:
        return self.E_half

    def interfaces(self, eps, dx: float, S):
        return vfp_interfaces(eps, dx, self)


class TwoStream:
    """The K = 1 set {v = 1, w = 1} with the closed-form 2x2 scheme of
    :mod:`twostream`; its Keller-Segel limit has D = 1 and drift phi(dS/dx)."""

    q = VelocityQuadrature(nodes=[1.0], weights=[1.0])
    D = q.second_moment
    shared_interface = False
    conserves_mass = True

    def __init__(self, phi):
        self.phi = phi

    def field(self, rho: np.ndarray, dx: float) -> np.ndarray:
        return chemoattractant_update(rho, dx)

    def drift(self, S: np.ndarray, dx: float) -> np.ndarray:
        return self.phi(interface_grad(S, dx))

    def check_step(self, dt: float, dx: float) -> None:
        """The closed-form step has no explicit B term and no step bound."""

    def march(self, eps, dt: float, dx: float, rho0: np.ndarray):
        """As :meth:`_Kinetic.march`, with the closed-form step."""
        eps = np.array(eps, dtype=float, ndmin=1)
        f = np.tile(equilibrium(rho0, self.q), (len(eps), 1, 1))  # one ring per eps
        rho = density(f, self.q)
        S = self.field(rho, dx)
        yield rho, S
        while True:
            f = ts_step(f, S, eps, dt, dx, self.phi)
            rho = density(f, self.q)
            yield rho, S
            S = self.field(rho, dx)
