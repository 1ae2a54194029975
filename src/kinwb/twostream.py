"""Two-velocity run-and-tumble model with its closed-form 2x2 S-matrix.

The pedagogical instance: velocities +-1, tumbling biased by the
chemoattractant slope.  Everything that the general solver does through
mode matrices is explicit here, which makes it the cross-validation case
for the full machinery.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolveFailure
from .kinetic import chemoattractant_update, phi_tanh
from .macrolimit import bernoulli


@dataclass(frozen=True, eq=False)
class TwoStreamState:
    Nx: int
    dx: float
    dt: float
    epsilon: float
    f_plus: np.ndarray
    f_minus: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        for name in ("f_plus", "f_minus", "S"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (self.Nx,):
                raise ValueError(f"{name} must have shape ({self.Nx},)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def rho(self) -> np.ndarray:
        return self.f_plus + self.f_minus


def _denominator(epsilon, dx, phi_half):
    """(d, EE): EE = exp(-phi dx) and d = (EE - 1 - eps*phi*(1 + EE))/phi,
    written as -dx/B(-phi dx) - eps*(1 + EE) through the Bernoulli function
    B, so d is nonzero for eps > 0 and continuous through phi = 0, where it
    is -(dx + 2 eps)."""
    EE = np.exp(-phi_half * dx)
    return -dx / bernoulli(-phi_half * dx) - epsilon * (1.0 + EE), EE


def ts_smatrix(epsilon: float, dx: float, phi_half: float) -> np.ndarray:
    """Interface map (f+_{j-1}, f-_j) -> (fbar+, fbar-).

    With EE = exp(-phi dx) and d = (EE - 1 - eps*phi*(1 + EE))/phi:

        [[-2 eps/d,      1 + 2 eps EE/d],
         [1 + 2 eps/d,   -2 eps EE/d   ]]

    which is left-stochastic by construction; phi = 0 gives the diagonal
    2 eps/(dx + 2 eps), the swap matrix only as eps -> 0.
    """
    d, EE = _denominator(epsilon, dx, phi_half)
    r = 2.0 * epsilon / d
    return np.array([[-r, 1.0 + r * EE], [1.0 + r, -r * EE]])


def _currents(f_plus, f_minus, phi_half, epsilon, dx):
    """Jbar_{j-1/2} = -2 (f+_{j-1} - EE f-_j) / d, d as in :func:`ts_smatrix`."""
    d, EE = _denominator(epsilon, dx, phi_half)
    return -2.0 * (np.roll(f_plus, 1) - EE * f_minus) / d


def ts_step(state: TwoStreamState, phi_response: Callable = phi_tanh) -> TwoStreamState:
    """One IMEX step of the two-stream scheme.

    S is refreshed from rho^n through the elliptic solve, the interface
    currents are evaluated explicitly with the exact eps-dependent
    denominator (so stationary profiles are preserved at finite eps), and
    the stiff relaxation is solved cell-locally:

        (1+a) f+ - a f- = f+^n + (dt/dx) Jbar_{j-1/2}
        -a f+ + (1+a) f- = f-^n - (dt/dx) Jbar_{j+1/2},   a = dt/(eps dx).
    """
    S = chemoattractant_update(state.rho, state.dx)
    phi_half = np.asarray(phi_response((S - np.roll(S, 1)) / state.dx), dtype=float)
    J = _currents(state.f_plus, state.f_minus, phi_half, state.epsilon, state.dx)
    a = state.dt / (state.epsilon * state.dx)
    rp = state.f_plus + state.dt / state.dx * J
    rm = state.f_minus - state.dt / state.dx * np.roll(J, -1)
    det = 1.0 + 2.0 * a
    f_plus = ((1.0 + a) * rp + a * rm) / det
    f_minus = (a * rp + (1.0 + a) * rm) / det
    if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
        raise SolveFailure("the two-stream step produced a non-finite state")
    return TwoStreamState(
        Nx=state.Nx, dx=state.dx, dt=state.dt, epsilon=state.epsilon,
        f_plus=f_plus, f_minus=f_minus, S=S,
    )

