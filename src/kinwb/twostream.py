"""Two-velocity run-and-tumble model with its closed-form 2x2 S-matrix.

The pedagogical instance: velocities +-1, tumbling biased by the
chemoattractant slope.  Everything that the general solver does through
mode matrices is explicit here, which makes it the cross-validation case
for the full machinery.  The state is the (Nx, 2) array [f+, f-], the
kinetic layout at K = 1.
"""

from typing import Callable

import numpy as np

from .errors import SolveFailure
from .kinetic import interface_grad
from .macrolimit import bernoulli


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


def ts_step(f: np.ndarray, S: np.ndarray, epsilon: float, dt: float, dx: float,
            phi_response: Callable) -> np.ndarray:
    """One IMEX step of the two-stream scheme on f = [f+, f-], shape (Nx, 2),
    driven by the chemoattractant S through the response ``phi_response``
    of the interface slopes.  An array ``epsilon`` of P values steps P
    independent problems, f (P, Nx, 2) and S (P, Nx), each ring alone.

    The interface currents Jbar_{j-1/2} = -2 (f+_{j-1} - EE f-_j)/d, with
    EE and d as in :func:`ts_smatrix`, are explicit with the exact
    eps-dependent denominator (so stationary profiles are preserved at
    finite eps), and the stiff relaxation is solved cell-locally:

        (1+a) f+ - a f- = f+^n + (dt/dx) Jbar_{j-1/2}
        -a f+ + (1+a) f- = f-^n - (dt/dx) Jbar_{j+1/2},   a = dt/(eps dx).
    """
    f_plus, f_minus = f[..., 0], f[..., 1]
    eps = np.asarray(epsilon)[..., None]  # against (P, Nx) rings
    phi_half = np.asarray(phi_response(interface_grad(S, dx)), dtype=float)
    d, EE = _denominator(eps, dx, phi_half)
    J = -2.0 * (np.roll(f_plus, 1, axis=-1) - EE * f_minus) / d
    a = dt / (eps * dx)
    rp = f_plus + dt / dx * J
    rm = f_minus - dt / dx * np.roll(J, -1, axis=-1)
    det = 1.0 + 2.0 * a
    fnew = np.stack([((1.0 + a) * rp + a * rm) / det, (a * rp + (1.0 + a) * rm) / det], axis=-1)
    if not np.all(np.isfinite(fnew)):
        raise SolveFailure("the two-stream step produced a non-finite state")
    return fnew
