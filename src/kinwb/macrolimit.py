"""The exponential-fitting (Il'in/Scharfetter-Gummel) scheme that every
kinetic model relaxes to; the models differ only in D and the drift E.

The exponential-fitting flux for d_t rho - d_x(D d_x rho - E rho) = 0 is

    F_{j-1/2} = E (rho_{j-1} - exp(-E dx/D) rho_j) / (1 - exp(-E dx/D)),

written here through the Bernoulli function B(x) = x/(exp(x) - 1) as
F = (D/dx) (B(-u) rho_L - B(u) rho_R), u = E dx/D, which is finite and
smooth through u = 0, where the step is the centred heat step.  Updates
are conservative: rho_j += (dt/dx)(F_{j-1/2} - F_{j+1/2}) on a periodic
grid, with E_half[j] the drift at interface x_{j-1/2}.
"""

import numpy as np


def bernoulli(x):
    """x/(exp(x) - 1), and 1 at the removable singularity x = 0; a float for
    a 0-d input.  expm1 keeps the quotient within an ulp for tiny |x|, so
    no series branch is needed; 1/bernoulli is the stable expm1(x)/x."""
    x = np.asarray(x, dtype=float)
    out = np.divide(x, np.expm1(x), out=np.ones_like(x), where=x != 0.0)
    return float(out) if out.ndim == 0 else out


def sg_flux(E, D: float, dx: float, rho_left, rho_right):
    """Exponential-fitting interface flux; reduces to D*(rho_L - rho_R)/dx
    at E = 0 and vanishes on the discrete Boltzmann profile
    rho_R = exp(E dx/D) rho_L."""
    if D <= 0.0:
        raise ValueError("sg_flux requires D > 0")
    u = np.asarray(E, dtype=float) * dx / D
    return (D / dx) * (bernoulli(-u) * rho_left - bernoulli(u) * rho_right)


def sg_step(rho: np.ndarray, D: float, E_half, dt: float, dx: float) -> np.ndarray:
    """One conservative step on a periodic grid; E_half[j] (a scalar for a
    uniform drift) and F[j] sit at x_{j-1/2}."""
    if dt <= 0.0 or dx <= 0.0:
        raise ValueError("dt and dx must be positive")
    F = sg_flux(E_half, D, dx, np.roll(rho, 1), rho)
    return rho + dt / dx * (F - np.roll(F, -1))
