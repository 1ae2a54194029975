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

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DriftDiffusionParams:
    D: float
    E_half: np.ndarray | float  # drift at x_{j-1/2}; a scalar for a uniform one
    dt: float
    dx: float

    def __post_init__(self):
        if self.D < 0.0:
            raise ValueError("diffusion coefficient must be nonnegative")
        if self.dt <= 0.0 or self.dx <= 0.0:
            raise ValueError("dt and dx must be positive")


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


def sg_step(rho: np.ndarray, params: DriftDiffusionParams) -> np.ndarray:
    """One conservative step on a periodic grid; F[j] sits at x_{j-1/2}."""
    F = sg_flux(params.E_half, params.D, params.dx, np.roll(rho, 1), rho)
    return rho + params.dt / params.dx * (F - np.roll(F, -1))
