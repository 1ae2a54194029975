"""Interface scattering matrices S^eps and their decomposition S^0 + eps*B^eps.

For each model the stationary two-point problem on (0, dx) is solved in a
truncated eigenmode basis: incoming traces (f_{j-1}(+V), f_j(-V)) map to
outgoing traces (fbar(dx, +V), fbar(0, -V)) through S^eps = Ntilde N^{-1},
where the columns of N (Ntilde) evaluate each mode at the incoming
(outgoing) trace points.  Damped modes are anchored at their own interface
so every exponential factor lies in [0, 1]; underflow of exp(-lambda dx/eps)
to exact zero is the correct limit and is kept.

The mode matrices of M interfaces fill one (M, 2K, 2K) stack that is
inverted in one call (:class:`InterfaceStack`); the same inverse gives
S^eps = Ntilde N^{-1} and the guard, the exact 1-norm condition number
||N||_1 ||N^{-1}||_1 of every interface.  A single interface is a stack
of one: its S-matrix is ``S[0]``.

The leading decomposition term is the anti-diagonal block S0 = I - zeta*gamma
of the limit closure; it does not see the field, so one S0 serves every
interface.  Above the switch threshold eps >= 1e-8*dx the correction is
computed as B^eps = (S^eps - S^0)/eps; below it the analytic limit B^0 is
substituted to avoid catastrophic cancellation.  B^0 is built only when it
is read: below the switch, or through :attr:`InterfaceStack.B0`.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import IllConditioned, NonPositiveRate
from .macrolimit import bernoulli
from .spectral import (
    _all_roots_multi,
    dispersion_roots,
    first_order_shifts,
    vfp_mu,
    vfp_psi,
    vfp_psi0,
)

EPS_SWITCH_FACTOR = 1e-8
_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ClosureCoefficients:
    """The matrices inverting the limit eigenbasis at the positive nodes.

    gamma recovers the K-1 damped-mode coefficients of a sampled kinetic
    density, beta its Maxwellian coefficient, and zeta converts damped-mode
    coefficients back to an odd-in-v density.  They satisfy
    gamma @ basis = I, gamma @ maxwellian = 0, beta @ basis = 0,
    beta @ maxwellian = 1.
    """

    zeta: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    S0: np.ndarray = field(init=False)  # the leading scattering block I - zeta*gamma
    anti_S0: np.ndarray = field(init=False)  # [[0, S0], [S0, 0]], every S at eps = 0

    def __post_init__(self):
        S0 = np.eye(self.zeta.shape[0]) - self.zeta @ self.gamma
        Z = np.zeros_like(S0)
        object.__setattr__(self, "S0", S0)
        object.__setattr__(self, "anti_S0", np.block([[Z, S0], [S0, Z]]))


@dataclass(frozen=True, eq=False)
class InterfaceStack:
    """S-matrices S = [[0, S0], [S0, 0]] + eps*B of M interfaces: S, B and
    B0 have shape (M, 2K, 2K) and share the leading block S0 of shape
    (K, K).  B0 is the eps -> 0 limit of B, and B itself below the switch;
    it is built by ``build_B0`` on first read, so above the switch a step
    never builds it."""

    S0: np.ndarray
    S: np.ndarray
    B: np.ndarray
    build_B0: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def B0(self) -> np.ndarray:
        return self.build_B0()


def _inverse(A: np.ndarray, what: str = "interface {i}: mode matrix") -> np.ndarray:
    """Inverses of a stack (M, n, n), guarded by the exact 1-norm condition
    number ||A||_1 ||A^{-1}||_1 of each member; ``what`` names member i in
    the :class:`IllConditioned` message.

    The columns are scaled to unit 1-norm before inverting, which undoes the
    arbitrary scale of each mode: A^{-1} = D (A D)^{-1}, D = diag(1/d)."""
    d = np.abs(A).sum(axis=-2)  # column 1-norms; a zero column stays zero
    d = np.where(d > 0.0, d, 1.0)
    scaled = A / d[..., None, :]
    try:
        X = np.linalg.inv(scaled) / d[..., :, None]
    except np.linalg.LinAlgError:
        for i, a in enumerate(scaled):
            try:
                np.linalg.inv(a)
            except np.linalg.LinAlgError:
                raise IllConditioned(f"{what.format(i=i)} is singular") from None
        raise
    cond = d.max(axis=-1) * np.abs(X).sum(axis=-2).max(axis=-1)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IllConditioned(
            f"{what.format(i=i)} 1-norm condition number {cond[i]:.3e} exceeds 1e12"
        )
    return X


def _stack(epsilon, dx, closure, N, Nt, build_B0) -> InterfaceStack:
    """The stack with S = Nt N^{-1}; B0 is built here only below the switch."""
    S0 = closure.S0
    S = Nt @ _inverse(N)
    if epsilon >= EPS_SWITCH_FACTOR * dx:
        return InterfaceStack(S0, S, (S - closure.anti_S0) / epsilon, build_B0)
    B0 = build_B0()
    return InterfaceStack(S0, S, B0, lambda: B0)


def _assemble(M, K, top, bottom) -> np.ndarray:
    """(M, 2K, 2K) stack from two block rows of column widths K-1, 1, K-1, 1."""
    out = np.empty((M, 2 * K, 2 * K))
    cols = (slice(0, K - 1), K - 1, slice(K, 2 * K - 1), 2 * K - 1)
    for rows, blocks in ((slice(0, K), top), (slice(K, 2 * K), bottom)):
        for c, block in zip(cols, blocks):
            out[:, rows, c] = block
    return out


def _expm1_over(u: np.ndarray) -> np.ndarray:
    """expm1(u)/u, stable through u = 0."""
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    big = np.abs(u) > 1e-8
    out[big] = np.expm1(u[big]) / u[big]
    out[~big] = 1.0 + 0.5 * u[~big]
    return out


# ---------------------------------------------------------------------------
# radiative transfer
# ---------------------------------------------------------------------------


def rte_closure(q, lam: np.ndarray) -> ClosureCoefficients:
    """gamma, beta from inverting [1/(1 - V (x) lambda) | 1] at the positive
    roots ``lam`` of :func:`dispersion_roots`; zeta = odd part."""
    v = q.nodes
    K = q.K
    Fm = 1.0 / (1.0 - np.outer(v, lam))
    Fp = 1.0 / (1.0 + np.outer(v, lam))
    M01 = np.column_stack([Fm, np.ones(K)])
    X = _inverse(M01[None], "eigenbasis")[0]
    return ClosureCoefficients(zeta=Fm - Fp, gamma=X[:-1, :], beta=X[-1, :])


def _rte_B0(dx, v, closure) -> np.ndarray:
    # (2I - zeta gamma) V beta^T / dx in the +,-,-,+ block pattern
    W = np.eye(len(v)) + closure.S0
    B1 = np.outer(W @ v, closure.beta) / dx
    return np.block([[B1, -B1], [-B1, B1]])


def _rte_matrices(epsilon, dx, v, lam):
    """Mode matrices as a stack of one."""
    K = len(v)
    E = np.exp(-lam * dx / epsilon)
    Fm = 1.0 / (1.0 - np.outer(v, lam))
    Fp = 1.0 / (1.0 + np.outer(v, lam))
    one = np.ones(K)
    M = _assemble(1, K, (Fm, one, Fp * E, -epsilon * v), (Fp * E, one, Fm, dx + epsilon * v))
    Mtil = _assemble(1, K, (Fm * E, one, Fp, dx - epsilon * v), (Fp, one, Fm * E, epsilon * v))
    return M, Mtil


def rte_interfaces(
    epsilon: float, dx: float, q, lam: np.ndarray, closure: ClosureCoefficients
) -> InterfaceStack:
    """Radiative-transfer decomposition as a stack of one.

    The mode basis is the K-1 damped pairs, the constant, and the secular
    mode x - eps*v.  S^eps is interface-independent for this model.
    """
    if epsilon <= 0.0 or dx <= 0.0:
        raise ValueError("epsilon and dx must be positive")
    M, Mtil = _rte_matrices(epsilon, dx, q.nodes, lam)
    return _stack(epsilon, dx, closure, M, Mtil, lambda: _rte_B0(dx, q.nodes, closure)[None])


# ---------------------------------------------------------------------------
# chemotaxis (Othmer-Alt with rate 1 + eps*phi(v dS/dx))
# ---------------------------------------------------------------------------


def _chemo_matrices(epsilon, dx, v, phip, roots):
    """Finite-eps mode matrices of M interfaces, phip (M, K), roots
    (M, 2K-1); the middle-root column is scaled by 1/lambda0 so the
    gradS -> 0 limit stays nondegenerate."""
    M, K = phip.shape
    Tp, Tn = 1.0 + epsilon * phip, 1.0 - epsilon * phip
    lam_m = roots[:, : K - 1][:, ::-1]  # entry l pairs with -lam_p[l]
    lam0 = roots[:, K - 1, None]
    lam_p = roots[:, K:]
    Elp = np.exp(-lam_p * dx / epsilon)[:, None, :]
    Elm = np.exp(lam_m * dx / epsilon)[:, None, :]
    vlp, vlm = v[:, None] * lam_p[:, None, :], v[:, None] * lam_m[:, None, :]
    Pp, PpN = 1.0 / (Tp[:, :, None] - vlp), 1.0 / (Tn[:, :, None] + vlp)
    Pm, PmN = 1.0 / (Tp[:, :, None] - vlm), 1.0 / (Tn[:, :, None] + vlm)

    def zero_col(x, vv, T):
        # (1/lam0)[exp(-lam0 x/eps)/(T - lam0 vv) - 1/T], stable at lam0 -> 0
        return (vv - T * (x / epsilon) * _expm1_over(-lam0 * x / epsilon)) / (
            T * (T - lam0 * vv)
        )

    N = _assemble(M, K, (Pp, 1.0 / Tp, Pm * Elm, zero_col(0.0, v, Tp)),
                  (PpN * Elp, 1.0 / Tn, PmN, zero_col(dx, -v, Tn)))
    Nt = _assemble(M, K, (Pp * Elp, 1.0 / Tp, Pm, zero_col(dx, v, Tp)),
                   (PpN, 1.0 / Tn, PmN * Elm, zero_col(0.0, -v, Tn)))
    return N, Nt


def _chemo_B0(dx, v, phip, lam0, lam1, lam01, closure) -> np.ndarray:
    """Analytic limit of (S^eps - S^0)/eps via term-by-term differentiation.

    B^0 = A'(0) X - A^0 X N'(0) X with X the block inverse of the limit
    mode matrix; stiff entries differentiate to zero, and the second-order
    middle-eigenvalue coefficient drops because gamma annihilates constants.
    Interfaces whose middle-eigenvalue factor exp(-lambda0^1 dx) - 1
    vanishes (|d| < 1e-12) take the radiative-transfer limit.
    """
    M, K = phip.shape
    zeta0, gamma, beta = closure.zeta, closure.gamma, closure.beta
    q0 = np.exp(-lam01 * dx)
    d = q0 - 1.0
    flat = np.abs(d) < 1e-12
    d = np.where(flat, 1.0, d)
    Fm2 = 1.0 / (1.0 - np.outer(v, lam0)) ** 2
    Fp2 = 1.0 / (1.0 + np.outer(v, lam0)) ** 2
    DP = phip[:, :, None] - v[:, None] * lam1[:, None, :]
    z = np.zeros((M, K, K - 1))
    q0, lam01 = q0[:, None], lam01[:, None]
    Np = _assemble(M, K, (-DP * Fm2, -phip, z, lam01 * v),
                   (z, phip, DP * Fm2, q0 * (phip - lam01 * v) - phip))
    Ntp = _assemble(M, K, (z, -phip, -DP * Fp2, q0 * (lam01 * v - phip) + phip),
                    (DP * Fp2, phip, z, -lam01 * v))
    Ap = Ntp - np.roll(Np, K, axis=1)
    A0 = np.zeros((2 * K, 2 * K))
    A0[K:, : K - 1] = -zeta0
    A0[:K, K : 2 * K - 1] = -zeta0
    X = np.zeros((M, 2 * K, 2 * K))
    X[:, : K - 1, :K] = gamma
    X[:, K - 1, :K] = beta
    X[:, K : 2 * K - 1, K:] = gamma
    X[:, 2 * K - 1, :K] = -beta / d[:, None]
    X[:, 2 * K - 1, K:] = beta / d[:, None]
    B0 = Ap @ X - A0 @ X @ Np @ X
    B0[flat] = _rte_B0(dx, v, closure)
    return B0


def chemo_interfaces(
    epsilon: float,
    dx: float,
    q,
    grads,
    phi_response: Callable,
    base: np.ndarray | None = None,
    closure: ClosureCoefficients | None = None,
) -> InterfaceStack:
    """Chemotaxis decompositions for a stack of interface slopes.

    The finite-eps dispersion roots of all interfaces are solved together,
    each seeded from the first-order expansion lambda0 + eps*lambda1 (the
    negative branch is the mirror image under phi -> -phi); the limit
    closure (gradS-independent) is shared.  ``base`` holds the even-rate
    roots of :func:`dispersion_roots`, solved here when None.  The leading
    block I - zeta0*gamma coincides with the radiative-transfer one, so
    interfaces with gradS = 0 reduce to it exactly.
    """
    if epsilon <= 0.0 or dx <= 0.0:
        raise ValueError("epsilon and dx must be positive")
    v = q.nodes
    grads = np.atleast_1d(np.asarray(grads, dtype=float))
    phip = np.asarray(phi_response(np.outer(grads, v)), dtype=float)
    if np.any(1.0 - epsilon * np.abs(phip) <= 0.0):
        raise NonPositiveRate(
            f"1 + eps*phi(v*gradS) must be positive; min margin "
            f"{np.min(1.0 - epsilon*np.abs(phip)):.3e}"
        )
    lam0 = dispersion_roots(q) if base is None else base
    if closure is None:
        closure = rte_closure(q, lam0)
    lam01, lam1 = first_order_shifts(q, lam0, phip)
    guess = np.hstack(
        [-(lam0 - epsilon * lam1)[:, ::-1], epsilon * lam01[:, None], lam0 + epsilon * lam1]
    )
    roots = _all_roots_multi(v, q.weights, 1.0 + epsilon * phip, 1.0 - epsilon * phip, guess)
    N, Nt = _chemo_matrices(epsilon, dx, v, phip, roots)
    return _stack(
        epsilon, dx, closure, N, Nt,
        lambda: _chemo_B0(dx, v, phip, lam0, lam1, lam01, closure),
    )


# ---------------------------------------------------------------------------
# Vlasov-Fokker-Planck
# ---------------------------------------------------------------------------


def vfp_closure(q) -> ClosureCoefficients:
    """Closure from the eps = 0 Hermite modes (E-independent).

    gamma rows satisfy gamma_l @ psi0_k(V) = delta_kl and annihilate the
    Maxwellian; beta detects the Maxwellian coefficient.  For K = 1 the
    damped families are empty and beta = exp(v_1^2/2kappa).
    """
    v = q.nodes
    K = q.K
    kappa = q.kappa
    m = vfp_psi0(0, v, kappa)
    basis = np.column_stack([vfp_psi0(l, v, kappa) for l in range(1, K)] + [m])
    X = _inverse(basis[None], "mode basis")[0]
    zeta = np.empty((K, K - 1))
    for l in range(1, K):
        zeta[:, l - 1] = vfp_psi0(l, v, kappa) - vfp_psi0(l, -v, kappa)
    return ClosureCoefficients(zeta=zeta, gamma=X[:-1, :], beta=X[-1, :])


def _vfp_zero_columns(x, v, epsilon, E, kappa):
    """The two zero-eigenvalue modes in a basis uniform in sign(E).

    psi_H is the space-homogeneous shifted Maxwellian; psi_D is the
    regularized drift combination (kappa/E)(psi_H - c*Psi_G) which tends to
    the secular mode (eps*v - x)*exp(-v^2/2kappa) as E -> 0.  E broadcasts
    against v, so a column (M, 1) of fields gives (M, K) values.
    """
    m = vfp_psi0(0, v, kappa)
    psi_H = np.exp(-((v - epsilon * E) ** 2) / (2.0 * kappa))
    z = epsilon * v - x
    psi_D = (
        m
        * np.exp((2.0 * x - epsilon**2 * E) * E / (2.0 * kappa))
        * z
        * _expm1_over(z * E / kappa)
    )
    return psi_H, psi_D


def _vfp_matrices(epsilon, dx, v, E, kappa):
    """Mode matrices of M interfaces with fields E (M,), column groups
    [psi_+, psi_H, psi_-, psi_D]."""
    M, K = len(E), len(v)
    E = E[:, None]
    # per damped family: values at +v, at -v, and the decay over the cell
    fam = {s: np.empty((3, M, K, K - 1)) for s in (1, -1)}
    for l in range(1, K):
        for s, (at_p, at_n, decay) in fam.items():
            at_p[..., l - 1] = vfp_psi(l, s, v, epsilon, E, kappa)
            at_n[..., l - 1] = vfp_psi(l, s, -v, epsilon, E, kappa)
            decay[..., l - 1] = np.exp(-s * vfp_mu(l, epsilon, E, kappa, s) * dx / epsilon)
    (pp, pn, ep), (mp, mn, em) = fam[1], fam[-1]
    hp, dp = _vfp_zero_columns(0.0, v, epsilon, E, kappa)
    hn, dn = _vfp_zero_columns(dx, -v, epsilon, E, kappa)
    N = _assemble(M, K, (pp, hp, mp * em, dp), (pn * ep, hn, mn, dn))
    hp, dp = _vfp_zero_columns(dx, v, epsilon, E, kappa)
    hn, dn = _vfp_zero_columns(0.0, -v, epsilon, E, kappa)
    Nt = _assemble(M, K, (pp * ep, hp, mp, dp), (pn, hn, mn * em, dn))
    return N, Nt


def _vfp_B0(dx, v, E, kappa, closure) -> np.ndarray:
    """Closed-form limit blocks with Bernoulli-type prefactors.

    The drift factors E/(kappa(1 - exp(-E dx/kappa))) are evaluated through
    the Bernoulli function, so the formula is uniformly valid through E = 0.
    """
    K = len(v)
    gamma, beta = closure.gamma, closure.beta
    m = vfp_psi0(0, v, kappa)
    P = closure.S0
    W = np.eye(K) + P
    u = (E * dx / kappa)[:, None, None]
    b_plus = bernoulli(-u) / dx
    b_minus = bernoulli(u) / dx
    core = np.outer(W @ (v * m), beta)
    Y = np.zeros((K, K))
    for l in range(1, K):
        col = v * vfp_psi0(l, -v, kappa) + P @ (v * vfp_psi0(l, v, kappa))
        Y += np.outer(col, gamma[l - 1])
    G = (E / (2.0 * kappa))[:, None, None]
    return np.block(
        [
            [b_plus * core, G * Y - b_minus * core],
            [-G * Y - b_plus * core, b_minus * core],
        ]
    )


def vfp_interfaces(
    epsilon: float,
    dx: float,
    q,
    E,
    closure: ClosureCoefficients | None = None,
) -> InterfaceStack:
    """Fokker-Planck decompositions for a stack of interface fields E.

    The zero-mode pair is assembled in the regularized basis of
    :func:`_vfp_zero_columns`, which handles both signs of E and the
    degenerate E = 0 case in one formula; the leading block I - zeta*gamma
    is independent of E.  kappa is the quadrature's.
    """
    if epsilon <= 0.0 or dx <= 0.0:
        raise ValueError("epsilon and dx must be positive")
    if closure is None:
        closure = vfp_closure(q)
    E = np.atleast_1d(np.asarray(E, dtype=float))
    kappa = q.kappa
    N, Nt = _vfp_matrices(epsilon, dx, q.nodes, E, kappa)
    return _stack(epsilon, dx, closure, N, Nt, lambda: _vfp_B0(dx, q.nodes, E, kappa, closure))

