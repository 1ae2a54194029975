"""Case eigenvalues/eigenfunctions and Fokker-Planck Hermite eigenmodes.

The integral-collision models (radiative transfer, chemotaxis) have discrete
eigenvalues given by the poles-and-roots structure of

    g(lambda) = sum_{k=-K..K} w_k / (T(v_k)/v_k - lambda) = 0,

with one root strictly between consecutive poles T(v_k)/v_k.  Roots are
plain arrays: :func:`_all_roots_multi` solves all 2K-1 of them for a batch
of rates, :func:`dispersion_roots` keeps the K-1 positive ones of the even
rate T = 1, and :func:`first_order_shifts` gives their O(eps) shifts under
the chemotaxis rate 1 + eps*phi.  The Fokker-Planck model instead uses
Hermite-type modes

    psi_{+-l}(v) = exp(-mu v) H_l(vt) exp(-vt^2),
    mu_{+-l} = (-eps*E +- sqrt((eps*E)^2 + 4*kappa*l)) / (2*kappa),
    vt = (v - 2*mu*kappa - eps*E) / sqrt(2*kappa).

Everything here is a pure function of its inputs.
"""

from typing import TYPE_CHECKING

import numpy as np

from .errors import BracketFailure

if TYPE_CHECKING:  # pragma: no cover
    from .quadrature import VelocityQuadrature

_MAX_HERMITE = 64
_ROOT_RTOL = 1e-14
_ROOT_MAXIT = 200


def hermite_poly(ell, x):
    """Physicists' Hermite polynomial H_ell via H_{l+1} = 2x H_l - 2l H_{l-1}.

    An integer array ``ell`` broadcasts against x: one recurrence runs up to
    the largest order and every element keeps the order it asks for, so it
    sees the operations of its own scalar recurrence."""
    ell = np.asarray(ell)
    orders = ell.ravel().tolist() or [0]  # Python ints: cheap for a scalar ell
    if min(orders) < 0 or max(orders) > _MAX_HERMITE:
        raise ValueError(f"ell must be in [0, {_MAX_HERMITE}], got {ell}")
    x = np.asarray(x, dtype=float)
    h = out = np.ones_like(x)
    for n in range(max(orders)):  # h becomes H_{n+1}
        hm, h = h, (2.0 * x * h - 2.0 * n * hm if n else 2.0 * x)
        out = np.where(ell == n + 1, h, out) if ell.ndim else h
    return out if out.ndim else float(out)


def _secular(p, w2, lam):
    """g and g' at lam (M, 2K-1) for the poles p (M, 2K) and weights w2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / (p[:, None, :] - lam[..., None])
    return np.einsum("...k,k", r, w2), np.einsum("...k,k", r * r, w2)


def _all_roots_multi(nodes, weights, T_pos, T_neg, guess=None):
    """All 2K-1 dispersion roots, one per open pole interval, for a batch
    of rate samples.  T_pos, T_neg have shape (M, K); result (M, 2K-1).

    g' = sum w/(p - lambda)^2 > 0, so each interval brackets one root.  All
    roots take Newton steps in lockstep from ``guess`` (M, 2K-1), or from
    the interval midpoint when it is None or outside the bracket; a step
    that would leave the bracket, or fails to halve the one before it,
    becomes a bisection step.  A first pass whose every Newton step is
    within tolerance and inside its bracket returns those steps: that is
    the state in which the loop would stop after one pass, so the roots
    are the loop's, without its bookkeeping.
    """
    T_pos = np.atleast_2d(np.asarray(T_pos, dtype=float))
    T_neg = np.atleast_2d(np.asarray(T_neg, dtype=float))
    p = np.concatenate([T_pos / nodes, -T_neg / nodes], axis=1)  # paired with w2
    w2 = np.concatenate([weights, weights])
    poles = np.sort(p, axis=1)
    below, above = poles[:, :-1], poles[:, 1:]
    width = above - below
    lo = below + 1e-13 * width
    hi = above - 1e-13 * width
    # g runs from -inf to +inf across each interval; offsets lost to
    # rounding mean near-coincident poles
    if not ((lo > below).all() and (hi < above).all() and (lo < hi).all()):
        raise BracketFailure("poles too close to bracket every root; check T values")
    x = 0.5 * (lo + hi)
    if guess is not None:
        x = np.where((guess > lo) & (guess < hi), guess, x)
    step = hi - lo
    done = np.zeros(x.shape, dtype=bool)  # frozen, so a root does not depend on its batch
    for it in range(_ROOT_MAXIT):
        gx, dg = _secular(p, w2, x)
        low = gx < 0.0
        lo = np.where(low, x, lo)
        hi = np.where(low, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - gx / dg
        size = np.abs(newton - x)
        tol = _ROOT_RTOL * (1.0 + np.abs(x))
        inside, converged = (newton >= lo) & (newton <= hi), size <= tol
        if it == 0 and np.all(inside & converged):
            return newton
        # converged roots keep their (rounding-level) Newton steps
        ok = inside & ((size <= 0.5 * np.abs(step)) | converged)
        new = np.where(done, x, np.where(ok, newton, 0.5 * (lo + hi)))
        step, x = new - x, new
        done |= np.abs(step) <= tol
        if np.all(done):
            break
    return x


def dispersion_roots(q: "VelocityQuadrature") -> np.ndarray:
    """The K-1 positive roots of the even-rate (T = 1) dispersion relation
    on q's nodes, ascending; root l lies between the poles 1/v_{K-l+1} and
    1/v_{K-l}.  The middle root is identically zero and omitted."""
    ones = np.ones(q.K)
    return _all_roots_multi(q.nodes, q.weights, ones, ones)[0, q.K :]


def shift_weights(q: "VelocityQuadrature", lam0):
    """The parts of :func:`first_order_shifts` that see no field, once per
    velocity set: w v, the (K-1, K) weights w v (1/(1 - lambda^0 v)^2 +
    1/(1 + lambda^0 v)^2) of S_phi, and S_v (K-1,)."""
    v, w = q.nodes, q.weights
    wv = w * v
    Lm, Lp = 1 - np.outer(lam0, v), 1 + np.outer(lam0, v)
    # full +-K sums; the k -> -k half folds with phi odd
    Sv = np.sum(wv / Lm**2, axis=1) - np.sum(wv / Lp**2, axis=1)
    return wv, wv * (1.0 / Lm**2 + 1.0 / Lp**2), Sv


def first_order_shifts(q: "VelocityQuadrature", lam0, phip, weights):
    """First-order eigenvalue shifts for the tumbling rate
    T_eps = 1 + eps*phi(v*gradS), one row per slope.

    ``lam0`` holds the even-rate roots of :func:`dispersion_roots` and
    phip[i, k] = phi(v_k gradS_i), shape (M, K).  The double zero
    eigenvalue splits at first order with

        lambda0^1 = sum_{k>0} w_k v_k phi(v_k gradS) / D,   D = sum_{k>0} w_k v_k^2

    and the nonzero branches shift by the quotient

        lambda_l^1 = lambda_l^0 * S_phi(l) / S_v(l),

    with S_v, S_phi the +-K sums of w v/(1 -+ lambda^0 v)^2 against 1 and
    phi respectively.  ``weights`` are :func:`shift_weights` of (q, lam0),
    which a model builds once.  Returns lambda0^1 (M,) and lambda_l^1
    (M, K-1).
    """
    wv, W, Sv = weights
    # einsum, unlike BLAS, gives every row the same result in any batch
    Sphi = np.einsum("mk,lk->ml", phip, W)
    return np.einsum("mk,k->m", phip, wv) / q.second_moment, lam0 * Sphi / Sv


# ---------------------------------------------------------------------------
# Vlasov-Fokker-Planck Hermite modes
# ---------------------------------------------------------------------------


def vfp_mu(ell, epsilon: float, E, kappa: float, sign):
    """Spatial decay rate mu_{+-ell} of the ell-th Fokker-Planck mode; ell,
    E and sign broadcast."""
    return (-epsilon * E + sign * np.sqrt((epsilon * E) ** 2 + 4.0 * kappa * ell)) / (
        2.0 * kappa
    )


def vfp_psi(ell, sign, v, epsilon: float, E, kappa: float):
    """Finite-eps mode psi_{+-ell}(v) for ell >= 1; integer arrays ell and
    sign broadcast against v and E, every element evaluated as alone."""
    if np.any(np.asarray(ell) < 1):
        raise ValueError("vfp_psi handles ell >= 1; zero modes are E-branch specific")
    v = np.asarray(v, dtype=float)
    mu = vfp_mu(ell, epsilon, E, kappa, sign)
    vt = (v - 2.0 * mu * kappa - epsilon * E) / np.sqrt(2.0 * kappa)
    return np.exp(-mu * v) * hermite_poly(ell, vt) * np.exp(-(vt**2))


def vfp_psi0(ell: int, v, kappa: float):
    """eps -> 0 limit of the ell-th mode; independent of the field E.

    For ell = 0 this is the Maxwellian exp(-v^2/2kappa); the ell >= 1 limits
    obey psi0_{-ell}(-v) = (-1)^ell psi0_ell(v).
    """
    v = np.asarray(v, dtype=float)
    if ell == 0:
        return np.exp(-(v**2) / (2.0 * kappa))
    root = np.sqrt(ell / kappa)
    return hermite_poly(ell, (v - 2.0 * np.sqrt(ell * kappa)) / np.sqrt(2.0 * kappa)) * np.exp(
        -(v**2) / (2.0 * kappa) + v * root - 2.0 * ell
    )
