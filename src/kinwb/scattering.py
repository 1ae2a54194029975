"""Interface scattering matrices S^eps and their decomposition S^0 + eps*B^eps.

For each model the stationary two-point problem on (0, dx) is solved in a
truncated eigenmode basis: incoming traces (f_{j-1}(+V), f_j(-V)) map to
outgoing traces (fbar(dx, +V), fbar(0, -V)) through S^eps = Ntilde N^{-1},
where the columns of N (Ntilde) evaluate each mode at the incoming
(outgoing) trace points.  Damped modes are anchored at their own interface
so every exponential factor lies in [0, 1]; underflow of exp(-lambda dx/eps)
to exact zero is the correct limit and is kept.

There are two assemblies.  The integral-collision one
(:func:`chemo_interfaces`) serves chemotaxis and radiative transfer, which
is chemotaxis at zero slope: its middle root is then zero and its zero mode,
normalised by -eps/lambda0, is the secular mode x - eps*v.  That
normalisation keeps the mode matrix and the limit B^0 finite through zero
slope, so no interface needs a separate flat-slope formula.  Fokker-Planck
(:func:`vfp_interfaces`) has Hermite modes of its own.

The mode matrices of M interfaces fill two stacks N and Ntilde, stored
(2K, 2K, M) with the interface axis last and C-contiguous, so that every
elementwise formula and product runs its inner loop over the M interfaces;
:class:`InterfaceStack` shows them as (M, 2K, 2K) views.  A chemotaxis step
reads them only through the outgoing traces B^eps inc, one batched solve
with N per step on (2K, M) traces; S^eps, B^eps and B^0 are built, as
(M, 2K, 2K) stacks, when they are read.  Every stack is guarded at
construction by the exact 1-norm condition number ||N||_1 ||N^{-1}||_1 of
each interface.  The integral-collision assembly first tries a certificate
from Y, the exact inverse of the eps -> 0 mode matrix, which is built from
the shared closure blocks and never formed, and inverts N only when Y does
not certify it.  A single interface is a stack of one: its S-matrix is
``S[0]``.

A stack may hold P independent problems: an array ``epsilon`` of P values,
and M/P consecutive interfaces per problem, each member carrying its
problem's eps.  Whatever a lone eps decides is then decided per problem,
exactly as alone: the rate check, the certificate (else the exact inverse),
and the B0 switch; and each member sees the operations it would see in its
problem's own stack.

The leading decomposition term is the anti-diagonal block S0 = I - zeta*gamma
of the limit closure; it does not see the field, so one S0 serves every
interface.  Above the switch threshold eps >= 1e-8*dx the correction is
computed as B^eps = (S^eps - S^0)/eps; below it the analytic limit B^0 is
substituted to avoid catastrophic cancellation.  B^0 is built eagerly below
the switch, and above it only when :attr:`InterfaceStack.B0` is read.  It
is one closed form for every model (:func:`_limit_B0`): the Il'in /
Scharfetter-Gummel flux with the model's own D and drift, acting on the
Maxwellian traces, plus a micro block on the damped ones.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import IllConditioned, NonPositiveRate
from .macrolimit import bernoulli
from .spectral import _all_roots_multi, first_order_shifts, vfp_mu, vfp_psi, vfp_psi0

EPS_SWITCH_FACTOR = 1e-8
_COND_LIMIT = 1e12
_TINY, _UNIT = np.finfo(float).tiny, np.finfo(float).eps  # read once, not per step


@dataclass(frozen=True, eq=False)
class ClosureCoefficients:
    """The matrices inverting the limit eigenbasis at the positive nodes.

    gamma recovers the K-1 damped-mode coefficients of a sampled kinetic
    density, beta its Maxwellian coefficient, and zeta converts damped-mode
    coefficients back to an odd-in-v density.  They satisfy
    gamma @ basis = I, gamma @ maxwellian = 0, beta @ basis = 0,
    beta @ maxwellian = 1.  What is derived from them sees no field either,
    so a model builds it once: S0 and anti_S0 serve every S-matrix, G and
    its column sums every certificate of :func:`_cond_bound`.
    """

    zeta: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    S0: np.ndarray = field(init=False)  # the leading scattering block I - zeta*gamma
    anti_S0: np.ndarray = field(init=False)  # [[0, S0], [S0, 0]], every S at eps = 0
    G: np.ndarray = field(init=False)  # [gamma; beta], (K, K)
    abs_G_sums: np.ndarray = field(init=False)  # |G|_j, the column sums of |G|

    def __post_init__(self):
        S0 = np.eye(self.zeta.shape[0]) - self.zeta @ self.gamma
        Z = np.zeros_like(S0)
        G = np.vstack([self.gamma, self.beta])
        object.__setattr__(self, "S0", S0)
        object.__setattr__(self, "anti_S0", np.block([[Z, S0], [S0, Z]]))
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "abs_G_sums", np.abs(G).sum(axis=0))


@dataclass(frozen=True, eq=False)
class InterfaceStack:
    """Scattering data of M interfaces: the mode matrices N and Nt of
    S = Nt N^{-1} = [[0, S0], [S0, 0]] + eps*B, with S0 the closure's
    leading block.  N and Nt read as (M, 2K, 2K); each is the view of a
    C-contiguous (2K, 2K, M) array, ``N.transpose(1, 2, 0)``, which
    :meth:`outgoing` contracts.  B0 is the eps -> 0 limit of B, and B
    itself below the switch, where it is built with the stack.  S, B and,
    above the switch, B0 are (M, 2K, 2K) arrays built on first read; a step
    that reads only :meth:`outgoing` builds none of them.  ``epsilon`` is
    one eps, or the (P,) eps of P problems of M/P consecutive members each;
    ``below_switch`` and ``certified`` are then per member, else one bool.
    ``inverse`` is N^{-1} of the members the condition guard had to invert,
    those of uncertified problems, and 0 on certified members; None when
    the certificate spared every problem.  :attr:`S` inverts the certified
    members itself when it is read."""

    epsilon: float | np.ndarray
    N: np.ndarray
    Nt: np.ndarray
    anti_S0: np.ndarray
    below_switch: bool | np.ndarray
    certified: bool | np.ndarray
    build_B0: Callable[[], np.ndarray] = field(repr=False)
    inverse: np.ndarray | None = field(repr=False)

    def __post_init__(self):
        if _any(self.below_switch):
            self.B0  # built with the stack: below the switch every step reads it

    @cached_property
    def B0(self) -> np.ndarray:
        return self.build_B0()

    @cached_property
    def S(self) -> np.ndarray:
        certified, inverse = self.certified, self.inverse
        if inverse is None:
            inverse = _inverse(self.N)
        elif _any(certified):  # inv works matrix by matrix: each member has its bits alone
            inverse = inverse.copy()
            inverse[certified] = _inverse(self.N[certified], "certified interface {i}: mode matrix")
        # a contiguous Nt: a stacked matmul on the strided view is not BLAS's
        return np.ascontiguousarray(self.Nt) @ inverse

    @cached_property
    def B(self) -> np.ndarray:
        below = self.below_switch
        if _all(below):
            return self.B0
        B = (self.S - self.anti_S0) / np.reshape(_members(self.epsilon, len(self.N)), (-1, 1, 1))
        return np.where(below[:, None, None], self.B0, B) if _any(below) else B

    def outgoing(self, inc: np.ndarray) -> np.ndarray:
        """B inc of every interface for incoming traces ``inc`` (2K, M),
        interface i in column i, as (2K, M).  Above the switch it is
        (Nt N^{-1} inc - anti_S0 inc)/eps, with one solve per interface
        unless the guard's inverse is at hand; anti_S0 inc is one product
        per problem, which sums as the problem's own product does."""
        below = self.below_switch
        if _all(below):
            return np.einsum("iab,bi->ai", self.B0, inc)
        n, M = inc.shape
        incT = inc.T[..., None]
        if self.inverse is None:
            c = np.linalg.solve(self.N, incT)
        else:
            c = self.inverse @ incT
            if _any(self.certified):  # as alone, a certified problem solves
                c[self.certified] = np.linalg.solve(self.N[self.certified], incT[self.certified])
        Ntc = np.einsum("abi,bi->ai", self.Nt.transpose(1, 2, 0), np.ascontiguousarray(c[..., 0].T))
        if isinstance(self.epsilon, np.ndarray):
            P = self.epsilon.size
            Sinc = np.matmul(self.anti_S0, inc.reshape(n, P, -1).transpose(1, 0, 2))
            Sinc = Sinc.transpose(1, 0, 2).reshape(n, M)
        else:
            Sinc = self.anti_S0 @ inc
        out = (Ntc - Sinc) / _members(self.epsilon, M)
        return np.where(below, np.einsum("iab,bi->ai", self.B0, inc), out) if _any(below) else out


def _members(epsilon, M: int):
    """What each of M interfaces reads of ``epsilon``: one value itself, or
    the value of each of P problems, an array, over its M/P consecutive
    members."""
    return np.repeat(epsilon, M // epsilon.size) if isinstance(epsilon, np.ndarray) else epsilon


def _any(flags) -> bool:
    """Whether a member's flag is set: one problem's bool, or per member."""
    return flags if type(flags) is bool else flags.any()


def _all(flags) -> bool:
    """Whether every member's flag is set: one problem's bool, or per member."""
    return flags if type(flags) is bool else flags.all()


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
        if not np.all(np.isfinite(A[i])):
            raise IllConditioned(f"{what.format(i=i)} has entries that are not finite")
        raise IllConditioned(
            f"{what.format(i=i)} 1-norm condition number {cond[i]:.3e} exceeds 1e12"
        )
    return X


def _cond_bound(A: np.ndarray, closure, r: np.ndarray) -> np.ndarray:
    """Upper bounds of cond_1 of the chemotaxis mode matrices A (n, n, M),
    interface axis last, n = 2K, from Y, the exact inverse of their eps -> 0
    limit: with rho = ||I - Y A||_1 < 1, ||A^{-1}||_1 <= ||Y||_1/(1 - rho).
    A member with rho > 1/2, or with a non-finite bound, gets inf.

    In the column groups of :func:`_assemble` that limit is [[P, 1, 0, 0],
    [0, 1, P, -r]], P = 1/(1 - v lambda0), r = -dx/bernoulli(-lambda0^1 dx),
    and Y's rows are [gamma, 0], [beta, 0], [0, gamma], [beta/r, -beta/r].
    Y is not formed.  With G = [gamma; beta] (K, K) and A_top, A_bot the
    first and last K rows of A, Y A is G A_top in its first K rows, the
    first K-1 rows of G A_bot below them, and (beta A_top - beta A_bot)/r
    in the last: two GEMMs (K, K)(K, nM).  ||Y||_1 is the largest column
    sum |G|_j + |beta_j|/|r|, from the first K columns.

    rho is raised by 2n u ||Y||_1 ||A||_1 (u the unit roundoff), more than
    the rounding of Y A.  Each entry of Y A is a sum of the products
    y_j a_j along one row of Y, formed here with at most K + 2 roundings
    (the K-term dot products, the difference, the division by r), so it is
    off by at most gamma_{K+2} sum_j |y_j||a_j|, gamma_m = m u/(1 - m u);
    a column of those sums is at most ||Y||_1 ||A||_1, and K + 2 <= 3K
    < 2n for every K >= 1.  Subtracting I is exact (Sterbenz) wherever
    rho <= 1/2.  Subnormal entries of A, underflowed decay factors, count
    as 0 in the product: that moves the bound by less than its rounding,
    and arithmetic on them is slow."""
    n, M = A.shape[0], A.shape[-1]
    K = n // 2
    beta, G = closure.beta, closure.G
    abs_A = np.abs(A)
    A = A.copy()  # the stack itself keeps its subnormal entries
    np.copyto(A, 0.0, where=abs_A < _TINY)
    E = np.empty((n, n, M))
    with np.errstate(all="ignore"):  # a non-finite input only fails the bound
        np.matmul(G, A[:K].reshape(K, -1), out=E[:K].reshape(K, -1))
        bottom = (G @ A[K:].reshape(K, -1)).reshape(K, n, M)
        E[K:-1] = bottom[:-1]
        E[-1] = (E[K - 1] - bottom[-1]) / r
        E.reshape(n * n, M)[:: n + 1] -= 1.0  # E = Y A - I
        norm_Y = (closure.abs_G_sums[:, None] + np.abs(beta)[:, None] / np.abs(r)).max(axis=0)
        norms = abs_A.sum(axis=0).max(axis=0) * norm_Y
        rho = np.abs(E, out=E).sum(axis=0).max(axis=0) + n * _UNIT * norms
        bound = norms / (1.0 - rho)
    return np.where((rho <= 0.5) & np.isfinite(bound), bound, np.inf)


def _stack(epsilon, dx, closure, N, Nt, build_B0, r=None) -> InterfaceStack:
    """The stack of the mode matrices N, Nt (2K, 2K, M) after the condition
    guard, each problem on its own.  The chemotaxis zero-mode factors r
    certify a problem when :func:`_cond_bound` keeps each of its members
    within the limit; otherwise :func:`_inverse` decides it exactly, and
    names the member that fails."""
    M, problems = N.shape[-1], np.shape(epsilon)
    ok = np.zeros(problems, bool) if r is None else (
        _cond_bound(N, closure, r) <= _COND_LIMIT).reshape(problems + (-1,)).all(axis=-1)
    below = np.less(epsilon, EPS_SWITCH_FACTOR * dx)
    if problems:  # each member carries its problem's flags
        certified, below = _members(ok, M), _members(below, M)
    else:
        certified, below = bool(ok), bool(below)
    N, Nt = N.transpose(2, 0, 1), Nt.transpose(2, 0, 1)
    inverse = None
    if not _any(certified):
        inverse = _inverse(N)
    elif not _all(certified):  # a batch inverts its uncertified problems only
        inverse = np.zeros(N.shape)
        inverse[~certified] = _inverse(N[~certified], "uncertified interface {i}: mode matrix")
    return InterfaceStack(epsilon, N, Nt, closure.anti_S0, below, certified, build_B0, inverse)


def _assemble(M, K, top, bottom) -> np.ndarray:
    """(2K, 2K, M) stack, interface axis last, from two block rows of column
    widths K-1, 1, K-1, 1; a block is (K, K-1, M) or (K, M), or broadcasts
    to it."""
    out = np.empty((2 * K, 2 * K, M))
    cols = (slice(0, K - 1), K - 1, slice(K, 2 * K - 1), 2 * K - 1)
    for rows, blocks in ((slice(0, K), top), (slice(K, 2 * K), bottom)):
        for c, block in zip(cols, blocks):
            out[rows, c] = block
    return out


def _closure(q, plus, minus, what) -> ClosureCoefficients:
    """gamma, beta from inverting [plus | q.maxwellian], the limit modes
    sampled at the positive nodes, and zeta = plus - minus, their odd part;
    ``what`` names the basis in the :class:`IllConditioned` message."""
    X = _inverse(np.column_stack([plus, q.maxwellian])[None], what)[0]
    return ClosureCoefficients(zeta=plus - minus, gamma=X[:-1, :], beta=X[-1, :])


# ---------------------------------------------------------------------------
# radiative transfer and chemotaxis (Othmer-Alt, rate 1 + eps*phi(v dS/dx))
# ---------------------------------------------------------------------------


def rte_closure(q, lam: np.ndarray) -> ClosureCoefficients:
    """gamma, beta from inverting [1/(1 - V (x) lambda) | 1] at the positive
    roots ``lam`` of :func:`dispersion_roots`; zeta = odd part."""
    v = q.nodes
    return _closure(q, 1.0 / (1.0 - np.outer(v, lam)), 1.0 / (1.0 + np.outer(v, lam)), "eigenbasis")


def _chemo_matrices(epsilon, dx, v, phip, roots):
    """Finite-eps mode matrices (2K, 2K, M) of M interfaces from C-contiguous
    phip (K, M) and roots (2K-1, M), interface axis last and innermost; the
    middle-root column is scaled by -eps/lambda0, which makes it the secular
    mode x - eps*v at zero slope.  Blocks are (K, K-1, M): velocity, root,
    interface."""
    K, M = phip.shape
    Tp, Tn = 1.0 + epsilon * phip, 1.0 - epsilon * phip
    inv_Tp, inv_Tn = 1.0 / Tp, 1.0 / Tn
    lam_m = roots[: K - 1][::-1]  # entry l pairs with -lam_p[l]
    lam0 = roots[K - 1]
    lam_p = roots[K:]
    Elp = np.exp(-lam_p * dx / epsilon)
    Elm = np.exp(lam_m * dx / epsilon)
    vlp, vlm = v[:, None, None] * lam_p, v[:, None, None] * lam_m
    Pp, PpN = 1.0 / (Tp[:, None] - vlp), 1.0 / (Tn[:, None] + vlp)
    Pm, PmN = 1.0 / (Tp[:, None] - vlm), 1.0 / (Tn[:, None] + vlm)
    v = v[:, None]  # the zero-mode columns are (K, M)

    B_dx = bernoulli(-lam0 * dx / epsilon)  # shared by the two x = dx columns
    # the zero mode (-eps/lam0)[exp(-lam0 x/eps)/(T - lam0 vv) - 1/T], stable at
    # lam0 -> 0, at x = 0 and x = dx: T = Tp, vv = v on the +v rows and T = Tn,
    # vv = -v on the -v rows; at x = 0 the term T x/bernoulli(0) is exactly 0
    den_p, den_n = Tp * (Tp - lam0 * v), Tn * (Tn - lam0 * -v)
    zero_p = ((0.0 - epsilon * v) / den_p, (Tp * dx / B_dx - epsilon * v) / den_p)
    zero_n = ((0.0 - epsilon * -v) / den_n, (Tn * dx / B_dx - epsilon * -v) / den_n)

    N = _assemble(M, K, (Pp, inv_Tp, Pm * Elm, zero_p[0]), (PpN * Elp, inv_Tn, PmN, zero_n[1]))
    Nt = _assemble(M, K, (Pp * Elp, inv_Tp, Pm, zero_p[1]), (PpN, inv_Tn, PmN * Elm, zero_n[0]))
    return N, Nt


def _limit_B0(model, dx, u, Z) -> np.ndarray:
    """B^0 (M, 2K, 2K), the eps -> 0 limit of (S^eps - S^0)/eps of every
    model: [[b+ C, Z - b- C], [-Z - b+ C, b- C]], C = (I + S0)(v m) beta^T,
    m the Maxwellian, b+- = B(-+u)/dx, B the Bernoulli function.  On the
    Maxwellian coefficient beta f the diagonal blocks are the Il'in flux
    :func:`macrolimit.sg_flux` with the model's D and drift, u = drift dx/D
    (M,); the micro block Z (M, K, K) carries no flux of it, (w v)^T Z m = 0."""
    q, closure = model.q, model.closure
    u = u[:, None, None]
    b_plus, b_minus = bernoulli(-u) / dx, bernoulli(u) / dx
    C = np.outer((np.eye(q.K) + closure.S0) @ (q.nodes * q.maxwellian), closure.beta)
    return np.block([[b_plus * C, Z - b_minus * C], [-Z - b_plus * C, b_minus * C]])


def _chemo_micro(model, phip, lam1, lam01) -> np.ndarray:
    """Chemotaxis' micro block Z (M, K, K) from phip (K, M) and the shifts
    lambda0^1 (M,), lambda^1 (M, K-1) of :func:`first_order_shifts`: Z =
    -[sum_l (DP_l p~_l^2 + S0 DP_l p_l^2) gamma_l^T + (I + S0)(phi - v lambda0^1) beta^T],
    p_l, p~_l = 1/(1 -+ v lambda_l^0), DP_l = phi - v lambda_l^1; 0 at phi = 0."""
    v, lam0, S0 = model.q.nodes, model.base, model.closure.S0
    DP = (phip[:, None] - v[:, None, None] * lam1.T).transpose(2, 0, 1)  # (M, K, K-1)
    p2, pt2 = 1.0 / (1.0 - np.outer(v, lam0)) ** 2, 1.0 / (1.0 + np.outer(v, lam0)) ** 2
    zero = (np.eye(len(v)) + S0) @ (phip - v[:, None] * lam01)  # the zero mode's, (K, M)
    return -((DP * pt2 + S0 @ (DP * p2)) @ model.closure.gamma
             + zero.T[:, :, None] * model.closure.beta)


def chemo_interfaces(epsilon, dx: float, model, grads, roots=None) -> InterfaceStack:
    """Chemotaxis decompositions for a stack of interface slopes.

    ``model`` (a :class:`models.Rte` or :class:`models.Chemo`) holds what
    sees no field, built once: the velocity set ``q``, the response ``phi``,
    the even-rate roots ``base`` of :func:`dispersion_roots`, the limit
    ``closure`` and the :func:`shift_weights` ``shifts``.  The finite-eps
    dispersion roots of all interfaces are solved together, each seeded
    from the first-order expansion lambda0 + eps*lambda1 (the negative
    branch is the mirror image under phi -> -phi), unless ``roots``
    (M, 2K-1) are given, as radiative transfer's are.  The mode matrices
    and B0 read C-contiguous (K, M) and (2K-1, M) copies of phi and the
    roots; radiative transfer is this assembly at slope 0, phi = 0.  An
    array ``epsilon`` of P values makes the slopes P problems of M/P
    consecutive interfaces (see :class:`InterfaceStack`).
    """
    if (np.asarray(epsilon) <= 0.0).any() or dx <= 0.0:
        raise ValueError("epsilon and dx must be positive")
    q, lam0, closure = model.q, model.base, model.closure
    v = q.nodes
    grads = np.ravel(np.asarray(grads, dtype=float))
    members = _members(epsilon, len(grads))
    eps = np.asarray(members)[..., None]  # against (M, K) rows
    phip = np.asarray(model.phi(np.outer(grads, v)), dtype=float)
    # the decision of 1 - eps*|phi| <= 0: rounding is monotone, fl(1 - a) <= 0 iff a >= 1
    if (eps * np.abs(phip) >= 1.0).any():
        raise NonPositiveRate(
            f"1 + eps*phi(v*gradS) must be positive; min margin "
            f"{np.min(1.0 - eps*np.abs(phip)):.3e}"
        )
    lam01, lam1 = first_order_shifts(q, lam0, phip, model.shifts)
    if roots is None:
        guess = np.hstack([-(lam0 - eps * lam1)[:, ::-1], eps * lam01[:, None], lam0 + eps * lam1])
        roots = _all_roots_multi(v, q.weights, 1.0 + eps * phip, 1.0 - eps * phip, guess)
    phip, roots = np.ascontiguousarray(phip.T), np.ascontiguousarray(roots.T)
    N, Nt = _chemo_matrices(members, dx, v, phip, roots)
    r = -dx / bernoulli(-lam01 * dx)
    return _stack(
        epsilon, dx, closure, N, Nt,
        lambda: _limit_B0(model, dx, -lam01 * dx, _chemo_micro(model, phip, lam1, lam01)), r,
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
    v, kappa = q.nodes, q.kappa
    plus = np.column_stack([vfp_psi0(l, v, kappa) for l in range(q.K)])
    minus = np.column_stack([vfp_psi0(l, -v, kappa) for l in range(q.K)])
    return _closure(q, plus[:, 1:], minus[:, 1:], "mode basis")


def _vfp_zero_columns(x, v, epsilon, E, kappa):
    """The two zero-eigenvalue modes in a basis uniform in sign(E).

    psi_H is the space-homogeneous shifted Maxwellian; psi_D is the
    regularized drift combination (kappa/E)(psi_H - c*Psi_G) which tends to
    the secular mode (eps*v - x)*exp(-v^2/2kappa) as E -> 0.  E broadcasts
    against v, so M fields against a column (K, 1) of velocities give
    (K, M) values; psi_H does not see x, and psi_D broadcasts x against
    both.
    """
    m = vfp_psi0(0, v, kappa)
    psi_H = np.exp(-((v - epsilon * E) ** 2) / (2.0 * kappa))
    z = epsilon * v - x
    psi_D = (
        m
        * np.exp((2.0 * x - epsilon * epsilon * E) * E / (2.0 * kappa))
        * z
        / bernoulli(z * E / kappa)
    )
    return psi_H, psi_D


def _vfp_matrices(epsilon, dx, v, E, kappa):
    """Mode matrices (2K, 2K, M) of M interfaces with fields E (M,), column
    groups [psi_+, psi_H, psi_-, psi_D].

    One broadcast pass evaluates every damped family l = 1..K-1 of both
    signs at +v and -v, on axes (sign, side, velocity, family, interface),
    with one Hermite recurrence up to order K-1; the decay factors over the
    cell take (sign, family, interface), and the zero modes are evaluated
    once on (x, side) = ({0, dx}, {+v, -v}).  Every element sees the
    operations of :func:`vfp_psi` and :func:`vfp_mu` on its own (l, sign)."""
    M, K = len(E), len(v)
    ell = np.arange(1, K)[:, None]  # (family, interface)
    sign = np.array([1, -1])[:, None, None]  # (sign, family, interface)
    sides = np.stack([v, -v])[:, :, None]  # (side, velocity, interface)
    (pp, pn), (mp, mn) = vfp_psi(ell, sign[:, None, None], sides[..., None], epsilon, E, kappa)
    ep, em = np.exp(-sign * vfp_mu(ell, epsilon, E, kappa, sign) * dx / epsilon)
    x = np.array([0.0, dx])[:, None, None, None]  # (x, side, velocity, interface)
    (hp, hn), ((dp0, dn0), (dp1, dn1)) = _vfp_zero_columns(x, sides, epsilon, E, kappa)
    N = _assemble(M, K, (pp, hp, mp * em, dp0), (pn * ep, hn, mn, dn1))
    Nt = _assemble(M, K, (pp * ep, hp, mp, dp1), (pn, hn, mn * em, dn0))
    return N, Nt


def _vfp_micro(model, E) -> np.ndarray:
    """The micro block Z (M, K, K) of Fokker-Planck in the fields E (M,):
    (E/2 kappa) sum_l (v psi0_l(-v) + S0 (v psi0_l(v))) gamma_l^T."""
    v, kappa, closure = model.q.nodes, model.q.kappa, model.closure
    Y = np.zeros((len(v), len(v)))
    for l in range(1, len(v)):
        col = v * vfp_psi0(l, -v, kappa) + closure.S0 @ (v * vfp_psi0(l, v, kappa))
        Y += np.outer(col, closure.gamma[l - 1])
    return (E / (2.0 * kappa))[:, None, None] * Y


def vfp_interfaces(epsilon, dx: float, model) -> InterfaceStack:
    """Fokker-Planck decompositions of the interfaces of a :class:`models.Vfp`,
    which holds the velocity set ``q`` (and its kappa), the interface
    fields ``E_half`` and the E-independent ``closure``, whose leading
    block I - zeta*gamma every interface shares.  An array ``epsilon`` of P
    values stacks P problems, each on all the interfaces.

    The zero-mode pair is assembled in the regularized basis of
    :func:`_vfp_zero_columns`, which handles both signs of E and the
    degenerate E = 0 case in one formula.
    """
    if (np.asarray(epsilon) <= 0.0).any() or dx <= 0.0:
        raise ValueError("epsilon and dx must be positive")
    q, closure = model.q, model.closure
    E = np.tile(np.asarray(model.E_half, dtype=float), np.size(epsilon))
    kappa = q.kappa
    N, Nt = _vfp_matrices(_members(epsilon, len(E)), dx, q.nodes, E, kappa)
    return _stack(epsilon, dx, closure, N, Nt,
                  lambda: _limit_B0(model, dx, E * dx / kappa, _vfp_micro(model, E)))
