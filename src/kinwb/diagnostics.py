"""Executable checks for the structural properties behind the schemes:
stochasticity, kernel/range of the relaxation matrix, discrete
orthogonality, exponential-polynomial root counts, and the well-balanced
fixed point of an interface S-matrix.  Every check is deterministic and
idempotent.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TangentRootWarning
from .kinetic import assemble_cell_matrix, phi_tanh
from .macrolimit import bernoulli
from .models import Chemo, Rte, TwoStream, Vfp
from .quadrature import gauss_symmetric, moment_report, vfp_preset_nodes, vfp_quadrature
from .scattering import _vfp_zero_columns
from .spectral import _all_roots_multi, dispersion_roots, first_order_shifts, vfp_mu, vfp_psi
from .twostream import ts_smatrix

_NULL_TOL = 1e-10  # relative singular-value threshold for rank statements


@dataclass(frozen=True, eq=False)
class StochasticityReport:
    col_sum_deviation: float
    row_sum_deviation: float


@dataclass(frozen=True, eq=False)
class KernelRangeReport:
    null_dim: int
    null_vector: np.ndarray
    range_test_residual: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ExpPolyTerm:
    """One term P(x) * exp(rate*x); coefficients in ascending powers."""

    coeff_poly: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(
            self, "coeff_poly", np.atleast_1d(np.asarray(self.coeff_poly, dtype=float))
        )

    @property
    def degree(self) -> int:
        trimmed = np.trim_zeros(self.coeff_poly, "b")
        return max(len(trimmed) - 1, 0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.polynomial.polynomial.polyval(x, self.coeff_poly) * np.exp(self.rate * x)


def stochasticity_check(S: np.ndarray, q) -> StochasticityReport:
    """Column/row-sum deviations of Gamma S Gamma^{-1}, Gamma = diag(w v, w v).

    Column sums equal to one give discrete mass preservation; row sums the
    L-inf bound.  Two-stream is the K = 1 set v = 1, w = 1.
    """
    wv = q.weights * q.nodes
    gamma = np.concatenate([wv, wv])
    G = gamma[:, None] * S / gamma[None, :]
    return StochasticityReport(
        col_sum_deviation=float(np.max(np.abs(G.sum(axis=0) - 1.0))),
        row_sum_deviation=float(np.max(np.abs(G.sum(axis=1) - 1.0))),
    )


def kernel_range_check(R0: np.ndarray, q) -> KernelRangeReport:
    """Kernel and range structure of the eps = 0 relaxation matrix.

    Passes when the kernel is one-dimensional and parallel to the model
    Maxwellian ``q.maxwellian`` (on both halves), and when the range lies in
    the zero-mass hyperplane: the mass row (w, w) is a left null vector of
    R0, so |(w, w) R0| must vanish relative to (w, w) |R0| (below 1e-9).
    """
    _, s, vh = np.linalg.svd(R0)
    null_dim = int(np.sum(s < _NULL_TOL * s[0]))
    null_vec = vh[-1]
    mw = np.concatenate([q.maxwellian, q.maxwellian])
    cos = abs(float(null_vec @ mw)) / (np.linalg.norm(null_vec) * np.linalg.norm(mw))
    mass = np.concatenate([q.weights, q.weights])
    residual = float(np.max(np.abs(mass @ R0)) / max(np.max(mass @ np.abs(R0)), 1e-300))
    passed = null_dim == 1 and cos > 1.0 - 1e-8 and residual < 1e-9
    return KernelRangeReport(
        null_dim=null_dim, null_vector=null_vec, range_test_residual=residual, passed=passed
    )


def orthogonality_check(q, T_values=None) -> np.ndarray:
    """All discrete orthogonality residuals of the dispersion roots for the
    rate samples T_values = (T(v_1..v_K), T(-v_1..-v_K)), default T = 1:
    the pairwise weighted sums sum_{+-k} w v phi_lam phi_mu T (lambda != mu)
    and the zero-flux sums sum_{k>0} w v (phi_lam(v) - phi_lam(-v)).  An
    even rate's middle root is identically zero and is left out.  The
    zero-flux identities of the vfp Hermite modes are in
    :func:`moment_report`.
    """
    v, w = q.nodes, q.weights
    K = q.K
    if T_values is None:
        T_values = np.ones(2 * K)
    Tp, Tn = np.asarray(T_values[:K], dtype=float), np.asarray(T_values[K:], dtype=float)
    lams = list(_all_roots_multi(v, w, Tp, Tn)[0])
    if np.array_equal(Tp, Tn):
        del lams[K - 1]
    residuals = []
    for lam in lams:
        residuals.append(
            abs(np.sum(w * v * (1.0 / (Tp - lam * v) - 1.0 / (Tn + lam * v))))
        )
    for i, lam in enumerate(lams):
        for mu in lams[i + 1 :]:
            if lam == mu:
                continue
            plus = w * v / ((Tp - lam * v) * (Tp - mu * v)) * Tp
            minus = w * v / ((Tn + lam * v) * (Tn + mu * v)) * Tn
            residuals.append(abs(np.sum(plus) - np.sum(minus)))
    return np.asarray(residuals)


def exp_poly_roots(terms, interval, samples: int = 100_000):
    """Sign-change roots of sum_i P_i(x) exp(mu_i x) on (a, b).

    Returns (roots, bound) with bound the Polya-Szego count
    sum_i (1 + deg P_i) - 1.  Near-zeros without a sign change (candidate
    even-multiplicity roots) are reported through
    :class:`TangentRootWarning` and not counted.
    """
    a, b = interval
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    terms = [t if isinstance(t, ExpPolyTerm) else ExpPolyTerm(*t) for t in terms]

    def f(x):
        x = np.asarray(x, dtype=float)
        return sum(t(x) for t in terms)

    xs = np.linspace(a, b, samples)
    ys = f(xs)
    signs = np.sign(ys)
    roots = []
    for i in np.where(signs[:-1] * signs[1:] < 0)[0]:
        lo, hi = xs[i], xs[i + 1]
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if flo * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
                flo = f(lo)
            if hi - lo <= 1e-10:
                break
        roots.append(0.5 * (lo + hi))
    # interior |f| minima that dip below tolerance without changing sign
    mags = np.abs(ys)
    mid = mags[1:-1]
    tangent = (mid < 1e-12) & (mid <= mags[:-2]) & (mid <= mags[2:]) & (signs[:-2] * signs[2:] > 0)
    for x in xs[1:-1][tangent]:
        warnings.warn(f"possible even-multiplicity root near x = {x:.6g}", TangentRootWarning)
    bound = sum(1 + t.degree for t in terms) - 1
    return np.asarray(roots), bound


# ---------------------------------------------------------------------------
# verification suites (drive `kinwb verify`)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _stationary_modes_integral(epsilon, dx, q, Tp, Tn):
    """Every mode of the stationary eigen-expansion of the integral-collision
    models with rates (T(+v), T(-v)) = (Tp, Tn): the Maxwellian 1/T, the zero
    mode (x - eps v when the rates are even), and the 2K-2 damped modes,
    each anchored at the end where it is one.  Returns ``modes(x, s)``, the
    (K, 2K) values at x on the velocities s*v, one mode per column."""
    v, w = q.nodes, q.weights
    K = q.K
    roots = _all_roots_multi(v, w, Tp, Tn)[0]
    lam0 = roots[K - 1]
    damped = np.concatenate([roots[K:], roots[: K - 1]])
    anchor = np.repeat([0.0, dx], K - 1)
    even = np.array_equal(Tp, Tn)

    def modes(x, s):
        vv, T = s * v, (Tp if s > 0 else Tn)
        if even:
            zero = x - epsilon * vv
        else:  # (-eps/lam0)[exp(-lam0 x/eps)/(T - lam0 vv) - 1/T], as the assembly writes it
            zero = (T * x / bernoulli(-lam0 * x / epsilon) - epsilon * vv) / (T * (T - lam0 * vv))
        decay = np.exp(-damped * (x - anchor) / epsilon) / (T[:, None] - np.outer(vv, damped))
        return np.column_stack([1.0 / T, zero, decay])

    return modes


def _stationary_modes_vfp(epsilon, dx, q, E, kappa):
    """Every mode of the stationary Fokker-Planck expansion in the field E:
    the two zero modes and the 2K-2 Hermite modes, each anchored at the end
    where it is one.  Returns ``modes(x, s)`` as above."""
    v, K = q.nodes, q.K

    def modes(x, s):
        vv = s * v
        cols = list(_vfp_zero_columns(x, vv, epsilon, E, kappa))
        for l in range(1, K):
            for sign, end in ((1, 0.0), (-1, dx)):
                mu = vfp_mu(l, epsilon, E, kappa, sign)
                psi = vfp_psi(l, sign, vv, epsilon, E, kappa)
                cols.append(np.exp(-mu * (x - end) / epsilon) * psi)
        return np.column_stack(cols)

    return modes


def well_balanced_residual(S, epsilon, dx, q, *, rates=None, E=None) -> float:
    """max|S INC - OUT| / max|OUT| of every mode of the stationary
    eigen-expansion on (0, dx), each column on its own scale, with INC and
    OUT its exact incoming and outgoing traces, one mode per column.  The
    stationary problem is the integral-collision one with rates
    (T(+v), T(-v)) = ``rates``, or the Fokker-Planck one in the field ``E``
    with the quadrature's kappa."""
    if E is None:
        modes = _stationary_modes_integral(epsilon, dx, q, *rates)
    else:
        modes = _stationary_modes_vfp(epsilon, dx, q, E, q.kappa)
    inc = np.vstack([modes(0.0, 1.0), modes(dx, -1.0)])
    out = np.vstack([modes(dx, 1.0), modes(0.0, -1.0)])
    scale = np.max(np.abs(out), axis=0) + 1e-300
    return float(np.max(np.max(np.abs(S @ inc - out), axis=0) / scale))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x, y floored at 1e-300 so
    that an exact zero stays finite: the one fit of every sweep and check."""
    return float(np.polyfit(np.log(x), np.log(np.maximum(y, 1e-300)), 1)[0])


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def verify_quadrature() -> list[CheckResult]:
    out = []
    worst = 0.0
    for K in (2, 4, 8, 16, 32):
        rep = moment_report(gauss_symmetric(K))
        worst = max(worst, float(np.max(rep.orthogonality_residuals)))
    out.append(_result("gauss moment constraints K<=32", worst < 1e-12, f"max residual {worst:.2e}"))
    worst = 0.0
    ok = True
    for K in (1, 2, 3):
        rep = moment_report(vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0)))
        ok = ok and rep.passed
        worst = max(worst, float(np.max(rep.orthogonality_residuals)))
    out.append(_result("vfp preset quadratures K<=3", ok and worst < 1e-10, f"max residual {worst:.2e}"))
    return out


def verify_spectral() -> list[CheckResult]:
    out = []
    q = gauss_symmetric(2)
    lam = dispersion_roots(q)
    out.append(
        _result(
            "K=2 dispersion root equals 2*sqrt(3)",
            abs(lam[0] - 2.0 * np.sqrt(3.0)) < 1e-12,
            f"lambda_1 = {float(lam[0]):.15g}",
        )
    )
    ok = True
    for K in (2, 3, 4, 5, 6):
        qK = gauss_symmetric(K)
        lams = dispersion_roots(qK)
        inv = np.sort(1.0 / qK.nodes)
        ok = ok and np.all(lams > inv[:-1]) and np.all(lams < inv[1:])
    out.append(_result("interlacing with 1/v poles K<=6", ok, "strict for all K"))
    q4 = gauss_symmetric(4)
    res = orthogonality_check(q4)
    out.append(
        _result("discrete orthogonality residuals", float(np.max(res)) < 1e-10, f"max {np.max(res):.2e}")
    )
    rte = Rte(q4)
    lam0 = rte.base
    phip = phi_tanh(q4.nodes * 0.7)
    lam01, lam1 = first_order_shifts(q4, lam0, phip[None], rte.shifts)
    errs = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        roots = _all_roots_multi(q4.nodes, q4.weights, 1 + eps * phip, 1 - eps * phip)[0]
        err = np.max(np.abs(roots[4:] - (lam0 + eps * lam1[0])))
        errs.append(max(err, abs(roots[3] - eps * lam01[0])))
    slope = loglog_slope(eps_list, errs)
    out.append(_result("eigenvalue expansion remainder o(eps)", slope >= 1.9, f"slope {slope:.3f}"))
    return out


def verify_scattering() -> list[CheckResult]:
    out = []
    dx, eps = 1.0 / 32.0, 1e-3
    q = gauss_symmetric(4)
    qv = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    ones, phip = np.ones(4), phi_tanh(q.nodes * 0.8)
    # (name, model, field, stationary problem); each check reads the last
    # interface, and the chemo field [0, 0.8 dx] has slope 0.8 there
    cases = (
        ("rte", Rte(q), None, {"rates": (ones, ones)}),
        ("chemo", Chemo(q, phi_tanh), np.array([0.0, 0.8 * dx]),
         {"rates": (1.0 + eps * phip, 1.0 - eps * phip)}),
        ("vfp", Vfp(qv, np.array([0.5])), None, {"E": 0.5}),
    )
    for name, model, field, problem in cases:
        stack = model.interfaces(eps, dx, field)
        S = stack.S[-1]
        rec = np.max(np.abs(S - model.closure.anti_S0 - eps * stack.B[-1])) / np.max(np.abs(S))
        out.append(_result(f"{name} reconstruction identity", rec < 1e-12, f"residual {rec:.2e}"))
        norms = []
        for e in (1e-2, 1e-3, 1e-4):
            d = model.interfaces(e, dx, field)
            norms.append(float(np.max(np.abs(d.B[-1] - d.B0[-1]))))
        out.append(
            _result(
                f"{name} first-order B-limit",
                norms[0] > norms[1] > norms[2],
                f"norms {norms[0]:.2e} > {norms[1]:.2e} > {norms[2]:.2e}",
            )
        )
        wb = well_balanced_residual(S, eps, dx, model.q, **problem)
        out.append(_result(f"{name} stationary fixed point", wb < 1e-10, f"residual {wb:.2e}"))
        dev = stochasticity_check(S, model.q).col_sum_deviation
        if name == "vfp":
            # not asserted: the finite-eps Hermite modes are only O(eps)-flux-free
            detail = f"column-sum deviation {dev:.2e} at eps=1e-3"
            out.append(_result("vfp stochasticity (reported only)", True, detail))
        else:
            detail = f"column-sum deviation {dev:.2e}"
            out.append(_result(f"{name} left-stochasticity", dev < 1e-10, detail))
    return out


def verify_lemmas() -> list[CheckResult]:
    out = []
    dt, dx = 1e-3, 1.0 / 16.0
    q4 = gauss_symmetric(4)
    qv = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    # two-stream is the K = 1 set v = 1, w = 1 with S0 = 1 (the swap block)
    for name, q, S0 in (
        ("two-stream", TwoStream.q, np.eye(1)),
        ("rte/chemo", q4, Rte(q4).closure.S0),
        ("vfp", qv, Vfp(qv, np.zeros(1)).closure.S0),
    ):
        rep = kernel_range_check(assemble_cell_matrix(0.0, dt, dx, q, S0), q)
        out.append(_result(f"{name} kernel/range", rep.passed, f"null_dim {rep.null_dim}"))
    st = stochasticity_check(ts_smatrix(1e-2, 0.1, 0.6), TwoStream.q)
    out.append(
        _result(
            "two-stream left-stochasticity",
            st.col_sum_deviation < 1e-14,
            f"column-sum deviation {st.col_sum_deviation:.2e}",
        )
    )
    return out


def verify_roots() -> list[CheckResult]:
    out = []
    terms = [ExpPolyTerm([1.5], 0.0), ExpPolyTerm(np.array([-2.0, 1.0]) / np.sqrt(2.0), 1.0)]
    roots, bound = exp_poly_roots(terms, (0.0, 3.0))
    ok = len(roots) == 2 and np.max(np.abs(roots - [0.1216, 1.5495])) < 1e-3
    out.append(_result("two-mode root set {0.1216, 1.5495}", ok, f"roots {np.round(roots, 4)}"))
    terms = [
        ExpPolyTerm([-2.75], 0.0),
        ExpPolyTerm([-0.4, 0.2], 1.0),
        ExpPolyTerm([3.0, -2.0 * np.sqrt(2.0), 0.5], np.sqrt(2.0)),
    ]
    roots, bound = exp_poly_roots(terms, (0.0, 6.0))
    ok = len(roots) == 3 and np.max(np.abs(roots - [0.132, 0.796, 4.192])) < 1e-3
    out.append(
        _result("three-mode root set {0.132, 0.796, 4.192}", ok, f"roots {np.round(roots, 4)}")
    )
    rng = np.random.default_rng(7)
    ok = True
    worst = ""
    for _ in range(50):
        n = rng.integers(1, 4)
        rates = np.sort(rng.uniform(-2.0, 2.0, n))
        terms = [
            ExpPolyTerm(rng.standard_normal(rng.integers(1, 4)), r) for r in rates
        ]
        roots, bound = exp_poly_roots(terms, (-3.0, 3.0), samples=20_000)
        if len(roots) > bound:
            ok = False
            worst = f"{len(roots)} roots > bound {bound}"
    out.append(_result("Polya-Szego bound on 50 random instances", ok, worst or "all within bound"))
    return out


# scope name -> the suite `kinwb verify --scope` runs
SCOPES = {
    "quadrature": verify_quadrature,
    "spectral": verify_spectral,
    "scattering": verify_scattering,
    "lemmas": verify_lemmas,
    "roots": verify_roots,
}


def run_verification(scope: str = "all") -> list[CheckResult]:
    if scope == "all":
        results = []
        for fn in SCOPES.values():
            results.extend(fn())
        return results
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(SCOPES)} or 'all'")
    return SCOPES[scope]()
