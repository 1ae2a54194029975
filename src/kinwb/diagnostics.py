"""Executable checks for the structural properties behind the schemes:
stochasticity, kernel/range of the relaxation matrix, discrete
orthogonality, exponential-polynomial root counts, and the well-balanced
fixed point of an interface S-matrix.  Every check is deterministic
(seeded) and idempotent.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TangentRootWarning
from .kinetic import assemble_cell_matrix
from .spectral import _all_roots_multi, vfp_mu, vfp_psi, vfp_psi0
from .scattering import _vfp_zero_columns

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


def stochasticity_check(S: np.ndarray, q=None) -> StochasticityReport:
    """Column/row-sum deviations of Gamma S Gamma^{-1}, Gamma = diag(w v, w v).

    Column sums equal to one give discrete mass preservation; row sums the
    L-inf bound.  With q = None (two-stream) Gamma is the identity.
    """
    n = S.shape[0]
    if q is None:
        gamma = np.ones(n)
    else:
        wv = q.weights * q.nodes
        gamma = np.concatenate([wv, wv])
    G = gamma[:, None] * S / gamma[None, :]
    return StochasticityReport(
        col_sum_deviation=float(np.max(np.abs(G.sum(axis=0) - 1.0))),
        row_sum_deviation=float(np.max(np.abs(G.sum(axis=1) - 1.0))),
    )


def kernel_range_check(
    R0: np.ndarray, q, maxwellian: np.ndarray, seed: int = 0
) -> KernelRangeReport:
    """Kernel and range structure of the eps = 0 relaxation matrix.

    Passes when the kernel is one-dimensional and parallel to the model
    Maxwellian, and when ten random probes confirm that the range lies in
    the zero-weighted-sum hyperplane (residual below 1e-9 relative).
    """
    n = R0.shape[0]
    K = n // 2
    weights = np.ones(K) if q is None else q.weights
    _, s, vh = np.linalg.svd(R0)
    null_dim = int(np.sum(s < _NULL_TOL * s[0]))
    null_vec = vh[-1]
    mw = np.asarray(maxwellian, dtype=float)
    cos = abs(float(null_vec @ mw)) / (np.linalg.norm(null_vec) * np.linalg.norm(mw))
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(10):
        y = rng.standard_normal(n)
        z = R0 @ y
        num = abs(float(weights @ (z[:K] + z[K:])))
        den = float(np.sum(np.abs(weights[None, :] * np.array([z[:K], z[K:]]))))
        residual = max(residual, num / max(den, 1e-300))
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
    if np.allclose(Tp, Tn, rtol=0.0, atol=1e-15):
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
    for i in range(1, samples - 1):
        if mags[i] < 1e-12 and mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]:
            if signs[i - 1] * signs[i + 1] > 0:
                warnings.warn(
                    f"possible even-multiplicity root near x = {xs[i]:.6g}",
                    TangentRootWarning,
                )
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


def _stationary_traces_integral(epsilon, dx, q, Tp, Tn, seed):
    """Random truncated eigen-expansion of the integral-collision models;
    returns (incoming, outgoing) exact traces."""
    v, w = q.nodes, q.weights
    K = q.K
    roots = _all_roots_multi(v, w, Tp, Tn)[0]
    lam_m, lam0, lam_p = roots[: K - 1][::-1], roots[K - 1], roots[K:]
    rng = np.random.default_rng(seed)
    a_p, a_m = rng.standard_normal(K - 1), rng.standard_normal(K - 1)
    abar, a0 = rng.standard_normal(), rng.standard_normal()
    even = np.allclose(Tp, Tn)

    def fbar(x, vv):
        T = np.where(vv > 0, np.interp(np.abs(vv), v, Tp), np.interp(np.abs(vv), v, Tn))
        val = abar / T
        if even:
            val = val + a0 * (x - epsilon * vv)
        else:
            val = val + a0 * (np.exp(-lam0 * x / epsilon) / (T - lam0 * vv) - 1.0 / T)
        for i in range(K - 1):
            val = val + a_p[i] * np.exp(-lam_p[i] * x / epsilon) / (T - lam_p[i] * vv)
            val = val + a_m[i] * np.exp(-lam_m[i] * (x - dx) / epsilon) / (T - lam_m[i] * vv)
        return val

    inc = np.concatenate([fbar(0.0, v), fbar(dx, -v)])
    out = np.concatenate([fbar(dx, v), fbar(0.0, -v)])
    return inc, out


def _stationary_traces_vfp(epsilon, dx, q, E, kappa, seed):
    v = q.nodes
    K = q.K
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2 * K)

    def fbar(x, vv):
        h, d = _vfp_zero_columns(x, vv, epsilon, E, kappa)
        val = a[K - 1] * h + a[2 * K - 1] * d
        for l in range(1, K):
            mup = vfp_mu(l, epsilon, E, kappa, +1)
            mum = vfp_mu(l, epsilon, E, kappa, -1)
            val = val + a[l - 1] * np.exp(-mup * x / epsilon) * vfp_psi(
                l, +1, vv, epsilon, E, kappa
            )
            val = val + a[K - 1 + l] * np.exp(-mum * (x - dx) / epsilon) * vfp_psi(
                l, -1, vv, epsilon, E, kappa
            )
        return val

    inc = np.concatenate([fbar(0.0, v), fbar(dx, -v)])
    out = np.concatenate([fbar(dx, v), fbar(0.0, -v)])
    return inc, out


def well_balanced_residual(S, epsilon, dx, q, *, rates=None, E=None, seed: int = 0) -> float:
    """Residual of S * (incoming traces) - (exact outgoing traces) for a
    random stationary eigen-expansion on (0, dx).  The stationary problem is
    the integral-collision one with rates (T(+v), T(-v)) = ``rates``, or the
    Fokker-Planck one in the field ``E`` with the quadrature's kappa."""
    if E is None:
        inc, out = _stationary_traces_integral(epsilon, dx, q, *rates, seed)
    else:
        inc, out = _stationary_traces_vfp(epsilon, dx, q, E, q.kappa, seed)
    scale = np.max(np.abs(out)) + 1e-300
    return float(np.max(np.abs(S @ inc - out)) / scale)


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def verify_quadrature() -> list[CheckResult]:
    from .quadrature import gauss_symmetric, moment_report, vfp_preset_nodes, vfp_quadrature

    out = []
    worst = 0.0
    for K in (2, 4, 8, 16, 32):
        rep = moment_report(gauss_symmetric(K))
        worst = max(worst, float(np.max(rep.orthogonality_residuals)))
    out.append(_result("gauss moment constraints K<=32", worst < 1e-12, f"max residual {worst:.2e}"))
    worst = 0.0
    ok = True
    for K in (1, 2, 3):
        rep = moment_report(vfp_quadrature(K, 1.0, vfp_preset_nodes(K, 1.0)))
        ok = ok and rep.passed
        worst = max(worst, float(np.max(rep.orthogonality_residuals)))
    out.append(_result("vfp preset quadratures K<=3", ok and worst < 1e-10, f"max residual {worst:.2e}"))
    return out


def verify_spectral() -> list[CheckResult]:
    from .quadrature import gauss_symmetric
    from .spectral import dispersion_roots, first_order_shifts
    from .kinetic import phi_tanh

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
    lam0 = dispersion_roots(q4)
    phip = phi_tanh(q4.nodes * 0.7)
    lam01, lam1 = first_order_shifts(q4, lam0, phip[None])
    errs = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        roots = _all_roots_multi(q4.nodes, q4.weights, 1 + eps * phip, 1 - eps * phip)[0]
        err = np.max(np.abs(roots[4:] - (lam0 + eps * lam1[0])))
        errs.append(max(err, abs(roots[3] - eps * lam01[0])))
    slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    out.append(_result("eigenvalue expansion remainder o(eps)", slope >= 1.9, f"slope {slope:.3f}"))
    return out


def verify_scattering() -> list[CheckResult]:
    from .kinetic import phi_tanh
    from .quadrature import gauss_symmetric, vfp_preset_nodes, vfp_quadrature
    from .scattering import chemo_interfaces, rte_closure, rte_interfaces, vfp_closure, vfp_interfaces
    from .spectral import dispersion_roots

    out = []
    dx = 1.0 / 32.0
    q = gauss_symmetric(4)
    lam0 = dispersion_roots(q)
    closure = rte_closure(q, lam0)
    qv = vfp_quadrature(3, 1.0, vfp_preset_nodes(3, 1.0))
    closure_v = vfp_closure(qv)
    ones, phip = np.ones(4), phi_tanh(q.nodes * 0.8)

    def build(model, eps):
        """The interface, its velocity set and closure, and its stationary problem."""
        if model == "rte":
            return rte_interfaces(eps, dx, q, lam0, closure), q, closure, {"rates": (ones, ones)}
        if model == "chemo":
            rates = (1.0 + eps * phip, 1.0 - eps * phip)
            stack = chemo_interfaces(eps, dx, q, [0.8], phi_tanh, lam0, closure)
            return stack, q, closure, {"rates": rates}
        return vfp_interfaces(eps, dx, qv, [0.5], closure_v), qv, closure_v, {"E": 0.5}

    for model in ("rte", "chemo", "vfp"):
        stack, qq, cl, problem = build(model, 1e-3)
        S = stack.S[0]
        rec = np.max(np.abs(S - cl.anti_S0 - 1e-3 * stack.B[0])) / np.max(np.abs(S))
        out.append(_result(f"{model} reconstruction identity", rec < 1e-12, f"residual {rec:.2e}"))
        norms = []
        for eps in (1e-2, 1e-3, 1e-4):
            d = build(model, eps)[0]
            norms.append(float(np.max(np.abs(d.B[0] - d.B0[0]))))
        out.append(
            _result(
                f"{model} first-order B-limit",
                norms[0] > norms[1] > norms[2],
                f"norms {norms[0]:.2e} > {norms[1]:.2e} > {norms[2]:.2e}",
            )
        )
        wb = well_balanced_residual(S, 1e-3, dx, qq, seed=1, **problem)
        out.append(_result(f"{model} stationary fixed point", wb < 1e-10, f"residual {wb:.2e}"))
        st = stochasticity_check(S, qq)
        if model == "vfp":
            # not asserted: the finite-eps Hermite modes are only O(eps)-flux-free
            out.append(
                _result(
                    "vfp stochasticity (reported only)",
                    True,
                    f"column-sum deviation {st.col_sum_deviation:.2e} at eps=1e-3",
                )
            )
        else:
            out.append(
                _result(
                    f"{model} left-stochasticity",
                    st.col_sum_deviation < 1e-10,
                    f"column-sum deviation {st.col_sum_deviation:.2e}",
                )
            )
    return out


def verify_lemmas() -> list[CheckResult]:
    from .quadrature import gauss_symmetric, vfp_preset_nodes, vfp_quadrature
    from .scattering import rte_closure, vfp_closure
    from .spectral import dispersion_roots
    from .twostream import ts_smatrix

    out = []
    dt, dx = 1e-3, 1.0 / 16.0
    # two-stream: R0 with swap block, kernel (1, 1)
    R0 = np.array([[1.0, -1.0], [-1.0, 1.0]]) * dt / dx
    rep = kernel_range_check(R0, None, np.ones(2))
    out.append(_result("two-stream kernel/range", rep.passed, f"null_dim {rep.null_dim}"))
    q = gauss_symmetric(4)
    lam0 = dispersion_roots(q)
    cl = rte_closure(q, lam0)
    R0 = assemble_cell_matrix(0.0, dt, dx, q, cl.S0)
    rep = kernel_range_check(R0, q, np.ones(8))
    out.append(_result("rte/chemo kernel/range", rep.passed, f"null_dim {rep.null_dim}"))
    qv = vfp_quadrature(3, 1.0, vfp_preset_nodes(3, 1.0))
    clv = vfp_closure(qv)
    R0 = assemble_cell_matrix(0.0, dt, dx, qv, clv.S0)
    mw = vfp_psi0(0, np.concatenate([qv.nodes, qv.nodes]), qv.kappa)
    rep = kernel_range_check(R0, qv, mw)
    out.append(_result("vfp kernel/range", rep.passed, f"null_dim {rep.null_dim}"))
    st = stochasticity_check(ts_smatrix(1e-2, 0.1, 0.6))
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
