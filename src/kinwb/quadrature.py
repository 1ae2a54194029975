"""Discrete-ordinates velocity sets (weights, nodes) for all models.

Two families are supported, told apart by ``kappa``:

* unit interval (``kappa is None``): symmetric rules on (-1, 1) stored
  through their positive half; the moment constraints are sum(w) = 1 and
  sum(w v^2) = 1/3.  Gauss-Legendre satisfies both exactly for K >= 2.
* real line (``kappa > 0``): node sets for the Fokker-Planck model with
  Maxwellian exp(-v^2/2kappa).  Nodes are caller-supplied; the weights
  are the kernel of the K homogeneous constraints (K-1 discrete zero-flux
  identities for the limit modes plus sigma2 = kappa*sigma0), which pins
  the nodes to a codimension-one manifold.  ``vfp_preset_nodes`` returns
  feasible sets for K <= 3 as constants, found by bisection on that
  manifold (``_preset_root``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleNodes, NegativeWeight, SingularBasis
from .spectral import vfp_psi0

_REL_SV_TOL = 1e-10  # relative singular-value threshold for rank decisions


@dataclass(frozen=True, eq=False)
class VelocityQuadrature:
    """Positive velocity nodes and weights; the negative half is implied.

    Instances are value objects: arrays are defensively copied and frozen,
    and identical inputs produce bitwise-identical instances.  Moment
    constraints are *reported* (see :func:`moment_report`), not enforced,
    so deliberately defective rules (e.g. the K=1 midpoint) can be built
    and diagnosed.  ``kappa`` is None for a unit-interval rule and the
    Maxwellian's variance for a real-line one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kappa: float | None = None

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must have the same shape (K,)")
        if np.any(nodes <= 0.0) or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly positive and ascending")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        if self.kappa is not None and not self.kappa > 0.0:
            raise ValueError("real-line quadratures require kappa > 0")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def K(self) -> int:
        """The number of positive velocities."""
        return len(self.nodes)

    @cached_property
    def half_weights(self) -> np.ndarray:
        """[[w, 0], [0, w]], (2, 2K): on a state (2K, Nx) it gives the
        densities of the +v and the -v halves."""
        return np.kron(np.eye(2), self.weights)

    @cached_property
    def mass_row(self) -> tuple[np.ndarray, np.ndarray]:
        """(g, m/(g.m)), (2K,) each: g = (w, w) gives the density g.f of a
        state f, and m/(g.m), m = (maxwellian, maxwellian), is the
        Maxwellian state of density 1."""
        g = np.concatenate([self.weights, self.weights])
        m = np.concatenate([self.maxwellian, self.maxwellian])
        return g, m / (g @ m)

    @cached_property
    def flux_row(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, h/(h.h)), (2K,) each: h = (w v, w v) gives the mass an
        interface's outgoing traces carry into the cells they enter."""
        h = np.concatenate([self.weights * self.nodes] * 2)
        return h, h / (h @ h)

    @property
    def second_moment(self) -> float:
        """sum(w v^2): the diffusion coefficient of the rte and chemo limits."""
        return float(np.sum(self.weights * self.nodes**2))

    @property
    def maxwellian(self) -> np.ndarray:
        """The model Maxwellian at the positive nodes, even in v: ones on a
        unit-interval set, exp(-v^2/2 kappa) on a real-line one."""
        if self.kappa is None:
            return np.ones(self.K)
        return vfp_psi0(0, self.nodes, self.kappa)


@dataclass(frozen=True, eq=False)
class MomentReport:
    sum_weights: float
    second_moment: float
    orthogonality_residuals: np.ndarray
    passed: bool
    sigma0: float | None = None
    sigma2: float | None = None


def gauss_symmetric(K: int) -> VelocityQuadrature:
    """Gauss-Legendre nodes/weights mapped to (0, 1) with total weight 1.

    Exact on quadratics for K >= 2, hence sum(w v^2) = 1/3 up to rounding;
    K = 1 degenerates to the midpoint rule, which violates the second-moment
    constraint (flagged by :func:`moment_report`, not rejected here).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    x, w = np.polynomial.legendre.leggauss(K)
    return VelocityQuadrature(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


def _vfp_constraint_matrix(nodes: np.ndarray, kappa: float) -> np.ndarray:
    """Rows of the K homogeneous weight constraints: the K-1 zero-flux
    identities, then sigma2 - kappa*sigma0."""
    K = len(nodes)
    rows = [
        nodes * (vfp_psi0(l, nodes, kappa) - vfp_psi0(l, -nodes, kappa))
        for l in range(1, K)
    ]
    rows.append((nodes**2 - kappa) * vfp_psi0(0, nodes, kappa))
    return np.asarray(rows)


def _check_haar(nodes: np.ndarray, kappa: float) -> None:
    """hypV1 (basis at +nodes invertible) and hypV2 (stacked +- family rank 2K-1)."""
    K = len(nodes)
    basis = np.column_stack([vfp_psi0(l, nodes, kappa) for l in range(K)])
    if not np.all(np.isfinite(basis)):
        raise SingularBasis("limit-mode basis at the nodes is not finite (v^2 or 2 kappa overflows)")
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[-1] <= _REL_SV_TOL * sv[0]:
        raise SingularBasis(
            f"limit-mode basis at the nodes is numerically singular (rel sv {sv[-1]/sv[0]:.2e})"
        )
    family = [
        np.concatenate([vfp_psi0(l, nodes, kappa), vfp_psi0(l, -nodes, kappa)])
        for l in range(K)
    ]
    family += [
        np.concatenate([vfp_psi0(l, -nodes, kappa), vfp_psi0(l, nodes, kappa)])
        for l in range(1, K)
    ]
    sv = np.linalg.svd(np.column_stack(family), compute_uv=False)
    rank = int(np.sum(sv > _REL_SV_TOL * sv[0]))
    if rank < 2 * K - 1:
        raise SingularBasis(
            f"stacked +- mode family has rank {rank}, expected {2*K-1}"
        )


def vfp_quadrature(kappa: float, candidate_nodes) -> VelocityQuadrature:
    """Solve for real-line weights at the given nodes.

    The weights are the one-dimensional kernel of the K homogeneous
    constraints (K-1 zero-flux identities, one Gaussian second-moment
    identity sigma2 = kappa*sigma0), normalized to sum(w) = 1.  A kernel
    exists only on a codimension-one node manifold; off it the constraints
    are infeasible and :class:`InfeasibleNodes` is raised.

    Raises
    ------
    SingularBasis
        hypV1/hypV2 fail (e.g. duplicated nodes).
    InfeasibleNodes
        No nonzero weight vector satisfies the constraints at these nodes.
    NegativeWeight
        The kernel weights are not all positive.
    """
    nodes = np.asarray(candidate_nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("candidate_nodes must have shape (K,) with K >= 1")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if np.any(nodes <= 0.0):
        raise ValueError("nodes must be strictly positive")
    _check_haar(nodes, kappa)

    A = _vfp_constraint_matrix(nodes, kappa)
    _, s, vt = np.linalg.svd(A)
    # at K = 1, s[0] is the one entry (v^2 - kappa) m itself: measure it
    # against the size of its terms instead
    scale = s[0] if len(nodes) > 1 else (nodes[0] ** 2 + kappa) * vfp_psi0(0, nodes[0], kappa)
    if s[-1] > _REL_SV_TOL * scale:
        raise InfeasibleNodes(
            f"constraint matrix has no kernel at these nodes "
            f"(smallest relative singular value {s[-1]/scale:.2e}); "
            "the nodes must satisfy det(constraints) = 0"
        )
    w = vt[-1]
    if np.sum(w) < 0.0:
        w = -w
    if np.any(w <= 0.0):
        raise NegativeWeight(f"kernel weights {w} are not all positive")
    w = w / np.sum(w)
    return VelocityQuadrature(nodes=nodes, weights=w, kappa=kappa)


def _preset_root(v_fixed, bracket):
    """Bisect det(constraints(v_fixed + [v_last])) = 0 over the last node."""

    def det(v_last):
        return np.linalg.det(
            _vfp_constraint_matrix(np.array(list(v_fixed) + [v_last]), 1.0)
        )

    lo, hi = bracket
    flo = det(lo)
    if flo * det(hi) >= 0.0:
        raise InfeasibleNodes(f"no determinant sign change in {bracket}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if det(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * (1.0 + abs(mid)):
            break
    return 0.5 * (lo + hi)


# kappa = 1 node sets; each last node is _preset_root([0.7], (1.5, 2.5)) or
# _preset_root([0.6, 1.4], (2.5, 3.0)) to the bit, which a test pins.
_PRESETS = {1: [1.0], 2: [0.7, 2.2851747584523503], 3: [0.6, 1.4, 2.9032796546282373]}


def vfp_preset_nodes(K: int, kappa: float) -> np.ndarray:
    """Feasible real-line node sets for K <= 3: the constants ``_PRESETS``
    at kappa = 1, scaled to general kappa by the exact scaling
    v -> sqrt(kappa) v of the limit modes."""
    if K not in _PRESETS:
        raise ValueError("presets are available for K in {1, 2, 3}")
    return np.sqrt(kappa) * np.array(_PRESETS[K])


def moment_report(q: VelocityQuadrature) -> MomentReport:
    """Constraint residuals for q's domain; never mutates q.

    Unit interval (kappa None): |sum w - 1| and |sum w v^2 - 1/3| below
    1e-12.  Real line: the K-1 zero-flux residuals and
    |sigma2 - kappa*sigma0| below 1e-10.
    """
    v, w = q.nodes, q.weights
    sum_w = float(np.sum(w))
    second = q.second_moment
    kappa = q.kappa
    if kappa is None:
        residuals = np.array([abs(sum_w - 1.0), abs(second - 1.0 / 3.0)])
        return MomentReport(
            sum_weights=sum_w,
            second_moment=second,
            orthogonality_residuals=residuals,
            passed=bool(np.all(residuals < 1e-12)),
        )
    m = q.maxwellian
    sigma0 = float(np.sum(w * m))
    sigma2 = float(np.sum(w * v**2 * m))
    residuals = np.abs(_vfp_constraint_matrix(v, kappa) @ w)
    return MomentReport(
        sum_weights=sum_w,
        second_moment=second,
        orthogonality_residuals=residuals,
        passed=bool(np.all(residuals < 1e-10)),
        sigma0=sigma0,
        sigma2=sigma2,
    )
