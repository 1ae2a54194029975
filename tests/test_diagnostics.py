import numpy as np
import pytest

from kinwb import (
    ExperimentConfig,
    ExpPolyTerm,
    TangentRootWarning,
    ap_error_table,
    assemble_cell_matrix,
    exp_poly_roots,
    kernel_range_check,
    moment_report,
    orthogonality_check,
    run_verification,
    stochasticity_check,
    ts_smatrix,
    vfp_closure,
    vfp_preset_nodes,
    vfp_quadrature,
)
from kinwb.quadrature import _preset_root


def test_stochasticity_examples(q4, spec4, closure4):
    S = ts_smatrix(1e-2, 0.1, 0.7)
    rep = stochasticity_check(S)
    assert rep.col_sum_deviation < 1e-14
    rep = stochasticity_check(np.eye(8), q4)
    assert rep.col_sum_deviation == 0.0
    assert rep.row_sum_deviation == 0.0
    from kinwb import rte_interfaces

    S = rte_interfaces(1e-2, 1.0 / 32.0, q4, spec4, closure4).S[0]
    assert stochasticity_check(S, q4).col_sum_deviation < 1e-10


def test_kernel_range_all_models(q4, closure4, qv3):
    dt, dx = 1e-3, 1.0 / 16.0
    R0 = np.array([[1.0, -1.0], [-1.0, 1.0]]) * dt / dx
    rep = kernel_range_check(R0, None, np.ones(2))
    assert rep.passed and rep.null_dim == 1
    S0 = np.eye(4) - closure4.zeta @ closure4.gamma
    rep = kernel_range_check(assemble_cell_matrix(0.0, dt, dx, q4, S0), q4, np.ones(8))
    assert rep.passed
    clv = vfp_closure(qv3)
    S0v = np.eye(3) - clv.zeta @ clv.gamma
    mw = np.exp(-np.concatenate([qv3.nodes, qv3.nodes]) ** 2 / 2.0)
    rep = kernel_range_check(assemble_cell_matrix(0.0, dt, dx, qv3, S0v), qv3, mw)
    assert rep.passed
    # a full-rank matrix must fail
    rep = kernel_range_check(np.eye(8), q4, np.ones(8))
    assert not rep.passed and rep.null_dim == 0


def test_orthogonality_check_residuals(q4, qv3):
    assert np.max(orthogonality_check(q4)) < 1e-10
    # the vfp zero-flux identities of the eps = 0 Hermite modes
    assert np.max(moment_report(qv3).orthogonality_residuals[:-1]) < 1e-10


def test_exp_poly_reference_root_sets():
    terms = [ExpPolyTerm([1.5], 0.0), ExpPolyTerm(np.array([-2.0, 1.0]) / np.sqrt(2.0), 1.0)]
    roots, bound = exp_poly_roots(terms, (0.0, 3.0))
    assert bound == 2
    assert np.allclose(roots, [0.1216, 1.5495], atol=1e-3)
    terms = [
        ExpPolyTerm([-2.75], 0.0),
        ExpPolyTerm([-0.4, 0.2], 1.0),
        ExpPolyTerm([3.0, -2.0 * np.sqrt(2.0), 0.5], np.sqrt(2.0)),
    ]
    roots, bound = exp_poly_roots(terms, (0.0, 6.0))
    assert bound == 5
    assert np.allclose(roots, [0.132, 0.796, 4.192], atol=1e-3)


def test_exp_poly_trivial_and_bound():
    roots, bound = exp_poly_roots([ExpPolyTerm([3.0], 0.7)], (-1.0, 1.0))
    assert roots.size == 0 and bound == 0
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        rates = np.sort(rng.uniform(-2.0, 2.0, n))
        terms = [ExpPolyTerm(rng.standard_normal(int(rng.integers(1, 4))), r) for r in rates]
        roots, bound = exp_poly_roots(terms, (-3.0, 3.0), samples=20_000)
        assert len(roots) <= bound


def test_exp_poly_tangent_warning():
    # (x - 1)^2 touches zero without a sign change
    terms = [ExpPolyTerm([1.0, -2.0, 1.0], 0.0)]
    with pytest.warns(TangentRootWarning):
        roots, _ = exp_poly_roots(terms, (0.0, 2.0), samples=200_001)
    assert roots.size == 0


def ap_table(model, K, epsilons, **fields):
    """One-step AP gaps and slope of a config with t_final = dt."""
    record = {"model": model, "K": K, "t_final": fields["dt"], "epsilon_list": epsilons, **fields}
    return ap_error_table(ExperimentConfig.from_json(record), epsilons)


def test_ap_error_table_rte():
    grid = {"Nx": 64, "dx": 1.0 / 64.0, "dt": (1.0 / 64.0) ** 2}
    rows, slope = ap_table("rte", 4, [1e-3, 3e-4, 1e-4, 3e-5], **grid)
    assert 0.9 <= slope <= 1.1
    gaps = dict(rows)
    assert gaps[1e-3] < 1e-4
    # at eps = 1 no AP claim: the gap saturates at the one-step update size
    # (a sizeable fraction of it), far above the limit-regime errors
    big_rows, big_slope = ap_table("rte", 4, [1.0], **grid)
    assert big_slope is None
    assert big_rows[0][1] > 5.0 * gaps[1e-3]


def test_run_verification_all_green():
    results = run_verification("all")
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    with pytest.raises(ValueError):
        run_verification("nonsense")


def test_checks_deterministic_and_idempotent(q4, closure4):
    S0 = np.eye(4) - closure4.zeta @ closure4.gamma
    R0 = assemble_cell_matrix(0.0, 1e-3, 1.0 / 16.0, q4, S0)
    a = kernel_range_check(R0, q4, np.ones(8))
    b = kernel_range_check(R0, q4, np.ones(8))
    assert a.passed == b.passed
    assert a.range_test_residual == b.range_test_residual
    assert np.array_equal(a.null_vector, b.null_vector)
    terms = [ExpPolyTerm([1.5], 0.0), ExpPolyTerm(np.array([-2.0, 1.0]) / np.sqrt(2.0), 1.0)]
    r1, _ = exp_poly_roots(terms, (0.0, 3.0))
    r2, _ = exp_poly_roots(terms, (0.0, 3.0))
    assert np.array_equal(r1, r2)


def test_ap_error_table_vfp_uses_quadrature(qv3):
    grid = {"Nx": 32, "dx": 1.0 / 32.0, "dt": (1.0 / 32.0) ** 2, "kappa": 1.0,
            "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}}
    rows, _ = ap_table("vfp", 3, [1e-4], nodes=qv3.nodes.tolist(), **grid)
    assert rows[0][1] < 1e-2
    # a feasible node set other than the preset gives another gap
    preset = vfp_quadrature(2, 1.0, vfp_preset_nodes(2, 1.0))
    other = vfp_quadrature(2, 1.0, [0.8, _preset_root([0.8], (2.0, 3.0))])
    gaps = [ap_table("vfp", 2, [1e-4], nodes=q.nodes.tolist(), **grid)[0][0][1]
            for q in (preset, other)]
    assert gaps[0] != gaps[1]


def test_ap_error_table_chemo_k1_first_order():
    # the limit step's D is the quadrature's sum w v^2 = 1/4 at K = 1;
    # with the Gauss value 1/3 the gap plateaus near 1e-3 (slope ~0.01)
    _, slope = ap_table(
        "chemo", 1, [1e-3, 1e-4, 1e-5, 1e-6], Nx=32, dx=1.0 / 32.0, dt=(1.0 / 32.0) ** 2
    )
    assert 0.9 <= slope <= 1.1
