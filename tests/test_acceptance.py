"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here, not tuned at runtime."""

import json

import numpy as np

from kinwb import (
    Chemo,
    ExperimentConfig,
    ExpPolyTerm,
    KineticGrid,
    Rte,
    Vfp,
    VelocityQuadrature,
    assemble_cell_matrix,
    ap_error_table,
    chemo_interfaces,
    chemoattractant_update,
    density,
    equilibrium,
    exp_poly_roots,
    gauss_symmetric,
    imex_step,
    kernel_range_check,
    moment_report,
    orthogonality_check,
    phi_tanh,
    Rte,
    rte_closure,
    step_operator,
    stochasticity_check,
    ts_smatrix,
    ts_step,
    vfp_closure,
    vfp_preset_nodes,
    vfp_quadrature,
    vfp_interfaces,
    dispersion_roots,
)
from kinwb.cli import main as cli_main

NX = 64
DX = 1.0 / NX
DT = DX**2
GRID = dict(Nx=NX, dx=DX, dt=DT)
EPS_SWEEP = [1e-3, 3e-4, 1e-4, 3e-5]


def ap_config(model, K, **fields):
    """A sweep config on the acceptance grid; ap_error_table reads all but epsilon_list."""
    return ExperimentConfig(model=model, K=K, t_final=DT, epsilon_list=EPS_SWEEP, **GRID, **fields)


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_ap_limit_rte():
    rows, _ = ap_error_table(ap_config("rte", 4), [1e-6])
    gap = rows[0][1]
    _, slope = ap_error_table(ap_config("rte", 4), EPS_SWEEP)
    ok = gap < 1e-5 and 0.9 <= slope <= 1.1
    report(1, ok, f"rte one-step gap {gap:.2e} (< 1e-5), slope {slope:.3f} in [0.9, 1.1]")


def test_criterion_2_ap_limit_chemo():
    rows, _ = ap_error_table(ap_config("chemo", 4), [1e-6])
    gap = rows[0][1]
    report(2, gap < 1e-4, f"chemo one-step gap vs SG drift scheme {gap:.2e} (< 1e-4)")


def test_criterion_3_ap_limit_vfp():
    q = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    rep = moment_report(q)
    sigma_ok = abs(rep.sigma2 - 1.0 * rep.sigma0) < 1e-10  # holds by construction
    config = ap_config("vfp", 3, kappa=1.0, E_profile={"kind": "sinusoidal", "amplitude": 0.5})
    rows, _ = ap_error_table(config, [1e-6])
    gap = rows[0][1]
    ok = sigma_ok and gap < 1e-4
    report(3, ok, f"vfp one-step gap {gap:.2e} (< 1e-4), sigma2 = kappa*sigma0 by construction")


def _drift_over_steps(step, state0, norm, n_steps):
    state = state0
    worst = 0.0
    for _ in range(n_steps):
        state = step(state)
        worst = max(worst, norm(state))
    return worst


def test_criterion_4_well_balanced_steady_states():
    details = []
    ok = True
    # rte / chemo / vfp: the zero-eigenvalue (Maxwellian) expansion state
    q4 = gauss_symmetric(4)
    qv = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    cases = [
        ("rte", Rte(q4)),
        ("chemo", Chemo(q4, phi_tanh)),
        ("vfp", Vfp(qv, np.zeros(NX))),
    ]
    for name, model in cases:
        f0 = equilibrium(np.full(NX, 1.3), model.q)
        grid = KineticGrid(Nx=NX, dx=DX, dt=DT / 4.0, epsilon=1e-3, q=model.q, f=f0)
        op = step_operator(grid, model)

        def step(g):
            # chemo re-solves its field every step; rte and vfp have none
            return imex_step(g, op, model.field(density(g.f, g.q), DX))

        drift = _drift_over_steps(step, grid, lambda g: float(np.max(np.abs(g.f - f0))), 100)
        details.append(f"{name} {drift:.2e}")
        ok = ok and drift < 1e-10
    # two-stream equilibrium; its field is re-solved every step
    def ts(f):
        S = chemoattractant_update(f[:, 0] + f[:, 1], DX)
        return ts_step(f, S, 1e-3, DT / 4.0, DX, phi_tanh)

    drift = _drift_over_steps(
        ts, np.full((NX, 2), 0.65), lambda f: float(np.max(np.abs(f - 0.65))), 100
    )
    details.append(f"twostream {drift:.2e}")
    ok = ok and drift < 1e-10
    report(4, ok, "steady-state drift over 100 steps: " + ", ".join(details) + " (< 1e-10)")


def test_criterion_5_mass_conservation_1000_steps():
    nx = 32
    dx = 1.0 / nx
    x = (np.arange(nx) + 0.5) * dx
    rho0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    details = []
    ok = True

    def kinetic_case(model, dt):
        grid = KineticGrid(
            Nx=nx, dx=dx, dt=dt, epsilon=1e-2, q=model.q, f=equilibrium(rho0, model.q),
        )
        op = step_operator(grid, model)
        m_prev = float(np.sum(density(grid.f, grid.q)) * grid.dx)
        m0 = m_prev
        worst = 0.0
        for _ in range(1000):
            grid = imex_step(grid, op, model.field(density(grid.f, grid.q), dx))
            m = float(np.sum(density(grid.f, grid.q)) * grid.dx)
            worst = max(worst, abs(m - m_prev) / m0)
            m_prev = m
        return worst

    q4 = gauss_symmetric(4)
    qv = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    for name, model, dt in [
        ("rte", Rte(q4), dx**2),
        ("chemo", Chemo(q4, phi_tanh), dx**2),
        # E = 0: the regime where the discrete zero-flux identities cover
        # every mode (with E != 0 conservation is O(eps) per step)
        ("vfp", Vfp(qv, np.zeros(nx)), dx**2 / 4.0),
    ]:
        worst = kinetic_case(model, dt)
        details.append(f"{name} {worst:.2e}")
        ok = ok and worst < 1e-12

    f = np.column_stack([rho0 / 2.0, rho0 / 2.0])
    m_prev = float(np.sum(f[:, 0] + f[:, 1]) * dx)
    m0 = m_prev
    worst = 0.0
    for _ in range(1000):
        f = ts_step(f, chemoattractant_update(f[:, 0] + f[:, 1], dx), 1e-3, dx**2 / 4.0, dx,
                    phi_tanh)
        m = float(np.sum(f[:, 0] + f[:, 1]) * dx)
        worst = max(worst, abs(m - m_prev) / m0)
        m_prev = m
    details.append(f"twostream {worst:.2e}")
    ok = ok and worst < 1e-12
    report(5, ok, "max per-step mass drift over 1000 steps: " + ", ".join(details) + " (< 1e-12)")


def test_criterion_6_lemma_suite():
    dt, dx = 1e-3, 1.0 / 16.0
    checks = []
    R0 = np.array([[1.0, -1.0], [-1.0, 1.0]]) * dt / dx
    q1 = VelocityQuadrature(nodes=[1.0], weights=[1.0])  # two-stream: v = 1, w = 1
    checks.append(("twostream", kernel_range_check(R0, q1).passed))
    q4 = gauss_symmetric(4)
    cl = rte_closure(q4, dispersion_roots(q4))
    S0 = np.eye(4) - cl.zeta @ cl.gamma
    checks.append(
        ("rte/chemo", kernel_range_check(assemble_cell_matrix(0.0, dt, dx, q4, S0), q4).passed)
    )
    qv = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    clv = vfp_closure(qv)
    S0v = np.eye(3) - clv.zeta @ clv.gamma
    checks.append(
        ("vfp", kernel_range_check(assemble_cell_matrix(0.0, dt, dx, qv, S0v), qv).passed)
    )
    devs = [stochasticity_check(ts_smatrix(1e-3, dx, 0.7), q1).col_sum_deviation]
    devs.append(
        stochasticity_check(Rte(q4).interfaces(1e-3, dx, None).S[0], q4).col_sum_deviation
    )
    S = chemo_interfaces(1e-3, dx, Chemo(q4, phi_tanh), [0.8]).S[0]
    devs.append(stochasticity_check(S, q4).col_sum_deviation)
    ok = all(p for _, p in checks) and max(devs) < 1e-10
    report(
        6, ok,
        "kernel/range " + ", ".join(f"{n}={'ok' if p else 'BAD'}" for n, p in checks)
        + f"; stochastic col-sum dev max {max(devs):.2e} (< 1e-10)",
    )


def test_criterion_7_reference_root_values():
    terms = [ExpPolyTerm([1.5], 0.0), ExpPolyTerm(np.array([-2.0, 1.0]) / np.sqrt(2.0), 1.0)]
    roots2, _ = exp_poly_roots(terms, (0.0, 3.0))
    ok2 = len(roots2) == 2 and np.max(np.abs(roots2 - [0.1216, 1.5495])) < 1e-3
    terms = [
        ExpPolyTerm([-2.75], 0.0),
        ExpPolyTerm([-0.4, 0.2], 1.0),
        ExpPolyTerm([3.0, -2.0 * np.sqrt(2.0), 0.5], np.sqrt(2.0)),
    ]
    roots3, _ = exp_poly_roots(terms, (0.0, 6.0))
    ok3 = len(roots3) == 3 and np.max(np.abs(roots3 - [0.132, 0.796, 4.192])) < 1e-3
    rng = np.random.default_rng(7)
    bound_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 4))
        rates = np.sort(rng.uniform(-2.0, 2.0, n))
        terms = [ExpPolyTerm(rng.standard_normal(int(rng.integers(1, 4))), r) for r in rates]
        roots, bound = exp_poly_roots(terms, (-3.0, 3.0), samples=20_000)
        bound_ok = bound_ok and len(roots) <= bound
    ok = ok2 and ok3 and bound_ok
    report(
        7, ok,
        f"roots {np.round(roots2, 4)} and {np.round(roots3, 4)} within 1e-3; "
        f"50 random instances within the root-count bound",
    )


def test_criterion_8_decomposition():
    q4 = gauss_symmetric(4)
    lam = dispersion_roots(q4)
    cl = rte_closure(q4, lam)
    qv = vfp_quadrature(1.0, vfp_preset_nodes(3, 1.0))
    leading = {"rte": cl.S0, "chemo": cl.S0, "vfp": vfp_closure(qv).S0}

    built = {"rte": Rte(q4), "chemo": Chemo(q4, phi_tanh), "vfp": Vfp(qv, [0.5])}

    def build(model, eps):
        if model == "rte":
            return built["rte"].interfaces(eps, DX, None)
        if model == "chemo":
            return chemo_interfaces(eps, DX, built["chemo"], [0.8])
        return vfp_interfaces(eps, DX, built["vfp"])

    details = []
    ok = True
    for model in ("rte", "chemo", "vfp"):
        norms = []
        for eps in (1e-2, 1e-3, 1e-4):
            stack, S0 = build(model, eps), leading[model]
            Z = np.zeros_like(S0)
            Sf = np.block([[Z, S0], [S0, Z]]) + eps * stack.B[0]
            rec = np.max(np.abs(stack.S[0] - Sf)) / np.max(np.abs(stack.S[0]))
            ok = ok and rec < 1e-12
            norms.append(np.max(np.abs(stack.B[0] - stack.B0[0])))
        decay = norms[0] / norms[1], norms[1] / norms[2]
        ok = ok and norms[0] > norms[1] > norms[2]
        ok = ok and abs(decay[0] - 10.0) < 3.5 and abs(decay[1] - 10.0) < 3.5
        details.append(f"{model} decay x{decay[0]:.1f}, x{decay[1]:.1f}")
    report(8, ok, "reconstruction < 1e-12; first-order B-limit: " + ", ".join(details))


def test_criterion_9_orthogonality():
    details = []
    ok = True
    for K in (2, 3, 4, 6):
        q = gauss_symmetric(K)
        res = np.max(orthogonality_check(q))
        ok = ok and res < 1e-10
        details.append(f"rte K={K}: {res:.1e}")
    q4 = gauss_symmetric(4)
    phip = phi_tanh(q4.nodes * 0.8)
    T = np.concatenate([1.0 + 1e-3 * phip, 1.0 - 1e-3 * phip])
    res = np.max(orthogonality_check(q4, T_values=T))
    ok = ok and res < 1e-10
    details.append(f"chemo: {res:.1e}")
    for K in (2, 3):
        qv = vfp_quadrature(1.0, vfp_preset_nodes(K, 1.0))
        res = np.max(moment_report(qv).orthogonality_residuals[:-1])
        ok = ok and res < 1e-10
        details.append(f"vfp K={K}: {res:.1e}")
    report(9, ok, "max residuals " + ", ".join(details) + " (< 1e-10)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "model": "chemo", "K": 4, "Nx": 32, "dx": 1.0 / 32.0, "dt": (1.0 / 32.0) ** 2,
        "t_final": 20 * (1.0 / 32.0) ** 2, "epsilon": 1e-4,
        "initial_density": "cosine_bump", "output_dir": "",
    }
    outputs = []
    for run in ("a", "b"):
        path = tmp_path / f"cfg_{run}.json"
        cfg["output_dir"] = str(tmp_path / run)
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(path)]) == 0
        outputs.append(
            {p.name: p.read_bytes() for p in sorted((tmp_path / run).glob("*.csv"))}
        )
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(10, ok, f"{len(outputs[0])} snapshot CSVs bitwise identical across repeated runs")
