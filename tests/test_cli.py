import importlib.util
import json
import logging
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinwb import (
    ConfigError,
    ExperimentConfig,
    SolveFailure,
    ap_error_table,
    chemo_drift,
    chemoattractant_update,
    gauss_symmetric,
    interface_grad,
    phi_tanh,
    sg_step,
)
import kinwb
from kinwb import runner
from kinwb.cli import main
from kinwb.quadrature import _preset_root
from kinwb.runner import _setup, _write_snapshot

NX = 32
DX = 1.0 / NX


def write_config(tmp_path, name="c.json", **overrides):
    cfg = {
        "model": "rte",
        "K": 4,
        "Nx": NX,
        "dx": DX,
        "dt": DX**2,
        "t_final": 100 * DX**2,
        "epsilon": 1e-6,
        "initial_density": "cosine_bump",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_all_csv_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))}


def test_run_rte_mass_drift_in_manifest(tmp_path):
    # drift scales like (dt/(eps*dx)) * u_mach per step; at Nx = 64 and
    # eps = 1e-6 the 100-step total stays below 1e-10
    config = write_config(tmp_path, Nx=64, dx=1.0 / 64.0, dt=(1.0 / 64.0) ** 2,
                          t_final=100 * (1.0 / 64.0) ** 2)
    assert main(["run", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["n_steps"] == 100
    assert manifest["mass_drift_total"] < 1e-10
    assert (tmp_path / "out" / "snapshot_0000.csv").exists()


@pytest.mark.parametrize("model, refused", [("rte", True), ("chemo", True), ("twostream", True),
                                             ("vfp", False)])
def test_run_refuses_a_step_that_drops_mass(tmp_path, capsys, monkeypatch, model, refused):
    # every density after the first loses 1e-9 of the mass: a model that
    # conserves mass stops at step 1 with exit 3; vfp, which conserves it only
    # to O(eps) in a field, runs on
    calls, real = iter(range(10**6)), kinwb.models.density
    monkeypatch.setattr(kinwb.models, "density",
                        lambda f, q: real(f, q) * (1.0 - 1e-9 * next(calls)))
    fields = {"K": 1} if model == "twostream" else {}
    if model == "vfp":
        fields = {"K": 2, "kappa": 1.0, "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}}
    config = write_config(tmp_path, model=model, t_final=10 * DX**2, **fields)
    assert main(["run", "--config", str(config)]) == (3 if refused else 0)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    if refused:
        assert "step 1: the relative mass drift" in capsys.readouterr().err
        assert manifest["status"] == "error" and manifest["error"].startswith("SolveFailure")
    else:
        assert manifest["status"] == "ok" and manifest["mass_drift_per_step_max"] > 1e-10


def test_run_rte_at_eps_1e_20_conserves_mass(tmp_path):
    # the shipped rte config deep in eps: R_eps^{-1} is rounding-dominated
    # there, and M's exact mass row keeps the drift at rounding
    cfg = json.loads((CONFIGS / "rte.json").read_text())
    cfg["epsilon"] = 1e-20
    config = tmp_path / "rte.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["mass_drift_per_step_max"] <= 1e-15
    assert manifest["mass_drift_total"] <= 1e-14


def test_invalid_config_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, model="vfp", K=3)  # missing kappa and E_profile
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "kappa" in err and "E_profile" in err
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"model": "rte"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(write_config(tmp_path, name="u.json", unknown_field=1))


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "fields, named",
    [({"K": 4}, "nodes"), ({"K": 2, "nodes": [0.7]}, "nodes"),
     ({"K": 2, "nodes": [2.5, 0.8]}, "nodes"),
     # valid nodes past the Hermite degrees the vfp basis is built from
     ({"K": 66, "nodes": [0.1 * (k + 1) for k in range(66)]}, "K:")],
    ids=["no-preset-for-K4", "nodes-length", "nodes-order", "K66-past-the-hermite-degrees"],
)
def test_vfp_node_config_errors_exit_2(tmp_path, capsys, command, fields, named):
    config = write_config(
        tmp_path, model="vfp", kappa=1.0, E_profile={"kind": "zero"},
        epsilon=1e-3, epsilon_list=[1e-3, 1e-4], **fields,
    )
    assert main([command, "--config", str(config)]) == 2
    assert named in capsys.readouterr().err


def read_rho(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)


def test_sweep_uses_vfp_nodes(tmp_path):
    base = dict(
        model="vfp", K=2, kappa=1.0, E_profile={"kind": "constant", "value": 0.5},
        dt=DX**2 / 4.0, epsilon=None, epsilon_list=[1e-3, 1e-4],
    )
    preset = write_config(tmp_path, name="p.json", output_dir=str(tmp_path / "p"), **base)
    nodes = [0.8, _preset_root([0.8], (2.0, 3.0))]
    other = write_config(tmp_path, name="n.json", output_dir=str(tmp_path / "n"), nodes=nodes, **base)
    assert main(["sweep", "--config", str(preset)]) == 0
    assert main(["sweep", "--config", str(other)]) == 0
    a = (tmp_path / "p" / "ap_sweep.csv").read_bytes()
    b = (tmp_path / "n" / "ap_sweep.csv").read_bytes()
    assert a.split(b"\n")[0] == b.split(b"\n")[0] == b"epsilon,error"
    assert a != b


@pytest.mark.parametrize("model", ["rte", "vfp", "chemo", "twostream"])
def test_ap_gap_steps_like_run(tmp_path, model):
    # the sweep's kinetic step is the first step of `kinwb run`, bitwise, and
    # its reference is one exponential-fitting step with the model's D and drift
    eps, dt = 1e-4, DX**2 / 4.0
    fields = {"K": 1} if model == "twostream" else {}
    if model == "vfp":
        fields = dict(K=2, kappa=1.0, E_profile={"kind": "constant", "value": 0.5},
                      nodes=[0.8, _preset_root([0.8], (2.0, 3.0))])
    path = write_config(tmp_path, model=model, epsilon=eps, dt=dt, t_final=dt, **fields)
    assert main(["run", "--config", str(path)]) == 0
    rho0 = read_rho(tmp_path / "out" / "snapshot_0000.csv")
    rho1 = read_rho(tmp_path / "out" / "snapshot_0001.csv")
    config = ExperimentConfig.from_json(path)
    built, rho_init = _setup(config)
    march = built.march(eps, config.dt, config.dx, rho_init)
    assert np.array_equal(next(march)[0][0], rho0)  # row 0: the march of one eps
    assert np.array_equal(next(march)[0][0], rho1)
    q = gauss_symmetric(4)
    if model == "rte":
        D, drift = q.second_moment, 0.0
    elif model == "vfp":
        D, drift = 1.0, np.full(NX, 0.5)
    else:
        # the chemoattractant that drove the step
        S = np.loadtxt(tmp_path / "out" / "snapshot_0001.csv", delimiter=",", skiprows=1, usecols=3)
        grads = interface_grad(S, DX)
        if model == "chemo":
            D, drift = q.second_moment, -chemo_drift(q, grads, phi_tanh)
        else:
            D, drift = 1.0, phi_tanh(grads)
    ref = sg_step(rho0, D, drift, dt, DX)
    [(_, gap)], _ = ap_error_table(config, [eps])
    assert gap == np.max(np.abs(rho1 - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize(
    "fields",
    [
        {"model": "rte", "K": 4},
        {"model": "chemo", "K": 4, "phi_params": {"chi": 1.3, "delta": 0.7}},
        {"model": "vfp", "K": 2, "kappa": 1.0, "E_profile": {"kind": "constant", "value": 0.5},
         "nodes": [0.8, _preset_root([0.8], (2.0, 3.0))]},
        {"model": "vfp", "K": 3, "kappa": 1.0,
         "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}},
        {"model": "twostream", "K": 1},
    ],
    ids=["rte", "chemo", "vfp-nodes", "vfp-preset", "twostream"],
)
def test_sweep_builds_model_once(monkeypatch, fields):
    # a sweep marches one model at every eps; its rows are those of one-point
    # tables, bitwise
    eps_list = [10.0**-d for d in range(1, 11)]
    config = ExperimentConfig.from_json(
        {"Nx": 64, "dx": 1.0 / 64.0, "dt": (1.0 / 64.0) ** 2 / 4.0,
         "t_final": (1.0 / 64.0) ** 2 / 4.0, "epsilon_list": eps_list, **fields}
    )
    expected = [ap_error_table(config, [e])[0][0] for e in eps_list]
    calls = []
    build, reads = runner.MODELS[config.model]
    monkeypatch.setitem(runner.MODELS, config.model,
                        (lambda c: calls.append(c) or build(c), reads))
    rows, _ = ap_error_table(config, eps_list)
    assert len(calls) == 1
    assert [(e, g.hex()) for e, g in rows] == [(e, g.hex()) for e, g in expected]


def test_sweep_takes_one_limit_step(monkeypatch):
    # the limit step reads no eps, so a table of any length takes one
    config = ExperimentConfig.from_json(
        {"model": "chemo", "K": 2, "Nx": 16, "dx": 1.0 / 16.0, "dt": (1.0 / 16.0) ** 2 / 4.0,
         "t_final": (1.0 / 16.0) ** 2 / 4.0, "epsilon_list": [1e-1, 1e-3, 1e-5, 1e-7]}
    )
    calls = []
    monkeypatch.setattr(runner, "sg_step", lambda *a: calls.append(1) or sg_step(*a))
    for n in (1, 2, 4):
        calls.clear()
        rows, _ = ap_error_table(config, config.epsilon_list[:n])
        assert len(rows) == n and len(calls) == 1


def test_non_finite_limit_step_names_the_first_eps(monkeypatch):
    config = ExperimentConfig.from_json(
        {"model": "rte", "K": 2, "Nx": 16, "dx": 1.0 / 16.0, "dt": (1.0 / 16.0) ** 2 / 4.0,
         "t_final": (1.0 / 16.0) ** 2 / 4.0, "epsilon_list": [1e-3, 1e-5]}
    )
    monkeypatch.setattr(runner, "sg_step", lambda rho, *a: np.full_like(rho, np.nan))
    with pytest.raises(SolveFailure, match=r"^eps=0\.001: the limit scheme produced a non-finite"):
        ap_error_table(config, config.epsilon_list)


# (model, K) of the row-independence draws
SWEEP_MODELS = [("rte", 1), ("rte", 2), ("rte", 4), ("chemo", 1), ("chemo", 2), ("chemo", 4),
                ("vfp", 2), ("vfp", 3), ("twostream", 1)]


def sweep_config(model, K, nx, eps_list):
    """A sweep on Nx cells of dx = 1/Nx at dt = dx^2/4, with the fields its model reads."""
    fields = {
        "chemo": {"phi_params": {"chi": 1.3, "delta": 0.7}},
        "twostream": {"phi_params": {"chi": 1.3, "delta": 0.7}},
        "vfp": {"kappa": 1.0, "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}},
    }.get(model, {})
    dx = 1.0 / nx
    return ExperimentConfig.from_json(
        {"model": model, "K": K, "Nx": nx, "dx": dx, "dt": dx * dx / 4.0, "t_final": dx * dx / 4.0,
         "epsilon_list": eps_list, **fields})


def _straddle(nx):
    """Epsilons on both sides of the B0 switch 1e-8*dx, in one batch."""
    switch = 1e-8 / nx
    return [2.0 * switch, 0.5 * switch, 1e-3, 0.5 * switch, 2.0 * switch]


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(SWEEP_MODELS), nx=st.sampled_from([1, 2, 3, 17, 64]),
       eps_list=st.lists(st.floats(-12.0, -1.0).map(lambda d: 10.0**d), min_size=1, max_size=25))
@example(model=("rte", 4), nx=17, eps_list=_straddle(17))
@example(model=("chemo", 4), nx=64, eps_list=_straddle(64))
@example(model=("vfp", 3), nx=64, eps_list=_straddle(64))
# chemo K = 8 marches two eps a batch: here one member above the switch and
# one below
@example(model=("chemo", 8), nx=64, eps_list=_straddle(64))
# the certificate's rho = 1/2 falls between 0.8 and 0.9 dx/3: two problems of
# the batch of five are certified, three inverted
@example(model=("chemo", 4), nx=64, eps_list=[f / 192.0 for f in (0.9, 0.8, 1.0, 0.7, 0.9)])
# at K = 8 it falls between 0.7 and 0.8 dx/3: each batch of two holds one
# certified and one inverted problem, in either order
@example(model=("chemo", 8), nx=64, eps_list=[f / 192.0 for f in (0.8, 0.7, 0.7, 0.8)])
def test_sweep_rows_are_the_rows_of_one_eps_tables(model, nx, eps_list):
    # the companion of test_sweep_builds_model_once: whatever batches a table
    # marches, each row is its eps's own one-point table, bitwise, in list order
    config = sweep_config(*model, nx, eps_list)
    expected = [ap_error_table(config, [e])[0][0] for e in eps_list]
    rows, _ = ap_error_table(config, eps_list)
    assert [(e, g.hex()) for e, g in rows] == [(e, g.hex()) for e, g in expected]


@pytest.mark.parametrize("model, K, size", [("chemo", 8, 2), ("vfp", 3, 14), ("rte", 16, 32),
                                            ("chemo", 4, 8), ("twostream", 1, 128)])
def test_sweep_batches_keep_one_interface_stack_within_the_budget(monkeypatch, model, K, size):
    # M (2K)^2 entries of a batch's interface stack stay within 2^15; rte has
    # one interface per problem, so a ten-eps sweep is one batch
    config = sweep_config(model, K, 64, [10.0**-d for d in range(1, 11)])
    built, _ = _setup(config)
    assert runner.batch_size(built, 64) == size
    assert runner.batch_size(built, 1) == 1
    marches = []
    march = type(built).march
    monkeypatch.setattr(type(built), "march", lambda self, eps, *a: marches.append(np.size(eps))
                        or march(self, eps, *a))
    ap_error_table(config, config.epsilon_list)
    assert marches == [min(size, 10 - i) for i in range(0, 10, size)]


def test_bench_size_sweep_tables_peak_within_budget():
    # every ap_sweep table of the bench, set-up included, at most 1.8 MB of
    # traced allocations (one eps at a time peaked at 0.83 MB, all ten eps in
    # one chemo K = 8 batch at 8.7 MB)
    import tracemalloc

    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    peaks = {}
    for op in workloads.build_workload("ap_sweep", 7, "full").cycle:
        config = ExperimentConfig.from_json(op.config)
        tracemalloc.start()
        try:
            ap_error_table(config, config.epsilon_list)
            peaks[op.label] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(peaks) == 7 and max(peaks.values()) <= 1.8e6, peaks


@pytest.mark.parametrize("fields, eps_list, message", [
    ({"model": "chemo", "phi_params": {"chi": 30.0, "delta": 0.01}}, [1e-3, 0.05, 1e-4],
     "(NonPositiveRate): eps=0.05: 1 + eps*phi(v*gradS) must be positive"),
    ({"model": "vfp", "K": 3, "kappa": 1.0, "E_profile": {"kind": "sinusoidal", "amplitude": 100.0}},
     [1e-2, 1e-1, 1e-3], "(IllConditioned): eps=0.1: interface 3: mode matrix 1-norm condition"),
])
def test_sweep_failure_names_the_first_failing_eps(tmp_path, capsys, fields, eps_list, message):
    # all three eps are one batch; the interface is counted within its problem
    path = write_config(tmp_path, Nx=16, dx=1.0 / 16, dt=1.0 / 1024, t_final=1.0 / 1024,
                        epsilon=None, epsilon_list=eps_list, **fields)
    assert main(["sweep", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"numerical failure {message}")


@pytest.mark.parametrize("text", ['[["x"]]', "5", '"s"', "null"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", [None, 5, ["out"]])
def test_output_dir_not_a_string_exits_2(tmp_path, capsys, command, value):
    # without --out the config's output_dir is the one read
    path = write_config(tmp_path, output_dir=value, epsilon_list=[1e-3, 1e-4])
    assert main([command, "--config", str(path)]) == 2
    assert "output_dir: must be a string" in capsys.readouterr().err


def test_main_runs_each_subcommand_again_in_one_process(tmp_path, capsys):
    path = write_config(tmp_path, t_final=2 * DX**2, epsilon_list=[1e-3, 1e-4])
    assert main(["run", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
    out = capsys.readouterr().out
    assert out.count("run complete: 3 snapshots") == 2 and "sweep table written" in out
    assert (tmp_path / "s" / "ap_sweep.csv").is_file()
    assert read_all_csv_bytes(tmp_path / "out") == read_all_csv_bytes(tmp_path / "r")


def test_uniform_initial_snapshots_identical(tmp_path):
    config = write_config(tmp_path, initial_density="uniform", t_final=20 * DX**2, epsilon=1e-2)
    assert main(["run", "--config", str(config)]) == 0
    snaps = sorted((tmp_path / "out").glob("snapshot_*.csv"))
    columns = []
    for p in snaps:
        rows = [line.split(",") for line in p.read_text().strip().split("\n")[1:]]
        columns.append(np.array([float(r[2]) for r in rows]))
    for col in columns[1:]:
        # equilibrium held to rounding over the whole run
        assert np.max(np.abs(col - columns[0])) < 1e-13


def test_determinism_bitwise(tmp_path):
    c1 = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "o1"), model="chemo", epsilon=1e-4, t_final=10 * DX**2)
    c2 = write_config(tmp_path, name="b.json", output_dir=str(tmp_path / "o2"), model="chemo", epsilon=1e-4, t_final=10 * DX**2)
    assert main(["run", "--config", str(c1)]) == 0
    assert main(["run", "--config", str(c2)]) == 0
    a = read_all_csv_bytes(tmp_path / "o1")
    b = read_all_csv_bytes(tmp_path / "o2")
    assert a == b
    # a rerun into the same directory rewrites the files in place, to the same bytes
    assert main(["run", "--config", str(c1)]) == 0
    assert read_all_csv_bytes(tmp_path / "o1") == a


def test_sweep_table_and_footer(tmp_path):
    config = write_config(
        tmp_path, epsilon=None, epsilon_list=[1e-3, 3e-4, 1e-4, 3e-5], t_final=DX**2
    )
    assert main(["sweep", "--config", str(config)]) == 0
    table = (tmp_path / "out" / "ap_sweep.csv").read_text().strip().split("\n")
    assert table[0] == "epsilon,error"
    assert len(table) == 6
    assert table[-1].startswith("slope,")
    slope = float(table[-1].split(",")[1])
    assert 0.9 <= slope <= 1.1
    first = (tmp_path / "out" / "ap_sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "ap_sweep.csv").read_bytes() == first


def test_sweep_single_epsilon_no_footer(tmp_path):
    config = write_config(tmp_path, epsilon=None, epsilon_list=[1e-4], t_final=DX**2)
    assert main(["sweep", "--config", str(config)]) == 0
    table = (tmp_path / "out" / "ap_sweep.csv").read_text().strip().split("\n")
    assert len(table) == 2
    assert not table[-1].startswith("slope,")


def test_chemo_sweep_with_zero_response_matches_rte(tmp_path):
    eps_list = [1e-3, 1e-4]
    base = dict(epsilon=None, epsilon_list=eps_list, t_final=DX**2)
    c_rte = write_config(tmp_path, name="r.json", output_dir=str(tmp_path / "r"), **base)
    c_chemo = write_config(
        tmp_path, name="c2.json", output_dir=str(tmp_path / "c"),
        model="chemo", phi_params={"chi": 0.0}, **base,
    )
    assert main(["sweep", "--config", str(c_rte)]) == 0
    assert main(["sweep", "--config", str(c_chemo)]) == 0
    rte = np.loadtxt(
        tmp_path / "r" / "ap_sweep.csv", delimiter=",", skiprows=1, usecols=1,
        max_rows=len(eps_list),
    )
    chemo = np.loadtxt(
        tmp_path / "c" / "ap_sweep.csv", delimiter=",", skiprows=1, usecols=1,
        max_rows=len(eps_list),
    )
    assert np.max(np.abs(rte - chemo)) < 1e-12


def test_verify_scopes(tmp_path, capsys):
    assert main(["verify", "--scope", "roots"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "0.1216" in out
    report = tmp_path / "verify.json"
    assert main(["verify", "--scope", "lemmas", "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert all(entry["passed"] for entry in data)


@pytest.mark.parametrize("command, out", [
    ("run", "taken"),  # an existing file where the directory goes
    ("sweep", "taken/x"),  # a directory under a file
    ("verify", "missing/r.json"),  # a report in a directory that is not there
])
def test_unwritable_output_exits_2(tmp_path, capsys, command, out):
    (tmp_path / "taken").write_text("a file\n")
    path = write_config(tmp_path, t_final=2 * DX**2, epsilon_list=[1e-3, 1e-4])
    args = ["--scope", "roots"] if command == "verify" else ["--config", str(path)]
    assert main([command, *args, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and str(tmp_path) in err


def snapshot_names(directory):
    return sorted(p.name for p in Path(directory).glob("snapshot_????.csv"))


@pytest.mark.parametrize("rerun, code, kept", [
    ({"t_final": DX**2}, 0, ["snapshot_0000.csv", "snapshot_0001.csv"]),
    # fails before its first step: no snapshot of the earlier run is left
    ({"epsilon": None, "epsilon_list": [1e-3, 1e-4]}, 2, []),
])
def test_shorter_rerun_removes_stale_snapshots(tmp_path, rerun, code, kept):
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    out = tmp_path / "out"
    assert len(snapshot_names(out)) == 11
    others = ["snapshot_0001.csv.bak", "snapshot_12345.csv", "notes.txt"]
    for name in others:
        (out / name).write_text("not a snapshot of this run\n")
    assert main(["run", "--config", str(write_config(tmp_path, "r.json", **rerun))]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert snapshot_names(out) == manifest["snapshots"] == kept
    assert all((out / name).exists() for name in others)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("model", ["rte", "chemo", "vfp", "twostream"])
def test_grid_too_long_to_evaluate_exits_2(tmp_path, capsys, command, model):
    # Nx*dx = 1.6e308 is finite, but 2 pi x overflows in the initial density
    fields = {"vfp": {"K": 3, "kappa": 1.0, "E_profile": {"kind": "zero"}},
              "twostream": {"K": 1}}.get(model, {})
    config = write_config(tmp_path, model=model, Nx=4, dx=4e307, epsilon_list=[1e-3], **fields)
    assert main([command, "--config", str(config)]) == 2
    assert "config error: dx, Nx:" in capsys.readouterr().err


def test_vfp_k1_preset_runs_where_sqrt_kappa_squared_is_not_kappa(tmp_path):
    assert np.sqrt(0.3) ** 2 != 0.3
    config = write_config(tmp_path, model="vfp", K=1, kappa=0.3, E_profile={"kind": "zero"})
    assert main(["run", "--config", str(config)]) == 0


def test_manifest_written_on_failure(tmp_path):
    # infeasible vfp nodes surface as a numerical failure, exit 3, manifest kept
    config = write_config(
        tmp_path, model="vfp", K=3, kappa=1.0,
        E_profile={"kind": "zero"}, nodes=[0.6, 1.4, 2.4],
    )
    assert main(["run", "--config", str(config)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "InfeasibleNodes" in manifest["error"]


def test_blow_up_exits_3_with_step_index(tmp_path):
    # far past the parabolic bound dt <= dx^2/(2D) of the explicit B term
    # the state overflows to a non-finite value within a few hundred steps;
    # vfp, since a model that conserves mass is refused by its drift first
    config = write_config(tmp_path, model="vfp", K=2, kappa=1.0, E_profile={"kind": "zero"},
                          dt=100 * DX**2, t_final=400 * 100 * DX**2)
    assert main(["run", "--config", str(config)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("SolveFailure: step ")
    assert "non-finite" in manifest["error"]


def test_blow_up_of_a_model_that_conserves_mass_is_refused_by_its_drift(tmp_path):
    # the same blow-up in rte: rounding of the growing state moves the mass
    # by more than 1e-10 a step long before it overflows
    config = write_config(tmp_path, dt=100 * DX**2, t_final=400 * 100 * DX**2)
    assert main(["run", "--config", str(config)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("SolveFailure: step ")
    assert "mass drift" in manifest["error"]


def test_singular_cell_matrix_exits_3(tmp_path):
    # eps = 1e-17 is lost next to (dt/dx) v = 1/sqrt(3), so
    # R_eps = (dt/dx) V [[1, -1], [-1, 1]] is exactly singular
    config = write_config(tmp_path, K=1, Nx=1, dx=1.0, dt=1.0, t_final=1.0, epsilon=1e-17)
    assert main(["run", "--config", str(config)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("SolveFailure") and "R_eps" in manifest["error"]


def test_non_finite_mode_matrix_exits_3_and_says_so(tmp_path, capsys):
    # a field of 1e300 overflows the vfp modes: the guard names the entries,
    # not a nan condition number
    cfg = json.loads((CONFIGS / "vfp.json").read_text())
    cfg["E_profile"] = {"kind": "constant", "value": 1e300}
    config = tmp_path / "vfp.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "IllConditioned): interface 0: mode matrix has entries that are not finite" in err
    assert "nan" not in err


def test_deep_eps_chemo_on_coarse_cells_exits_0(tmp_path):
    # below the B0 switch a step reads only B0, and the mode matrices it
    # still assembles stay well conditioned at dx = 1/2 and eps = 1e-12
    config = write_config(tmp_path, model="chemo", K=2, Nx=2, dx=0.5, dt=0.0625,
                          t_final=0.25, epsilon=1e-12)
    assert main(["run", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_run_imports_no_scipy(tmp_path):
    # scipy is a test and bench dependency only; a run must not load it
    src = Path(kinwb.__file__).resolve().parents[1]
    code = ("import sys; from kinwb.cli import main; "
            f"code = main(['run', '--config', {str(CONFIGS / 'rte.json')!r}, "
            f"'--out', {str(tmp_path)!r}]); print(code, 'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.splitlines()[-1].split() == ["0", "False"], result.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc parameters")
def test_chemo_steps_reuse_freed_memory(tmp_path):
    # at Nx = 256, K = 8 a chemo step's (Nx, 2K, 2K) temporaries are 512 KB;
    # once the CLI has run, the steps reuse freed heap memory rather than
    # page-faulting in ~900 fresh pages each
    src = Path(kinwb.__file__).resolve().parents[1]
    code = f"""
import resource
import numpy as np
from kinwb import Chemo, gauss_symmetric, phi_tanh
from kinwb.cli import main
main(['run', '--config', {str(CONFIGS / 'rte.json')!r}, '--out', {str(tmp_path)!r}])
nx = 256
march = Chemo(gauss_symmetric(8), phi_tanh).march(
    1e-3, 0.25 / nx**2, 1.0 / nx, 1.0 + 0.5 * np.cos(2 * np.pi * (np.arange(nx) + 0.5) / nx))
for _ in range(10):
    next(march)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    next(march)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert float(result.stdout.splitlines()[-1]) < 10.0, result.stderr


def test_run_vfp_and_twostream(tmp_path):
    config = write_config(
        tmp_path, model="vfp", K=3, kappa=1.0, epsilon=1e-3,
        E_profile={"kind": "sinusoidal", "amplitude": 0.5},
        dt=DX**2 / 4.0, t_final=25 * DX**2,
    )
    assert main(["run", "--config", str(config)]) == 0
    config = write_config(
        tmp_path, name="ts.json", model="twostream", K=1, epsilon=1e-3,
        dt=DX**2 / 4.0, t_final=25 * DX**2, output_dir=str(tmp_path / "ts"),
    )
    assert main(["run", "--config", str(config)]) == 0
    first = (tmp_path / "ts" / "snapshot_0000.csv").read_text().split("\n")[0]
    assert first == "t,x,rho,S"


def test_chemo_snapshots_all_carry_S(tmp_path):
    # like twostream's, the first snapshot holds the field the first step reads
    assert main(["run", "--config", str(CONFIGS / "chemo.json"), "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("snapshot_*.csv"))
    assert len(paths) == 11
    assert {p.read_text().split("\n")[0] for p in paths} == {"t,x,rho,S"}
    rho0, S0 = np.loadtxt(paths[0], delimiter=",", skiprows=1, usecols=(2, 3)).T
    assert np.array_equal(S0, chemoattractant_update(rho0, 1.0 / 64))


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "fields, named",
    [
        ({"phi_params": {"chi": "a"}}, "phi_params"),
        ({"epsilon": "x"}, "epsilon"),
        ({"epsilon_list": [1e-3, "y"]}, "epsilon_list"),
        ({"kappa": "k"}, "kappa"),
        ({"model": "vfp", "K": 3, "kappa": 1.0, "E_profile": {"kind": "square"}}, "E_profile"),
        ({"model": "vfp", "K": 3, "kappa": 1.0,
          "E_profile": {"kind": "sinusoidal", "amplitud": 3.0}},
         "E_profile: unknown keys ['amplitud'] for kind 'sinusoidal'; known: amplitude, kind"),
        # a missing kind means zero, which reads no amplitude
        ({"model": "vfp", "K": 3, "kappa": 1.0, "E_profile": {"amplitude": 3.0}},
         "E_profile: unknown keys ['amplitude'] for kind 'zero'; known: kind"),
        ({"K": True}, "K"),
        ({"Nx": True}, "Nx"),
        ({"seed": 0}, "unknown config fields: ['seed']"),
        ({"model": ["rte"]}, "model"),
        ({"model": "chemo", "phi_params": {"chi": 1.0, "delta": 0}}, "delta must be positive"),
        ({"model": "chemo", "phi_params": {"chi": 1.0, "delat": 0.25}}, "unknown keys ['delat']"),
        ({"K": 2, "Nx": 4, "dt": 1e-300, "t_final": 1e300}, "t_final/dt"),
        # finite but about 1e203 steps: rejected before any step is taken
        ({"K": 2, "Nx": 4, "dx": 0.25, "dt": 1e-3, "t_final": 1e200}, "t_final/dt"),
        # fields the model does not read: rte runs Gauss nodes, no field, no response
        ({"nodes": [0.1, 0.2, 0.3, 0.4]}, "nodes: not read by the rte model"),
        ({"kappa": 5}, "kappa: not read by the rte model"),
        ({"phi_params": {"chi": 9}}, "phi_params: not read by the rte model"),
        ({"E_profile": {"kind": "constant", "value": 1.0}}, "E_profile: not read by the rte model"),
        ({"model": "chemo", "kappa": 5}, "kappa: not read by the chemo model"),
        ({"model": "twostream", "K": 1, "E_profile": {"kind": "zero"}},
         "E_profile: not read by the twostream model"),
        ({"model": "vfp", "K": 3, "kappa": 1.0, "E_profile": {"kind": "zero"},
          "phi_params": {"chi": 2.0}}, "phi_params: not read by the vfp model"),
    ],
    ids=["phi-string", "epsilon-string", "epsilon-list-string", "kappa-string", "E-kind",
         "E-unknown-key", "E-key-of-zero", "K-bool", "Nx-bool", "seed-unknown", "model-list",
         "delta-zero", "phi-unknown-key", "steps-overflow", "steps-huge", "rte-nodes",
         "rte-kappa", "rte-phi", "rte-E", "chemo-kappa", "twostream-E", "vfp-phi"],
)
def test_config_value_errors_exit_2(tmp_path, capsys, command, fields, named):
    config = write_config(tmp_path, **{"epsilon_list": [1e-3, 1e-4], **fields})
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not (tmp_path / "out").exists()


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def fuzz_configs(draw):
    """Configs of every model over wide ranges, valid or not; one step each."""
    K = draw(st.integers(1, 4))
    dt = draw(_log_uniform(-20, 2))
    config = {
        "model": draw(st.sampled_from(["rte", "chemo", "vfp", "twostream"])),
        "K": K, "Nx": draw(st.integers(1, 8)), "dx": draw(_log_uniform(-170, 2)),
        "dt": dt, "t_final": dt, "epsilon": draw(_log_uniform(-20, 2)),
        "epsilon_list": draw(st.lists(_log_uniform(-20, 2), min_size=1, max_size=3)),
        "initial_density": draw(st.sampled_from(["uniform", "cosine_bump", "gaussian"])),
    }
    optional = {
        "phi_params": st.fixed_dictionaries(
            {"chi": st.floats(-5.0, 5.0),
             "delta": st.one_of(_log_uniform(-3, 3), st.floats(-5.0, 0.0))}),
        "kappa": _log_uniform(-3, 3),
        "E_profile": st.one_of(
            st.just({"kind": "zero"}),
            st.builds(lambda v: {"kind": "constant", "value": v}, st.floats(-5.0, 5.0)),
            st.builds(lambda a: {"kind": "sinusoidal", "amplitude": a}, st.floats(-5.0, 5.0)),
        ),
        "nodes": st.lists(_log_uniform(-1, 1), min_size=K, max_size=K, unique=True).map(sorted),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            config[name] = draw(values)
    return config


_FUZZ_BASE = {"K": 1, "Nx": 4, "dx": 0.25, "dt": 1e-3, "t_final": 1e-3, "epsilon": 1e-3,
              "epsilon_list": [1e-3], "initial_density": "cosine_bump"}
_FUZZ_VFP = {"model": "vfp", "kappa": 1.0, "E_profile": {"kind": "zero"}}


@settings(max_examples=150, deadline=None)
@given(config=fuzz_configs(), command=st.sampled_from(["run", "sweep"]))
@example(config={**_FUZZ_BASE, "model": "chemo", "K": 2, "Nx": 1}, command="run")
@example(config={**_FUZZ_BASE, "model": "twostream", "dx": 2.4e-8}, command="run")
@example(config={**_FUZZ_BASE, "model": "twostream", "dx": 1e-160}, command="run")
# the elliptic symbol overflows to inf, whose inverse 0 is the exact limit: exit 0
@example(config={**_FUZZ_BASE, "model": "chemo", "K": 2, "Nx": 8, "dx": 1e-160, "dt": 1e-164,
                 "t_final": 1e-164}, command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "K": 2, "dx": 1e-170}, command="sweep")
@example(config={**_FUZZ_BASE, "model": "rte", "epsilon_list": [1.0, 1.0]}, command="sweep")
@example(config={**_FUZZ_BASE, "model": "chemo", "phi_params": {"delta": 0.0}}, command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "K": 2, "dt": 1e-300, "t_final": 1e300},
         command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "Nx": 1, "dx": 1.0, "dt": 1.0, "t_final": 1.0,
                 "epsilon": 1e-17}, command="run")
# dx*dx and eps*eps overflow to inf, where Python's ** raised OverflowError
@example(config={**_FUZZ_BASE, "model": "rte", "dx": 1e300}, command="run")
@example(config={**_FUZZ_BASE, "model": "chemo", "dx": 1e300}, command="run")
@example(config={**_FUZZ_BASE, **_FUZZ_VFP, "dx": 1e300}, command="run")
@example(config={**_FUZZ_BASE, **_FUZZ_VFP, "epsilon": 1e300}, command="run")
# a grid no machine can allocate: NumPy raises MemoryError at once
@example(config={**_FUZZ_BASE, "model": "rte", "Nx": 10**15}, command="run")
@example(config={**_FUZZ_BASE, **_FUZZ_VFP, "Nx": 10**15}, command="sweep")
# Nx*dx is finite, but the initial density is not: 2 pi x overflows, or x does
@example(config={**_FUZZ_BASE, "model": "rte", "dx": 4e307}, command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "Nx": 1000, "dx": 1e306}, command="sweep")
@example(config={**_FUZZ_BASE, "model": "chemo", "dx": 1e308}, command="run")
@example(config={**_FUZZ_BASE, "model": "chemo", "dx": 4e307}, command="sweep")
@example(config={**_FUZZ_BASE, **_FUZZ_VFP, "Nx": 1000, "dx": 1e306}, command="run")
@example(config={**_FUZZ_BASE, **_FUZZ_VFP, "dx": 1e308}, command="sweep")
# the sqrt(kappa)-scaled preset overflows v^2 and 2 kappa
@example(config={**_FUZZ_BASE, **_FUZZ_VFP, "K": 2, "kappa": 1e308}, command="run")
def test_config_fuzz_exits_0_2_or_3(config, command):
    # every config runs to finite outputs, or ends in a config error (2) or
    # a numerical one (3), without a NumPy warning on the way
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        if code == 0:
            text = "".join(p.read_text() for p in (Path(tmp) / "out").glob("*.csv"))
            assert "nan" not in text and "inf" not in text


# each field's JSON type; a value of another type, null aside, is a config error
_FIELD_TYPES = {"model": str, "K": int, "Nx": int, "dx": float, "dt": float, "t_final": float,
                "initial_density": str, "output_dir": str, "epsilon": float,
                "epsilon_list": list, "kappa": float, "E_profile": dict, "phi_params": dict,
                "nodes": list}
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.sampled_from([1.7e308, -1.7e308]),
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.sampled_from(["kind", "value", "chi", "x"]),
                    st.one_of(st.none(), st.floats(-5.0, 5.0), st.text(max_size=2),
                              st.lists(st.text(max_size=1), max_size=1)), max_size=2),
)


def _has_type(value, expected):
    """JSON typing: a bool is not a number, and an int is also a float."""
    if isinstance(value, bool) or expected is not float:
        return type(value) is expected
    return isinstance(value, (int, float))


@settings(max_examples=100, deadline=None)
@given(config=fuzz_configs(), name=st.sampled_from(sorted(_FIELD_TYPES)), value=_ANY_JSON,
       command=st.sampled_from(["run", "sweep"]))
# names and kinds that cannot be dict keys
@example(config={**_FUZZ_BASE, "model": "rte"}, name="initial_density", value=["x"],
         command="run")
@example(config={**_FUZZ_BASE, **_FUZZ_VFP}, name="E_profile", value={"kind": ["zero"]},
         command="sweep")
def test_config_fields_of_any_json_type_exit_0_2_or_3(config, name, value, command):
    # any field may hold any JSON value: the command still ends in an exit
    # code, and in a config error when the value has the wrong type
    config = {**config, name: value}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    wrong = value is not None and not _has_type(value, _FIELD_TYPES[name])
    assert code in ((2,) if wrong else (0, 2, 3))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["rte", "chemo", "vfp", "twostream", "sweep_rte"])
def test_shipped_configs_log_no_warning(tmp_path, caplog, name):
    command = "sweep" if name.startswith("sweep") else "run"
    with caplog.at_level(logging.WARNING):
        assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_step_past_parabolic_bound_warns_once(tmp_path, caplog):
    # vfp at dt = dx^2 > dx^2/(2 kappa): the explicit B term is unstable
    config = write_config(
        tmp_path, model="vfp", K=3, kappa=1.0, epsilon=1e-3,
        E_profile={"kind": "sinusoidal", "amplitude": 0.5}, dt=DX**2, t_final=5 * DX**2,
    )
    # the closed-form two-stream step has no explicit B term and no such bound
    twostream = write_config(
        tmp_path, name="ts.json", model="twostream", K=1, epsilon=1e-3,
        dt=DX**2, t_final=5 * DX**2, output_dir=str(tmp_path / "ts"),
    )
    with caplog.at_level(logging.WARNING):
        main(["run", "--config", str(config)])
        assert main(["run", "--config", str(twostream)]) == 0
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert "dx^2/(2D)" in warnings[0].getMessage()


def test_step_cap_is_the_documented_constant():
    def errors(t_final):
        config = ExperimentConfig(model="rte", K=2, Nx=4, dx=0.25, dt=1.0, t_final=t_final,
                                  epsilon=1e-3)
        return [e for e in config.validation_errors() if "t_final/dt" in e]

    assert runner.MAX_STEPS == 10**9
    assert errors(float(runner.MAX_STEPS)) == []
    assert errors(float(runner.MAX_STEPS) * (1.0 + 1e-15)) != []


def test_parabolic_bound_warns_once_per_sweep_and_run(tmp_path, caplog):
    # the bound dt <= dx^2/(2D) does not depend on eps: a ten-point sweep
    # checks it once, like a run
    config = write_config(
        tmp_path, model="vfp", K=3, kappa=1.0, epsilon=1e-3,
        epsilon_list=[10.0**-d for d in range(1, 11)],
        E_profile={"kind": "sinusoidal", "amplitude": 0.5}, dt=DX**2, t_final=DX**2,
    )
    for command in ("sweep", "run"):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main([command, "--config", str(config)]) == 0
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1, command
        assert "dx^2/(2D)" in warnings[0].getMessage()


def write_snapshot_rows(path, t, x, rho, S=None):
    """The row-by-row writer the snapshot format is defined by."""
    with open(path, "w") as fh:
        fh.write("t,x,rho" + (",S" if S is not None else "") + "\n")
        for j in range(len(x)):
            row = f"{t:.17g},{x[j]:.17g},{rho[j]:.17g}"
            if S is not None:
                row += f",{S[j]:.17g}"
            fh.write(row + "\n")


@pytest.mark.parametrize("with_S", [False, True])
@pytest.mark.parametrize("t", [0.0, 0.1, 1e-300, 3.0517578125e-05])
def test_snapshot_bytes_match_row_writer(tmp_path, with_S, t):
    values = np.array([-0.0, 1e-300, 1.0, 0.1, -2.5e-17, 1 / 3, 5e-324, 12345.678, np.pi])
    x = (np.arange(len(values)) + 0.5) / len(values)
    x[0] = -0.0
    S = values[::-1].copy() if with_S else None
    write_snapshot_rows(tmp_path / "b.csv", t, x, values, S)
    expected = (tmp_path / "b.csv").read_bytes()
    stale = b"9" * len(expected) + b"\nstale tail\n"
    # the snapshot is written over what the target holds, and no tail of it is left
    for before in (None, stale[:10], stale):
        target = tmp_path / f"a{0 if before is None else len(before)}.csv"
        if before is not None:
            target.write_bytes(before)
        _write_snapshot(target, t, ["%.17g" % v for v in x.tolist()], values, S)
        assert target.read_bytes() == expected, before
