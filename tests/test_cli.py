import json
import logging
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinwb import (
    ConfigError,
    DriftDiffusionParams,
    ExperimentConfig,
    ap_error_table,
    ap_gap,
    chemo_drift,
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
    "fields",
    [{"K": 4}, {"K": 2, "nodes": [0.7]}, {"K": 2, "nodes": [2.5, 0.8]}],
    ids=["no-preset-for-K4", "nodes-length", "nodes-order"],
)
def test_vfp_node_config_errors_exit_2(tmp_path, capsys, command, fields):
    config = write_config(
        tmp_path, model="vfp", kappa=1.0, E_profile={"kind": "zero"},
        epsilon=1e-3, epsilon_list=[1e-3, 1e-4], **fields,
    )
    assert main([command, "--config", str(config)]) == 2
    assert "nodes" in capsys.readouterr().err


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
    assert np.array_equal(next(march)[0], rho0)
    assert np.array_equal(next(march)[0], rho1)
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
    ref = sg_step(rho0, DriftDiffusionParams(D=D, E_half=drift, dt=dt, dx=DX))
    assert ap_gap(config, eps) == np.max(np.abs(rho1 - ref)) / np.max(np.abs(ref))


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
    # a sweep marches one model at every eps; its rows are ap_gap's, bitwise
    eps_list = [10.0**-d for d in range(1, 11)]
    config = ExperimentConfig.from_json(
        {"Nx": 64, "dx": 1.0 / 64.0, "dt": (1.0 / 64.0) ** 2 / 4.0,
         "t_final": (1.0 / 64.0) ** 2 / 4.0, "epsilon_list": eps_list, **fields}
    )
    expected = [(e, ap_gap(config, e)) for e in eps_list]
    calls = []
    build = runner.MODELS[config.model]
    monkeypatch.setitem(runner.MODELS, config.model, lambda c: calls.append(c) or build(c))
    rows, _ = ap_error_table(config, eps_list)
    assert len(calls) == 1
    assert [(e, g.hex()) for e, g in rows] == [(e, g.hex()) for e, g in expected]


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
    # the state overflows to a non-finite value within a few hundred steps
    config = write_config(tmp_path, dt=100 * DX**2, t_final=400 * 100 * DX**2)
    assert main(["run", "--config", str(config)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("SolveFailure: step ")
    assert "non-finite" in manifest["error"]


def test_singular_cell_matrix_exits_3(tmp_path):
    # eps = 1e-17 is lost next to (dt/dx) v = 1/sqrt(3), so
    # R_eps = (dt/dx) V [[1, -1], [-1, 1]] is exactly singular
    config = write_config(tmp_path, K=1, Nx=1, dx=1.0, dt=1.0, t_final=1.0, epsilon=1e-17)
    assert main(["run", "--config", str(config)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("SolveFailure") and "R_eps" in manifest["error"]


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


@settings(max_examples=150, deadline=None)
@given(config=fuzz_configs(), command=st.sampled_from(["run", "sweep"]))
@example(config={**_FUZZ_BASE, "model": "chemo", "K": 2, "Nx": 1}, command="run")
@example(config={**_FUZZ_BASE, "model": "twostream", "dx": 2.4e-8}, command="run")
@example(config={**_FUZZ_BASE, "model": "twostream", "dx": 1e-160}, command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "K": 2, "dx": 1e-170}, command="sweep")
@example(config={**_FUZZ_BASE, "model": "rte", "epsilon_list": [1.0, 1.0]}, command="sweep")
@example(config={**_FUZZ_BASE, "model": "chemo", "phi_params": {"delta": 0.0}}, command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "K": 2, "dt": 1e-300, "t_final": 1e300},
         command="run")
@example(config={**_FUZZ_BASE, "model": "rte", "Nx": 1, "dx": 1.0, "dt": 1.0, "t_final": 1.0,
                 "epsilon": 1e-17}, command="run")
def test_config_fuzz_exits_0_2_or_3(config, command):
    # every config runs to finite outputs, or ends in a config error (2) or
    # a numerical one (3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        if code == 0:
            text = "".join(p.read_text() for p in (Path(tmp) / "out").glob("*.csv"))
            assert "nan" not in text and "inf" not in text


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
    _write_snapshot(tmp_path / "a.csv", t, ["%.17g" % v for v in x.tolist()], values, S)
    write_snapshot_rows(tmp_path / "b.csv", t, x, values, S)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
