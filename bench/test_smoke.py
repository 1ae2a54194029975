"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py      (from the repository root)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from kinwb import cli  # noqa: E402


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _client(name):
    work = ROOT / ".bench_work" / f"smoke-{name}"
    shutil.rmtree(work, ignore_errors=True)
    return workloads.Client(cli.main, work)


def _assert_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    for workload in BENCH["workloads"]:
        metrics = _bench(workload["name"], 0)
        _assert_metrics(metrics, BENCH["end_to_end"])
        assert all(m["value"] > 0 for m in metrics.values())


def test_every_per_layer_metric_is_printed_with_its_unit():
    _assert_metrics(_bench("chemo_march", 1), BENCH["per_layer"])


def test_unstable_config_is_a_failed_op():
    # vfp at dt = dx^2 breaks the parabolic bound dt <= dx^2/(2 kappa): the
    # run grows without bound and exits 0, so only the output checks see it
    config = {**workloads.grid("vfp", 3, 64, 1.0, 200), "epsilon": 1e-4,
              "kappa": 1.0, "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}}
    client = _client("unstable")
    client.execute(workloads.Op("run", config, "unstable"))
    assert (client.attempted, client.failed) == (1, 1)
    assert client.errors and "unstable" in client.errors[0]


def test_stable_config_passes():
    config = {**workloads.grid("vfp", 3, 64, 0.25, 200), "epsilon": 1e-4,
              "kappa": 1.0, "E_profile": {"kind": "sinusoidal", "amplitude": 0.5}}
    client = _client("stable")
    client.execute(workloads.Op("run", config, "stable"))
    client.execute(workloads.Op("run", config, "stable"))
    assert (client.attempted, client.failed) == (2, 0), client.errors
