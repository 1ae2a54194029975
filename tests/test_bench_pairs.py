"""scripts/bench_pairs.py: its summary arithmetic, and one whole run on a
throwaway git checkout whose harness takes no time."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_layer_medians_count_a_missing_layer_as_zero():
    runs = [{"a": 1.0, "b": 4.0}, {"a": 3.0}, {"a": 2.0, "b": 2.0}]
    assert bench_pairs.layer_medians(runs) == {"a": 2.0, "b": 2.0}


def test_metric_medians_leave_out_runs_without_a_value():
    runs = [{"metrics": {"a": {"value": 1.0}, "b": {"value": None}}},
            {"metrics": {"a": {"value": 5.0}}},
            {"metrics": {"a": {"value": 2.0}, "b": {"value": 4.0}}}]
    assert bench_pairs.metric_medians(runs, ["a", "b", "c"]) == {"a": 2.0, "b": 4.0, "c": None}


def test_seed_list_forms():
    assert bench_pairs.seed_list("60-63") == [60, 61, 62, 63]
    assert bench_pairs.seed_list("7,9,11") == [7, 9, 11]


@pytest.mark.parametrize("better, wins", [("lower", 3), ("higher", 1)])
def test_summary_counts_strict_wins_in_the_better_direction(better, wins):
    metric = {"name": "m", "unit": "ms", "better": better, "bound": 0.1}
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 1.5, 2.5, 4.0, 6.0]  # one tie, which no side wins
    summary = bench_pairs.summarize(metric, parent, change)
    assert summary["change_wins"] == wins
    assert summary["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert summary["parent_iqr"] == 2.0
    assert summary["median_change_rel"] == pytest.approx(-0.5 / 3.0)
    assert (summary["unit"], summary["bound"]) == ("ms", 0.1)


_FAKE_HARNESS = '''import json, sys
step = float(open("step_ms.txt").read())
info = {"environment": {"commit": None}}
metrics = {"step_ms": {"value": step, "unit": "ms"}}
if sys.argv[sys.argv.index("--trace") + 1] == "1":
    info["step_ms_attribution"] = {"op.self": step / 4, "kinetic.apply": 3 * step / 4}
    probe = step / 2 if sys.argv[sys.argv.index("--workload") + 1] == "w1" else 3 * step / 2
    metrics = {"scattering.smatrix_ms.nx64.k4": {"value": probe, "unit": "ms"},
               "macrolimit.ref_ms.nx64": {"value": None, "unit": "ms"},
               "spectral.self_ms": {"value": step / 4, "unit": "ms"},
               "undeclared_ms": {"value": 1.0, "unit": "ms"}}
print(json.dumps({"info": info}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def test_writer_records_full_shas_and_the_declared_workloads(tmp_path, monkeypatch):
    """A fake checkout: its harness reads step_ms from a file, which is 2.0
    in the committed parent and 1.0 in the staged change, measured as the
    bare tree that ``git write-tree`` prints; its traced runs report a
    declared size-probe metric, which differs between the workloads, a
    declared probe metric as null, a declared metric of the workload and
    one that is not declared.  Tier-1 is a stand-in that prints a pytest summary
    line: a real nested pytest costs seconds."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "src" / "kinwb").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.5, "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": n, "unit": "ms", "better": "lower"} for n in
                      ("scattering.smatrix_ms.nx64.k4", "macrolimit.ref_ms.nx64",
                       "spectral.self_ms")]}))
    (repo / "bench" / "run.py").write_text(_FAKE_HARNESS)
    (repo / "src" / "kinwb" / "a.py").write_text("x = 1\ny = 2\n")
    (repo / "step_ms.txt").write_text("2.0")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "step_ms.txt").write_text("1.0")
    _git(repo, "add", "-A")
    tree = _git(repo, "write-tree")
    monkeypatch.chdir(repo / "src")  # any directory of the checkout
    monkeypatch.setattr(bench_pairs, "TIER1", [sys.executable, "-c",
                                               "print('\\n1 passed in 0.25s')"])

    assert bench_pairs.main(["--parent", "HEAD", "--change", tree, "--label", "t",
                             "--seeds", "4-5"]) == 0
    report = json.loads((repo / "BENCH_t.json").read_text())
    parent, change = report["revisions"]["parent"], report["revisions"]["change"]
    assert parent["commit"] == _git(repo, "rev-parse", "HEAD")
    assert (change["commit"], change["tree"]) == (None, tree)
    assert change["src"] == _git(repo, "rev-parse", f"{tree}:src") == parent["src"]
    assert all(len(sha) == 40 for sha in (parent["tree"], parent["bench"], change["bench"]))
    assert "--seconds 0.5 " in report["command"]
    assert list(report["workloads"]) == ["w1", "w2"]
    for entry in report["workloads"].values():
        assert entry["step_ms"]["parent"]["runs"] == [2.0, 2.0]
        assert entry["step_ms"]["change"]["runs"] == [1.0, 1.0]
        assert entry["step_ms"]["change_wins"] == 2
        assert entry["operations"] == {"attempted": {"parent": 6, "change": 6},
                                       "failed": {"parent": 0, "change": 0}}
        assert entry["step_ms_attribution"] == {
            "seeds": [4, 5], "parent": {"kinetic.apply": 1.5, "op.self": 0.5},
            "change": {"kinetic.apply": 0.75, "op.self": 0.25}}
        assert entry["per_layer"] == {"seeds": [4, 5], "parent": {"spectral.self_ms": 0.5},
                                      "change": {"spectral.self_ms": 0.25}}
    # the probe reads 1.0 and 3.0 in the parent's two workloads, two runs each
    assert report["size_probe_medians"] == {
        "seeds": [4, 5], "workloads": ["w1", "w2"],
        "parent": {"scattering.smatrix_ms.nx64.k4": 2.0, "macrolimit.ref_ms.nx64": None},
        "change": {"scattering.smatrix_ms.nx64.k4": 1.0, "macrolimit.ref_ms.nx64": None}}
    assert report["tier1"]["change"]["passed"] == 1
    assert report["tier1"]["parent"]["runs_s"] == [0.25] * bench_pairs.TIER1_RUNS
    assert report["src_kinwb_lines"]["change"] == {"a.py": 2, "total": 2}
