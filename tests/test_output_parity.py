"""scripts/output_parity.py: its comparison of two CSV directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "output_parity.py"
_SPEC = importlib.util.spec_from_file_location("output_parity", _PATH)
output_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_parity)


def write(directory, files):
    directory.mkdir(parents=True)
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


SNAP = "t,x,rho\n0,0.25,1.0\n0,0.75,2.0\n"
SWEEP = "epsilon,error\n0.001,4.0e-05\n0.0001,4.0e-06\nslope,1.0\n"


def test_identical_dirs(tmp_path):
    files = {"snapshot_0000.csv": SNAP, "ap_sweep.csv": SWEEP}
    got = output_parity.compare_dirs(write(tmp_path / "a", files), write(tmp_path / "b", files))
    assert (got["count"], got["identical"], got["problems"]) == (2, 2, [])
    assert got["moves"] == {"t": 0.0, "x": 0.0, "rho": 0.0, "epsilon": 0.0, "error": 0.0,
                            "slope": 0.0}


def test_moves_are_relative_to_the_parent_column_max(tmp_path):
    a = write(tmp_path / "a", {"s.csv": SNAP, "ap_sweep.csv": SWEEP})
    b = write(tmp_path / "b", {"s.csv": "t,x,rho\n0,0.25,1.0\n0,0.75,2.000002\n",
                               "ap_sweep.csv": SWEEP.replace("slope,1.0", "slope,0.999")})
    got = output_parity.compare_dirs(a, b)
    assert (got["count"], got["identical"], got["problems"]) == (2, 0, [])
    assert got["moves"]["rho"] == pytest.approx(1e-6)
    assert got["moves"]["slope"] == pytest.approx(1e-3)
    assert got["moves"]["error"] == 0.0  # the labelled row is not in the error column


def test_zero_parent_column_reports_the_absolute_move(tmp_path):
    a = write(tmp_path / "a", {"s.csv": "t,S\n0,0\n"})
    b = write(tmp_path / "b", {"s.csv": "t,S\n0,1e-17\n"})
    assert output_parity.compare_dirs(a, b)["moves"]["S"] == pytest.approx(1e-17)


@pytest.mark.parametrize("change, problem", [
    ({"snapshot_0000.csv": SNAP, "extra.csv": SNAP}, "CSV sets differ"),
    ({"snapshot_0000.csv": SNAP.replace("rho", "S")}, "headers differ"),
    ({"snapshot_0000.csv": SNAP + "0,1.25,3.0\n"}, "row counts"),
    ({"snapshot_0000.csv": SNAP.replace("0,0.75", "x,0.75")}, "text cell"),
])
def test_structural_differences_are_problems(tmp_path, change, problem):
    a = write(tmp_path / "a", {"snapshot_0000.csv": SNAP})
    got = output_parity.compare_dirs(a, write(tmp_path / "b", change))
    assert len(got["problems"]) == 1 and problem in got["problems"][0]


def test_added_column_is_a_problem_and_shared_columns_are_compared(tmp_path):
    a = write(tmp_path / "a", {"snapshot_0000.csv": SNAP})
    b = write(tmp_path / "b", {"snapshot_0000.csv": "t,x,rho,S\n0,0.25,1.0,0.5\n0,0.75,2.000002,0.5\n"})
    got = output_parity.compare_dirs(a, b)
    assert len(got["problems"]) == 1 and "headers differ" in got["problems"][0]
    assert got["moves"]["t"] == got["moves"]["x"] == 0.0
    assert got["moves"]["rho"] == pytest.approx(1e-6)
    assert "S" not in got["moves"]


def test_report_line_names_counts_and_moves():
    line = output_parity.report_line("rte", {"count": 3, "identical": 1,
                                             "moves": {"rho": 2.3e-11}, "problems": []})
    assert line == "rte: 3 CSVs, 1 byte-identical; max relative move: rho 2.3e-11"


def test_rerun_problems_name_changed_and_stale_csvs():
    first = {"snapshot_0000.csv": b"t,x\n0,1\n", "snapshot_0001.csv": b"t,x\n1,1\n"}
    assert output_parity.rerun_problems(first, dict(first)) == []
    rerun = {"snapshot_0000.csv": b"t,x\n0,1\n", "snapshot_0001.csv": b"t,x\n1,2\n",
             "snapshot_0002.csv": b"t,x\n2,1\n"}
    assert output_parity.rerun_problems(first, rerun) == [
        "rerun leaves another CSV set: only first [], only rerun ['snapshot_0002.csv']",
        "rerun not byte-identical: snapshot_0001.csv",
    ]


def test_manifest_problems_ignore_wall_time_and_name_changed_fields(tmp_path):
    manifest = {"status": "ok", "n_steps": 10, "mass_final": 1.0, "wall_time_s": 0.5}
    a = write(tmp_path / "a", {"manifest.json": json.dumps(manifest)})
    b = write(tmp_path / "b", {"manifest.json": json.dumps({**manifest, "wall_time_s": 0.7})})
    assert output_parity.manifest_problems(a, b) == []
    c = write(tmp_path / "c", {"manifest.json": json.dumps({**manifest, "n_steps": 11})})
    assert output_parity.manifest_problems(a, c) == ["manifest: n_steps 10 became 11"]
    none = write(tmp_path / "none", {})
    assert output_parity.manifest_problems(none, none) == []
    assert output_parity.manifest_problems(a, none) == ["manifest only in parent"]


def test_bench_runs_cover_every_sweep_and_both_marches(tmp_path):
    runs = output_parity.bench_runs(tmp_path)
    names = [name for _, name, _ in runs]
    assert len(set(names)) == len(names)  # one output directory each
    configs = [(command, json.loads(path.read_text())) for command, _, path in runs]
    sweeps = {(c["model"], c["K"]) for command, c in configs if command == "sweep"}
    assert sweeps == set(output_parity.workloads.SWEEPS)
    for march in ("chemo_march", "static_march"):
        cycle = output_parity.workloads.build_workload(march, 0, "full").cycle
        assert cycle and all(("run", op.config) in configs for op in cycle)


def test_reversed_sweep_rows_must_be_the_forward_rows_reversed():
    forward = "epsilon,error\n0.1,0.5\n0.01,0.05\n0.1,0.5\n0.001,0.005\nslope,1.0\n"
    backward = "epsilon,error\n0.001,0.005\n0.1,0.5\n0.01,0.05\n0.1,0.5\nslope,1.0000000000000002\n"
    assert output_parity.reversed_row_problems(forward, backward) == []  # the slope may move
    moved = backward.replace("0.01,0.05", "0.01,0.050000000000000003")
    assert output_parity.reversed_row_problems(forward, moved) == [
        "eps 0.01: row '0.01,0.05' became '0.01,0.050000000000000003' reversed"]
    # the forward order again: every row is compared with another eps's
    unreversed = output_parity.reversed_row_problems(forward, forward)
    assert len(unreversed) == 4 and unreversed[0] == "eps 0.1: row '0.1,0.5' became '0.001,0.005' reversed"
    short = "epsilon,error\n0.1,0.5\nslope,1.0\n"
    assert output_parity.reversed_row_problems(forward, short) == [
        "reversed sweep has 1 rows, the forward one 4"]
