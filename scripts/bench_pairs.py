"""Paired benchmark runs of two git revisions, written as ``BENCH_<label>.json``.

    python3 scripts/bench_pairs.py --parent REV --change REV --label L \\
        --seeds 60-69 [--title "what the change does"] [--host "the machine"]

Run from inside a kinwb git checkout; the JSON is written to its root.  A
REV is anything ``git archive`` takes: a commit, or a tree such as ``git
write-tree`` prints for staged work that is not committed yet.  Each side is
recorded by full sha: its commit (null for a bare tree), its tree, and the
trees of ``src`` and ``bench``, the code the harness runs.  Those two stay
the same when the measured work is later committed together with the BENCH
file, so ``git rev-parse <commit>:src`` checks which code was measured.

Both revisions are extracted with ``git archive`` into a temporary
directory.  The workloads and the run length are those of the change's
``BENCHMARK.json``.  For every workload and seed the two trees run

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

one after the other: the parent first on even seeds, the change first on
odd ones, one run at a time.  After those pairs each tree runs every
workload again with ``--trace 1`` on the first ``TRACED_SEEDS`` seeds,
paired in the same order, and the JSON keeps each side's
``step_ms_attribution``, the step time split by layer, as the median of
each layer over those runs (a layer missing from a run counts 0), and its
``per_layer`` metrics, the median of every ``per_layer`` metric that
``BENCHMARK.json`` declares over the same runs' result lines (a run that
reports a metric as null or not at all is left out of its median, which is
null when no run has a value).  The size probe's metrics, the names with
``.nx``, are the same probe in every workload's traced run, so each side
gets one median of each, ``size_probe_medians``, pooled over all its traced runs
of all workloads, and the workloads' ``per_layer`` leave them out.  Then
the tier-1 suite runs in both trees, alternating, ``TIER1_RUNS`` times
each.  The JSON holds, per workload and
end-to-end metric of ``BENCHMARK.json``, every run, the median and quartiles
of each side (``numpy.percentile``, linear), the pairs the change won, the
relative change of the median and the parent's quartile spread; then the
pytest-reported tier-1 times, ``wc -l src/kinwb/*.py`` of both trees, and
the environment line of the harness.  Progress goes to stderr.  Nothing is
written until every run has ended.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TIER1_RUNS = 3
TRACED_SEEDS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_COMMAND = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"


def seed_list(text: str) -> list[int]:
    """``60-69`` or ``60,61,65``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def resolve(rev: str) -> dict:
    """Full shas of a revision: commit (None for a tree), tree, src, bench."""
    tree = git("rev-parse", "--verify", f"{rev}^{{tree}}")
    commit = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                            capture_output=True, text=True).stdout.strip()
    return {"commit": commit or None, "tree": tree,
            **{d: git("rev-parse", "--verify", f"{tree}:{d}") for d in ("src", "bench")}}


def extract(root: Path, tree: str, dest: Path) -> Path:
    """The whole tree, also when run from a subdirectory of the checkout."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=root,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float,
          trace: int = 0) -> tuple[dict, dict]:
    """(result, info) of one harness run: its last two stdout lines."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def tier1(tree: Path) -> tuple[int, float]:
    """(tests passed, pytest-reported seconds) of one tier-1 run."""
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(TIER1, cwd=tree, capture_output=True, text=True, env=env,
                          timeout=3600)
    last = proc.stdout.strip().splitlines()[-1]
    passed = re.search(r"(\d+) passed", last)
    seconds = re.search(r"in ([\d.]+)s", last)
    if not (passed and seconds):
        raise RuntimeError(f"{tree.name}: no pytest summary in {last!r}")
    return int(passed.group(1)), float(seconds.group(1))


def line_counts(tree: Path) -> dict:
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((tree / "src" / "kinwb").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def order(seed: int) -> tuple[str, str]:
    """The two sides in the order they run on ``seed``."""
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def layer_medians(runs: list) -> dict:
    """The per-layer median of several ``step_ms_attribution`` dicts."""
    layers = sorted({layer for run in runs for layer in run})
    return {layer: float(np.median([run.get(layer, 0.0) for run in runs])) for layer in layers}


def metric_medians(results: list, names: list) -> dict:
    """The median of each named metric over several harness result lines,
    over the runs that report a number for it; None when none does."""
    medians = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results
                  if r["metrics"].get(name, {}).get("value") is not None]
        medians[name] = float(np.median(values)) if values else None
    return medians


def side(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def summarize(metric: dict, parent_runs: list, change_runs: list) -> dict:
    """One metric of one workload; ``metric`` is its BENCHMARK.json entry."""
    parent, change = side(parent_runs), side(change_runs)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))
    rel = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change, "change_wins": int(wins),
            "median_change_rel": rel, "parent_iqr": parent["q3"] - parent["q1"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision measured against it")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--title", default="", help="one line on what the change does")
    parser.add_argument("--host", default=f"{os.cpu_count()}-core {platform.machine()} host",
                        help="a description of the machine, for the record")
    args = parser.parse_args(argv)

    root = Path(git("rev-parse", "--show-toplevel"))
    revisions = {"parent": resolve(args.parent), "change": resolve(args.change)}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {name: extract(root, rev["tree"], Path(tmp) / name)
                 for name, rev in revisions.items()}
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = declared["run_seconds"]
        workloads = [w["name"] for w in declared["workloads"]]
        results = {w: {"parent": [], "change": []} for w in workloads}
        environment = None
        for workload in workloads:
            for seed in args.seeds:
                for name in order(seed):
                    result, info = bench(trees[name], workload, seed, seconds)
                    results[workload][name].append(result)
                    if name == "change" and environment is None:
                        environment = info["environment"]
                    step = result["metrics"].get("step_ms", {}).get("value")
                    print(f"{workload} seed {seed} {name}: step_ms {step}", file=sys.stderr)
        attribution, layer_metrics = {}, {}
        traced_seeds = args.seeds[:TRACED_SEEDS]
        layer_names = [m["name"] for m in declared.get("per_layer", [])]
        probe_names = [name for name in layer_names if ".nx" in name]
        layer_names = [name for name in layer_names if ".nx" not in name]
        probe_runs = {"parent": [], "change": []}  # every traced result line of a side
        for workload in workloads:
            traced = {"parent": [], "change": []}
            for seed in traced_seeds:
                for name in order(seed):
                    traced[name].append(bench(trees[name], workload, seed, seconds, trace=1))
                    print(f"{workload} seed {seed} traced {name}: done", file=sys.stderr)
            attribution[workload] = {"seeds": traced_seeds, **{
                name: layer_medians([info["step_ms_attribution"] for _, info in runs])
                for name, runs in traced.items()}}
            layer_metrics[workload] = {"seeds": traced_seeds, **{
                name: metric_medians([result for result, _ in runs], layer_names)
                for name, runs in traced.items()}}
            for name, runs in traced.items():
                probe_runs[name].extend(result for result, _ in runs)
        size_probe = {"seeds": traced_seeds, "workloads": workloads, **{
            name: metric_medians(results, probe_names) for name, results in probe_runs.items()}}
        tier1_runs = {"parent": [], "change": []}
        for i in range(TIER1_RUNS):
            for name in order(i):
                tier1_runs[name].append(tier1(trees[name]))
                print(f"tier-1 {name}: {tier1_runs[name][-1]}", file=sys.stderr)
        lines = {name: line_counts(tree) for name, tree in trees.items()}

    report = {
        "label": args.title or args.label,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "seeds": args.seeds,
        "pairs": "one pair per workload and seed; the parent runs first on even seeds, "
                 "the change on odd seeds; one run at a time",
        "quartiles": "numpy.percentile 25/50/75, linear interpolation, over the runs of one side",
        "host": f"{args.host}; setup_s and step_ms are host-scaled by the harness",
        "attribution": "ms per step by layer, the median of each layer over --trace 1 runs "
                       "on the first seeds listed with it, paired like the timed runs, "
                       "after the pairs",
        "per_layer": "the median of each per_layer metric of BENCHMARK.json over the same "
                     "--trace 1 runs, size probe excluded; runs without a value are left out",
        "size_probe": "the median of each per_layer metric with .nx in its name over every "
                      "--trace 1 run of a side, all workloads pooled",
        "revisions": revisions,
        "environment": environment,
        "workloads": {},
    }
    for workload, sides in results.items():
        entry = {m["name"]: summarize(m, *[[r["metrics"][m["name"]]["value"] for r in sides[s]]
                                           for s in ("parent", "change")])
                 for m in declared["end_to_end"]}
        entry["operations"] = {key: {s: sum(r[key] for r in sides[s]) for s in sides}
                               for key in ("attempted", "failed")}
        entry["step_ms_attribution"] = attribution[workload]
        entry["per_layer"] = layer_metrics[workload]
        report["workloads"][workload] = entry
    report["size_probe_medians"] = size_probe
    report["tier1"] = {
        "command": TIER1_COMMAND,
        "note": "pytest-reported seconds, alternating runs per side after the bench pairs",
        **{s: {"passed": runs[-1][0], "runs_s": [t for _, t in runs],
               "median_s": float(np.median([t for _, t in runs]))}
           for s, runs in tier1_runs.items()},
    }
    report["src_kinwb_lines"] = {"command": "wc -l src/kinwb/*.py", **lines}
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
