"""Output parity of the working tree against a git revision.

    python3 scripts/output_parity.py --parent REV

Run from inside a kinwb git checkout.  REV (anything ``git archive`` takes)
is extracted into a temporary directory.  In that tree and in the working
tree, each with its own ``src`` and ``configs``, the script runs

    kinwb run --config configs/{rte,chemo,vfp,twostream}.json
    kinwb sweep --config configs/sweep_rte.json
    kinwb run|sweep --config C    for every operation C of one timed cycle of
                                  each bench workload (``bench/workloads.py``,
                                  seed 0, full size)
    kinwb verify --scope all

as ``python3 -m kinwb.cli`` subprocesses, one at a time, and then runs each
config a second time in the working tree, into the same output directory.
Every sweep also runs in the working tree with its ``epsilon_list``
reversed: its rows must be the forward rows, byte for byte, in reverse
order (the slope row, a fit over all rows, aside), since a row depends
only on its own eps.
The bench configs come from the working tree's ``bench`` and are written
into the temporary directory, so both trees run the same files.
For each config it prints how many CSVs the run wrote, how many are
byte-identical between the trees, and the largest relative move of every
column:
max|change - parent| / max|parent| over the config's CSVs (the absolute move
where the parent's column is all zeros).  A row whose first cell is a label,
such as the sweep's ``slope`` row, is its own column.  Columns are matched
by header name, so a CSV whose header gained or lost a column still has
its shared columns compared.  It compares the two ``manifest.json`` files
with ``wall_time_s`` removed, and the two stdouts with each side's output
directory replaced by ``<out>``.  Then it says whether the rerun left the
same CSV names with the same bytes, and for a sweep whether the reversed
list gave the same rows.  For verify it says whether the two outputs are
identical and prints the lines that differ.

Exit status: 0 when every config wrote the same CSV names with the same
headers and text cells on both sides, the same manifest apart from wall time
and the same stdout, every rerun left the same CSVs byte for byte and every
reversed sweep the same rows; 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402
from bench_pairs import extract, git  # noqa: E402

SHIPPED = (("run", "rte"), ("run", "chemo"), ("run", "vfp"), ("run", "twostream"),
           ("sweep", "sweep_rte"))


def bench_runs(directory: Path) -> list:
    """(command, name, config path) of every operation of one timed cycle of
    each bench workload at seed 0, full size, its config written into
    ``directory``; the name is the operation's label."""
    runs = []
    for workload in workloads.WORKLOADS:
        for op in workloads.build_workload(workload, 0, "full").cycle:
            path = directory / f"{op.label}.json"
            path.write_text(json.dumps(op.config))
            runs.append((op.command, op.label, path))
    return runs


def kinwb(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "kinwb.cli", *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_dirs(parent: Path, change: Path) -> dict:
    """CSV count, byte-identical count, per-column relative moves, and the
    structural differences (names, headers, row counts, text cells)."""
    names = sorted(p.name for p in parent.glob("*.csv"))
    other = sorted(p.name for p in change.glob("*.csv"))
    problems = []
    if names != other:
        problems.append(f"CSV sets differ: only parent {sorted(set(names) - set(other))}, "
                        f"only change {sorted(set(other) - set(names))}")
    shared = [n for n in names if n in set(other)]
    identical = 0
    diff, scale = {}, {}  # column -> max |change - parent|, max |parent|
    for name in shared:
        a, b = (d / name for d in (parent, change))
        if a.read_bytes() == b.read_bytes():
            identical += 1
        rows_a = [line.split(",") for line in a.read_text().splitlines()]
        rows_b = [line.split(",") for line in b.read_text().splitlines()]
        head_a, head_b = rows_a[0] if rows_a else [], rows_b[0] if rows_b else []
        if head_a != head_b:
            problems.append(f"{name}: headers differ: {','.join(head_a)} became "
                            f"{','.join(head_b)}")
        if len(rows_a) != len(rows_b) or any(
            len(r) != len(rows[0]) for rows in (rows_a, rows_b) for r in rows
        ):
            problems.append(f"{name}: row counts or widths differ")
            continue
        # columns are matched by name: an added or removed column leaves the rest compared
        columns = [(j, head_b.index(c)) for j, c in enumerate(head_a) if c in head_b]
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            label = None if _number(ra[0]) is not None else ra[0]
            for j, k in columns:
                ca, cb = ra[j], rb[k]
                xa, xb = _number(ca), _number(cb)
                if xa is None or xb is None:
                    if ca != cb:
                        problems.append(f"{name}: text cell {ca!r} became {cb!r}")
                    continue
                col = label or head_a[j]
                diff[col] = max(diff.get(col, 0.0), abs(xb - xa))
                scale[col] = max(scale.get(col, 0.0), abs(xa))
    moves = {c: diff[c] / scale[c] if scale[c] > 0.0 else diff[c] for c in diff}
    return {"count": len(names), "identical": identical, "moves": moves, "problems": problems}


def manifest_problems(parent: Path, change: Path) -> list:
    """How the change's ``manifest.json`` differs from the parent's, with
    ``wall_time_s`` removed from both; a sweep writes none on either side."""
    manifests = []
    for directory in (parent, change):
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text()) if path.exists() else None
        if manifest is not None:
            manifest.pop("wall_time_s", None)
        manifests.append(manifest)
    a, b = manifests
    if a is None or b is None:
        return [] if a is b else [f"manifest only in {'change' if a is None else 'parent'}"]
    return [f"manifest: {key} {a.get(key)!r} became {b.get(key)!r}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def csv_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.glob("*.csv")}


def rerun_problems(first: dict, rerun: dict) -> list:
    """How a rerun into the same directory changed its CSVs; ``first`` and
    ``rerun`` map CSV names to their bytes after each run."""
    problems = []
    if first.keys() != rerun.keys():
        problems.append(f"rerun leaves another CSV set: only first "
                        f"{sorted(first.keys() - rerun.keys())}, only rerun "
                        f"{sorted(rerun.keys() - first.keys())}")
    changed = sorted(n for n in first.keys() & rerun.keys() if first[n] != rerun[n])
    if changed:
        problems.append(f"rerun not byte-identical: {', '.join(changed)}")
    return problems


def reversed_row_problems(forward: str, backward: str) -> list:
    """How the rows of a sweep on its ``epsilon_list`` reversed, the CSV
    text ``backward``, differ from the rows of the forward sweep's text
    ``forward`` for the same eps.  The slope row is left out: its fit sums
    the rows in list order."""

    def rows(text):
        return [line for line in text.splitlines()[1:] if not line.startswith("slope,")]

    a, b = rows(forward), rows(backward)[::-1]
    if len(a) != len(b):
        return [f"reversed sweep has {len(b)} rows, the forward one {len(a)}"]
    return [f"eps {x.split(',')[0]}: row {x!r} became {y!r} reversed" for x, y in zip(a, b) if x != y]


def reversed_sweep(root: Path, config: str, forward: Path, out: Path) -> list:
    """Run the sweep ``config`` in ``root`` with its epsilon_list reversed,
    into the new directory ``out``; its :func:`reversed_row_problems`
    against the CSV ``forward`` of the sweep as listed."""
    record = json.loads((root / config).read_text())
    record["epsilon_list"] = record["epsilon_list"][::-1]
    out.mkdir(parents=True)
    (out / "reversed.json").write_text(json.dumps(record))
    done = kinwb(root, "sweep", "--config", str(out / "reversed.json"), "--out", str(out))
    if done.returncode:
        return [f"reversed sweep exited {done.returncode}: {done.stderr.strip()[-300:]}"]
    return reversed_row_problems(forward.read_text(), (out / "ap_sweep.csv").read_text())


def report_line(label: str, result: dict) -> str:
    moves = ", ".join(f"{c} {m:.2g}" for c, m in result["moves"].items())
    return (f"{label}: {result['count']} CSVs, {result['identical']} byte-identical; "
            f"max relative move: {moves or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    root = Path(git("rev-parse", "--show-toplevel"))
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"parent": extract(root, args.parent, tmp / "parent"), "change": root}
        (tmp / "bench").mkdir()
        runs = [(c, n, f"configs/{n}.json") for c, n in SHIPPED] + bench_runs(tmp / "bench")
        for command, name, config in runs:
            out, stdout = {}, {}
            for side, tree in trees.items():
                out[side] = tmp / "out" / side / name
                done = kinwb(tree, command, "--config", str(config), "--out", str(out[side]))
                if done.returncode:
                    print(f"{name}: {side} exited {done.returncode}: "
                          f"{done.stderr.strip()[-300:]}")
                stdout[side] = done.stdout.replace(str(out[side]), "<out>")
            result = compare_dirs(out["parent"], out["change"])
            others = manifest_problems(out["parent"], out["change"])
            if stdout["parent"] != stdout["change"]:
                others.append(f"stdout {stdout['parent']!r} became {stdout['change']!r}")
            first = csv_bytes(out["change"])
            done = kinwb(root, command, "--config", str(config), "--out", str(out["change"]))
            if done.returncode:
                print(f"{name}: rerun exited {done.returncode}: {done.stderr.strip()[-300:]}")
            rerun = rerun_problems(first, csv_bytes(out["change"]))
            print(report_line(name, result))
            print("  manifest (wall time aside) and stdout: "
                  + ("identical" if not others else "differ"))
            print(f"  rerun: {len(first)} CSVs, " + ("byte-identical" if not rerun else "differs"))
            backward = []
            if command == "sweep":
                backward = reversed_sweep(root, config, out["change"] / "ap_sweep.csv",
                                          tmp / "out" / "reversed" / name)
                print("  reversed epsilon_list: " + ("same rows" if not backward else "rows differ"))
            for problem in result["problems"] + others + rerun + backward:
                print(f"  {problem}")
            status |= bool(result["problems"] or others or rerun or backward)
        verify = {side: kinwb(tree, "verify", "--scope", "all").stdout.splitlines()
                  for side, tree in trees.items()}
        same = verify["parent"] == verify["change"]
        print(f"verify: {'identical' if same else 'differs'}")
        for a, b in zip(verify["parent"], verify["change"]):
            if a != b:
                print(f"  - {a}\n  + {b}")
        if len(verify["parent"]) != len(verify["change"]):
            print(f"  line counts {len(verify['parent'])} / {len(verify['change'])}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
