"""kinwb benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kinwb checkout; the program is imported from
./src.  One closed-loop client issues `kinwb run` / `kinwb sweep` calls in
process, one at a time, and checks every output (see workloads.py).  The
last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it holds run information
(environment, drawn parameters, errors, ungated deep-eps gaps, and in the
traced run the per-layer tables).

--trace 0 reports the end-to-end metrics:
  setup_s      median time of a cold set-up: the first one-step run of a
               fresh config (config load to manifest written); for ap_sweep
               one one-point sweep per sweep config.  One set-up precedes
               every timed cycle.  Import time excluded.
  step_ms      warm ms per time step: median over cycles of
               (N-step run - 1-step run)/(N-1); on ap_sweep every point is
               one cold step, so it is ms per sweep point.
  peak_rss_mb  peak resident memory of the process.
  ok_frac      operations that passed every check / operations attempted.
setup_s and step_ms are host-scaled: a shared host's speed drifts by 15-25%
in spells of tens of seconds, longer than a run.  A fixed small-array NumPy
kernel (`reference_seconds`) runs before and after every timed operation,
and the operation's wall time is multiplied by REF_S / (the geometric mean
of the two kernel times), which gives its time on a host where the kernel
takes REF_S.  Raw wall-time medians and the kernel's median are in the
info line.  The run is single-threaded (BLAS threads default to 1,
KINWB_THREADS=1), so that neither metric depends on how busy the host's
other cores are.
--trace 1 alternates untraced and traced cycles of the same operations,
then runs a size-scaling probe that is the same for every workload, and
reports per-layer metrics (span self times are wall times); spans are
written to .bench_work/trace-<workload>-s<seed>.json at exit.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# recorded as inherited; an unset one is set to 1 before NumPy loads
INHERITED_BLAS_THREADS = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Host-speed reference: batched 8x8 matrix-vector products and a
# normalisation on 64-row arrays, the kind of small-array NumPy work the
# program's hot loops do.  REF_S is a typical reference_seconds() on a
# 2-core Xeon VM at 2.1 GHz; it only fixes the unit of the host-scaled times.
_REF_A = np.random.default_rng(0).standard_normal((64, 8, 8))
_REF_Y = np.random.default_rng(1).standard_normal((64, 8))
REF_S = 0.6e-3


def reference_seconds() -> float:
    """Fastest of five short runs of the kernel: a burst of contention slows
    some of them, the host's speed state slows all."""
    best = math.inf
    for _ in range(5):
        y = _REF_Y
        t0 = time.perf_counter()
        for _ in range(40):
            y = np.einsum("nij,nj->ni", _REF_A, y)
            y = y / np.abs(y).max()
        best = min(best, time.perf_counter() - t0)
    return best


def timed_ops(client, ops):
    """Host-scaled seconds, wall seconds and reference seconds of the ops.

    The reference kernel runs before each op and after the last; an op is
    scaled by the geometric mean of the kernel times on either side of it.
    """
    refs, walls = [reference_seconds()], []
    for op in ops:
        walls.append(client.execute(op))
        refs.append(reference_seconds())
    scaled = [w * REF_S / math.sqrt(a * b) for w, a, b in zip(walls, refs, refs[1:])]
    return scaled, walls, refs


# span name -> layer; other spans take the layer of their module
LAYER = {
    "runner._write_snapshot": "runner.snapshot",
    "spectral.dispersion_roots": "spectral.roots",
    "spectral._all_roots_multi": "spectral.roots",
    "scattering.rte_closure": "scattering.closure",
    "scattering.vfp_closure": "scattering.closure",
    "kinetic.imex_step": "kinetic.apply",
    "kinetic.chemoattractant_update": "kinetic.elliptic",
    "kinetic.total_mass": "kinetic.mass",
    "kinetic.density": "kinetic.mass",
    "twostream.ts_step": "twostream.step",
}
MODULE_LAYER = {
    "runner": "runner.self",
    "quadrature": "quadrature.build",
    "spectral": "spectral.other",
    "scattering": "scattering.smatrix",
    "macrolimit": "macrolimit.ref",
    "op": "op.self",  # the operation's root span: cli, config load, unwrapped code
}

# Per-layer metrics of the workload's own operations, per timed cycle:
# (name, unit, layers, field).  Only layers every workload exercises are
# metrics; the rest appear in the info tables and in the probe metrics.
CYCLE_METRICS = (
    ("runner.self_ms", "ms", ("runner.self",), "ms"),
    ("quadrature.build_ms", "ms", ("quadrature.build",), "ms"),
    ("quadrature.calls", "count", ("quadrature.build",), "calls"),
    ("spectral.self_ms", "ms", ("spectral.roots", "spectral.other"), "ms"),
    ("scattering.smatrix_ms", "ms", ("scattering.smatrix",), "ms"),
    ("scattering.interfaces", "count", ("scattering.smatrix",), "work"),
    ("scattering.closure_ms", "ms", ("scattering.closure",), "ms"),
    ("kinetic.apply_ms", "ms", ("kinetic.apply",), "ms"),
    ("kinetic.mass_ms", "ms", ("kinetic.mass",), "ms"),
    ("kinetic.steps", "count", ("kinetic.apply",), "calls"),
    ("kinetic.bytes_per_step", "B-computed", ("kinetic.apply",), "work_per_call"),
)


def layer_of(name):
    module = name.split(".", 1)[0]
    return LAYER.get(name) or MODULE_LAYER.get(module) or f"{module}.other"


def layer_table(tracer, runs):
    """layer -> {"ms", "calls", "work"} summed over the spans of the given run ids."""
    table = defaultdict(lambda: {"ms": 0.0, "calls": 0, "work": 0})
    for span, self_s in tracer.self_times():
        if span.run in runs:
            row = table[layer_of(span.name)]
            row["ms"] += 1e3 * self_s
            row["calls"] += 1
            row["work"] += span.work or 0
    return table


def _value(table, layers, field, per=1.0):
    rows = [table[layer] for layer in layers if layer in table]
    if not rows:
        return None
    if field == "work_per_call":
        return sum(r["work"] for r in rows) / sum(r["calls"] for r in rows)
    if field == "ms_per_call":
        return sum(r["ms"] for r in rows) / sum(r["calls"] for r in rows)
    return sum(r[field] for r in rows) / per


def environment(root: Path, nproc: int) -> dict:
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "kinwb").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
        "machine": platform.machine(),
        "nproc": nproc,
        "blas_threads_inherited": INHERITED_BLAS_THREADS,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "KINWB_THREADS": os.environ.get("KINWB_THREADS"),
        "commit": commit,
        "src_kinwb_lines": src_lines,
        "client": "closed loop, one client, in process",
    }


@contextlib.contextmanager
def tracing(client, tracer):
    tracer.install()
    client.tracer = tracer
    try:
        yield
    finally:
        client.tracer = None
        tracer.uninstall()


def end_to_end(client, wl, seconds, min_cycles):
    reference_seconds()  # warm-up, as is the first cycle
    for op in wl.cycle:
        client.execute(op)
    # a cold set-up before every timed cycle, so that both samples see the
    # same spread of machine states over the run
    setup, steps, raw_setup, raw_steps, refs = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(steps) < min_cycles or time.perf_counter() < deadline:
        ops = wl.setup(len(setup)) + wl.cycle
        scaled, walls, r = timed_ops(client, ops)
        k = len(ops) - len(wl.cycle)
        setup.append(sum(scaled[:k]))
        raw_setup.append(sum(walls[:k]))
        steps.append(wl.step_ms(scaled[k:]))
        raw_steps.append(wl.step_ms(walls[k:]))
        refs += r
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "step_ms": (statistics.median(steps), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((client.attempted - client.failed) / client.attempted, "frac"),
    }
    info = {"cycles": len(steps),
            "wall_setup_s": statistics.median(raw_setup),
            "wall_step_ms": statistics.median(raw_steps),
            "reference_ms": 1e3 * statistics.median(refs),
            "setup_s_samples": setup, "step_ms_samples": steps}
    return metrics, info


def per_layer(client, wl, seconds, min_cycles, seed, trace_path):
    tracer = Tracer()
    for op in wl.cycle:  # warm-up
        client.execute(op)
    # untraced and traced cycles alternate, so both see the same machine;
    # the overhead compares their host-scaled times
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < min_cycles or time.perf_counter() < deadline:
        untraced.append(timed_ops(client, wl.cycle)[0])
        with tracing(client, tracer):
            traced.append(timed_ops(client, wl.cycle)[0])
    n = len(traced)
    cycle_runs = set(range(len(tracer.runs)))
    table = layer_table(tracer, cycle_runs)
    metrics = {"trace.overhead_frac": (
        statistics.median(map(sum, traced)) / statistics.median(map(sum, untraced)) - 1.0,
        "frac")}
    for name, unit, layers, field in CYCLE_METRICS:
        metrics[name] = (_value(table, layers, field, per=n), unit)

    # which layers the step time goes to: each layer's self time run
    # through the same formula as step_ms
    by_position = defaultdict(lambda: [0.0] * len(wl.cycle))
    for span, self_s in tracer.self_times():
        by_position[layer_of(span.name)][span.run % len(wl.cycle)] += self_s / n
    attribution = {layer: wl.step_ms(t) for layer, t in by_position.items()}

    probe_runs = {}
    with tracing(client, tracer):
        for suffix, op in workloads.probe_ops(seed):
            client.execute(op)
            probe_runs[suffix] = (len(tracer.runs) - 1, op)
    roots = {s.run: s for s in tracer.spans if s.name.startswith("op.")}
    ref_ms, points = 0.0, 0
    for suffix, (run, op) in probe_runs.items():
        t = layer_table(tracer, {run})
        if op.command == "run":
            metrics[f"scattering.smatrix_ms.{suffix}"] = (_value(t, ("scattering.smatrix",), "ms"), "ms")
            metrics[f"spectral.roots_ms.{suffix}"] = (_value(t, ("spectral.roots",), "ms"), "ms")
            metrics[f"kinetic.apply_ms.{suffix}"] = (_value(t, ("kinetic.apply",), "ms"), "ms")
            if op.config["K"] == workloads.PROBE_K[0]:
                nx = suffix.split(".")[0]
                metrics[f"kinetic.elliptic_ms.{nx}"] = (_value(t, ("kinetic.elliptic",), "ms"), "ms")
                metrics[f"runner.snapshot_ms.{nx}"] = (_value(t, ("runner.snapshot",), "ms_per_call"), "ms")
                metrics[f"runner.snapshot_bytes.{nx}"] = (_value(t, ("runner.snapshot",), "work_per_call"), "B")
        else:
            root = roots[run]
            metrics[f"sweep_point_ms.{suffix}"] = (1e3 * (root.end - root.start) / op.points, "ms")
            ref_ms += _value(t, ("macrolimit.ref",), "ms") or 0.0
            points += op.points
            if op.config["model"] == "twostream":
                step = _value(t, ("twostream.step",), "ms")
                metrics["twostream.step_ms.nx64"] = (step and step / op.points, "ms")
    metrics["macrolimit.ref_ms.nx64"] = (ref_ms / points if ref_ms else None, "ms")

    tracer.write(trace_path)
    missing = sorted(k for k, (v, _) in metrics.items() if v is None) + tracer.missing
    info = {
        "traced_cycles": n,
        "layers_per_cycle": {k: {f: v[f] / n for f in ("ms", "calls")}
                             for k, v in sorted(table.items())},
        "step_ms_attribution": dict(sorted(attribution.items(), key=lambda kv: -kv[1])),
        "missing": missing,
        "trace_file": str(trace_path),
        "spans": len(tracer.spans),
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "kinwb" / "cli.py").is_file():
        print(f"error: no kinwb sources under {src}; run from a kinwb checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # one sweep thread: the timed run stays single-threaded, and in the
    # traced run spans nest
    os.environ["KINWB_THREADS"] = "1"
    sys.path.insert(0, str(src))
    from kinwb import cli  # import time is not part of any metric

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: kinwb was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    size = "tiny" if args.tiny else "full"
    wl = workloads.build_workload(args.workload, args.seed, size)
    min_cycles = workloads.SIZES[size]["min_cycles"]
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    client = workloads.Client(cli.main, work)
    try:
        if args.trace:
            trace_path = work_root / f"trace-{args.workload}-s{args.seed}.json"
            metrics, run_info = per_layer(client, wl, args.seconds, min_cycles,
                                          args.seed, trace_path)
        else:
            metrics, run_info = end_to_end(client, wl, args.seconds, min_cycles)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size,
        "environment": environment(root, nproc),
        "params": wl.params,
        "errors": client.errors[:20],
        "limit_gap_per_eps_max": client.max_gap_per_eps,
        "deep_eps_gaps": client.deep_gaps,
        **run_info,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
