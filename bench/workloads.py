"""Workloads of the kinwb benchmark, and the client that runs and checks them.

Every operation is one in-process call of the public command line,
``kinwb run`` or ``kinwb sweep``, on a config file generated here from the
seed; the program sees nothing but those files.  The seed draws physical
parameters only (epsilon within its decade, chi/delta, field amplitude);
Nx, K, step counts and sweep lengths are fixed, so timings compare across
seeds.  Each operation's outputs are checked after it returns, outside its
timed interval, against an independent NumPy implementation of the limit
schemes.
"""

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Work sizes.  "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": dict(chemo_nx=256, chemo_steps=8, static_nx=1024, static_steps=600,
                 sweep_nx=64, min_cycles=5),
    "tiny": dict(chemo_nx=32, chemo_steps=3, static_nx=64, static_steps=10,
                 sweep_nx=16, min_cycles=2),
}

# (model, K) of the ap_sweep sweeps: vfp K=2 runs a constant field, K=3 a
# sinusoidal one.
SWEEPS = (("rte", 4), ("rte", 16), ("chemo", 4), ("chemo", 8),
          ("vfp", 2), ("vfp", 3), ("twostream", 1))
SWEEP_DECADES = range(1, 11)  # one epsilon per decade, 1e-1 down to 1e-10

# Size-scaling probe of the traced run (chemo, one step per size).
PROBE_NX = (64, 256, 1024)
PROBE_K = (4, 8, 16)
PROBE_SWEEPS = (("rte", 4), ("chemo", 4), ("vfp", 3), ("twostream", 1))

# Output checks.  Per-step relative mass drift: rte and chemo conserve mass
# to rounding amplified by 1/eps (measured <= 6e-15 on chemo_march); vfp at
# E != 0 only to O(eps) by theory (measured drift/eps <= 1e-4 on static_march).
DRIFT_TIGHT = 1e-11
DRIFT_VFP_PER_EPS = 1e-2
# Final density against the same number of limit-scheme steps: relative
# L-inf gap at most AGREE_PER_EPS * eps (measured gap/eps 0.026 on
# chemo_march, 0.007 on static_march, up to 0.2 at the smoke-test sizes).
AGREE_PER_EPS = 1.0
# AP slope of log(gap) over log(eps) fitted on eps in [1e-6, 1e-3].
SLOPE_RANGE = (1e-6, 1e-3)
SLOPE_BOUNDS = (0.9, 1.1)
DEEP_EPS = 1e-7  # gaps below this are reported, not gated


@dataclass(frozen=True)
class Op:
    """One `kinwb` invocation: a subcommand on a config."""

    command: str  # "run" or "sweep"
    config: dict
    label: str

    @property
    def key(self) -> str:
        text = json.dumps([self.command, self.config], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def points(self) -> int:
        return len(self.config["epsilon_list"]) if self.command == "sweep" else 1


@dataclass
class Workload:
    name: str
    cycle: list  # the ops of one timed cycle
    setup: Callable  # i -> the ops of the i-th cold set-up, each on a fresh config
    step_ms: Callable  # per-op seconds of one cycle -> ms per time step
    params: dict  # drawn parameters of the cycle, for the report


def _eps(rng, decade: int) -> float:
    """An epsilon in (10^-(decade+1), 10^-decade]."""
    return float(10.0 ** (-decade - rng.uniform(0.0, 1.0)))


def _phi(rng) -> dict:
    return {"chi": float(rng.uniform(0.5, 1.5)), "delta": float(rng.uniform(0.5, 1.5))}


def grid(model, K, Nx, dt_per_dx2, steps) -> dict:
    dx = 1.0 / Nx
    dt = dt_per_dx2 * dx * dx
    return dict(model=model, K=K, Nx=Nx, dx=dx, dt=dt, t_final=steps * dt,
                initial_density="cosine_bump")


def _model_params(model, K, rng) -> dict:
    if model in ("chemo", "twostream"):
        return {"phi_params": _phi(rng)}
    if model == "vfp":
        value = float(rng.uniform(0.25, 0.75))
        field = ({"kind": "constant", "value": value} if K == 2
                 else {"kind": "sinusoidal", "amplitude": value})
        return {"kappa": 1.0, "E_profile": field}
    return {}


def _march(name, model, K, Nx, dt_per_dx2, steps, seed) -> Workload:
    def ops(rng, step_counts):
        params = {"epsilon": _eps(rng, 4), **_model_params(model, K, rng)}
        return [Op("run", {**grid(model, K, Nx, dt_per_dx2, s), **params},
                   f"{name}.run{s}") for s in step_counts], params

    cycle, params = ops(np.random.default_rng([seed, 0]), [1, steps])
    return Workload(
        name, cycle,
        lambda i: ops(np.random.default_rng([seed, 1, i]), [1])[0],
        # warm N-step run minus warm 1-step run, per extra step
        lambda t: 1e3 * (t[1] - t[0]) / (steps - 1),
        params)


def _sweep_op(model, K, Nx, eps_list, rng, label) -> Op:
    config = {**grid(model, K, Nx, 1.0, 1), "epsilon_list": eps_list,
              **_model_params(model, K, rng)}
    return Op("sweep", config, label)


def _ap_sweep(Nx, seed) -> Workload:
    def ops(rng, decades):
        return [_sweep_op(m, K, Nx, [_eps(rng, d) for d in decades], rng,
                          f"ap_sweep.{m}.k{K}") for m, K in SWEEPS]

    cycle = ops(np.random.default_rng([seed, 0]), SWEEP_DECADES)
    points = sum(op.points for op in cycle)
    return Workload(
        "ap_sweep", cycle,
        lambda i: ops(np.random.default_rng([seed, 1, i]), [4]),
        # every sweep point builds its own quadrature, roots and closure and
        # takes one step, so ms per point is ms per (cold) time step
        lambda t: 1e3 * sum(t) / points,
        {op.label: op.config for op in cycle})


def build_workload(name: str, seed: int, size: str) -> Workload:
    s = SIZES[size]
    if name == "chemo_march":
        return _march(name, "chemo", 4, s["chemo_nx"], 1.0, s["chemo_steps"], seed)
    if name == "static_march":
        # dt = dx^2/4 keeps inside the parabolic bound dt <= dx^2/(2 kappa)
        return _march(name, "vfp", 3, s["static_nx"], 0.25, s["static_steps"], seed)
    if name == "ap_sweep":
        return _ap_sweep(s["sweep_nx"], seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("chemo_march", "static_march", "ap_sweep")


def probe_ops(seed: int) -> list:
    """Size-scaling probe: (metric suffix, op) pairs, the same for every workload."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for Nx in PROBE_NX:
        for K in PROBE_K:
            config = {**grid("chemo", K, Nx, 1.0, 1), "epsilon": _eps(rng, 4),
                      **_model_params("chemo", K, rng)}
            out.append((f"nx{Nx}.k{K}", Op("run", config, f"probe.chemo.nx{Nx}.k{K}")))
    for model, K in PROBE_SWEEPS:
        op = _sweep_op(model, K, 64, [_eps(rng, d) for d in (2, 4, 6)], rng,
                       f"probe.sweep.{model}")
        out.append((f"{model}.nx64", op))
    return out


# ---------------------------------------------------------------------------
# independent reference: the explicit limit schemes, in NumPy
# ---------------------------------------------------------------------------


def _bernoulli(u):
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-8
    safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 - 0.5 * u, safe / np.expm1(safe))


def _sg_step(rho, E, D, dt, dx):
    """Exponential-fitting step; E[j] is the drift at x_{j-1/2}, periodic."""
    u = E * dx / D
    F = (D / dx) * (_bernoulli(-u) * np.roll(rho, 1) - _bernoulli(u) * rho)
    return rho + dt / dx * (F - np.roll(F, -1))


def _field(profile, x, length):
    if profile["kind"] == "constant":
        return np.full_like(x, profile["value"])
    return profile["amplitude"] * np.sin(2.0 * np.pi * x / length)


def limit_reference(config: dict) -> np.ndarray:
    """Density after the run's number of steps of the matching limit scheme."""
    Nx, dx, dt = config["Nx"], config["dx"], config["dt"]
    steps = max(1, round(config["t_final"] / dt))
    length = Nx * dx
    x = (np.arange(Nx) + 0.5) * dx
    rho = 1.0 + 0.5 * np.cos(2.0 * np.pi * x / length)
    model = config["model"]
    if model == "vfp":
        E = _field(config["E_profile"], np.arange(Nx) * dx, length)
        for _ in range(steps):
            rho = _sg_step(rho, E, config["kappa"], dt, dx)
        return rho
    nodes, weights = np.polynomial.legendre.leggauss(config["K"])
    v, w = (nodes + 1.0) / 2.0, weights / 2.0
    D = float(np.sum(w * v * v))
    if model == "rte":
        for _ in range(steps):
            rho = rho + dt / dx**2 * D * (np.roll(rho, 1) - 2.0 * rho + np.roll(rho, -1))
        return rho
    chi, delta = config["phi_params"]["chi"], config["phi_params"]["delta"]
    k = np.arange(Nx)
    symbol = 1.0 + (2.0 - 2.0 * np.cos(2.0 * np.pi * k / Nx)) / dx**2
    for _ in range(steps):
        S = np.fft.ifft(np.fft.fft(rho) / symbol).real
        grad = (S - np.roll(S, 1)) / dx
        drift = (chi * np.tanh(np.outer(grad, v) / delta)) @ (w * v)
        rho = _sg_step(rho, -drift, D, dt, dx)
    return rho


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


class Client:
    """Closed-loop client: one operation at a time, each checked after it ends.

    ``execute`` times only the `kinwb` call.  An operation fails when it
    raises, exits non-zero, or its outputs fail a check; failures are
    counted, never raised.
    """

    def __init__(self, cli_main, work_dir: Path):
        self._main = cli_main
        self._work = Path(work_dir)
        self._work.mkdir(parents=True, exist_ok=True)
        self._digests = {}
        self._references = {}
        self.tracer = None  # when set, each call runs inside tracer.root(label)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.deep_gaps = {}  # label -> [(eps, gap)], reported, not gated
        self.max_gap_per_eps = {}  # model -> worst final-density gap / eps

    def execute(self, op: Op) -> float:
        path = self._work / f"{op.key}.json"
        out = self._work / op.key
        if not path.exists():
            path.write_text(json.dumps(op.config))
        argv = [op.command, "--config", str(path), "--out", str(out)]
        root = self.tracer.root(op.label) if self.tracer else contextlib.nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with root, contextlib.redirect_stdout(io.StringIO()):
                code = self._main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is None:
            error = f"exit code {code}" if code != 0 else self._check(op, out)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
        return seconds

    def _check(self, op, out):
        try:
            check = self._check_run if op.command == "run" else self._check_sweep
            return check(op, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    def _same_as_before(self, op, paths):
        digest = _sha256(paths)
        if self._digests.setdefault(op.key, digest) != digest:
            return "outputs differ from an earlier run of the same config"
        return None

    def _check_run(self, op, out):
        config = op.config
        model, eps = config["model"], config["epsilon"]
        manifest = json.loads((out / "manifest.json").read_text())
        snapshots = sorted(out.glob("snapshot_*.csv"))
        rho = np.loadtxt(snapshots[-1], delimiter=",", skiprows=1, ndmin=2)[:, 2]
        if not np.all(np.isfinite(rho)):
            return "non-finite density"
        drift = manifest["mass_drift_per_step_max"]
        bound = DRIFT_VFP_PER_EPS * eps if model == "vfp" else DRIFT_TIGHT
        if not drift <= bound:
            return f"per-step mass drift {drift:.3e} above {bound:.1e}"
        if op.key not in self._references:
            self._references[op.key] = limit_reference(config)
        ref = self._references[op.key]
        gap = float(np.max(np.abs(rho - ref)) / np.max(np.abs(ref)))
        if not gap <= AGREE_PER_EPS * eps:
            return f"final density off the limit scheme by {gap:.3e} (eps {eps:.2e})"
        worst = self.max_gap_per_eps.get(model, 0.0)
        self.max_gap_per_eps[model] = max(worst, gap / eps)
        return self._same_as_before(op, snapshots)

    def _check_sweep(self, op, out):
        path = out / "ap_sweep.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        table = np.array([[float(a), float(b)] for a, b in rows if a != "slope"])
        eps_list = op.config["epsilon_list"]
        if table.shape != (len(eps_list), 2) or not np.allclose(table[:, 0], eps_list):
            return f"sweep table does not list the {len(eps_list)} epsilons"
        eps, gap = table[:, 0], table[:, 1]
        if not np.all(np.isfinite(gap)) or np.any(gap <= 0.0):
            return "non-finite or non-positive AP gap"
        sel = (eps >= SLOPE_RANGE[0]) & (eps <= SLOPE_RANGE[1])
        if np.count_nonzero(sel) >= 2:
            slope = float(np.polyfit(np.log(eps[sel]), np.log(gap[sel]), 1)[0])
            if not SLOPE_BOUNDS[0] <= slope <= SLOPE_BOUNDS[1]:
                return f"AP slope {slope:.3f} outside {SLOPE_BOUNDS}"
        deep = eps <= DEEP_EPS
        if np.any(deep):
            self.deep_gaps[op.label] = [[float(e), float(g)] for e, g in zip(eps[deep], gap[deep])]
        return self._same_as_before(op, [path])
