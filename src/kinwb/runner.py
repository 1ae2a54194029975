"""Batch experiment driver: configs, time loops, snapshots, AP sweeps."""

import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .diagnostics import loglog_slope
from .errors import ConfigError, KinwbError, SolveFailure
from .kinetic import phi_tanh
from .macrolimit import sg_step
from .models import Chemo, Rte, TwoStream, Vfp
from .quadrature import gauss_symmetric, vfp_preset_nodes, vfp_quadrature
from .spectral import _MAX_HERMITE

# initial density name -> its profile at the cell centres x of a grid of length L
_DENSITIES = {
    "uniform": lambda x, L: np.ones_like(x),
    "cosine_bump": lambda x, L: 1.0 + 0.5 * np.cos(2.0 * np.pi * x / L),
    "gaussian": lambda x, L: 1.0 + 0.5 * np.exp(-0.5 * ((x - 0.5 * L) / (0.1 * L)) ** 2),
}
# E_profile kind -> (the keys it reads, its field at abscissae x of a grid of length L)
_FIELDS = {
    "zero": ({"kind"}, lambda p, x, L: np.zeros_like(x)),
    "constant": ({"kind", "value"}, lambda p, x, L: np.full_like(x, float(p.get("value", 0.0)))),
    "sinusoidal": (
        {"kind", "amplitude"},
        lambda p, x, L: float(p.get("amplitude", 0.5)) * np.sin(2.0 * np.pi * x / L),
    ),
}
# phi_params names and their defaults
_RESPONSE = {"chi": 1.0, "delta": 1.0}
# the most time steps a config may ask for (at 0.1 ms a step, about a day)
MAX_STEPS = 10**9
# the name of a snapshot file, its index in group 1
_SNAPSHOT = re.compile(r"snapshot_(\d{4})\.csv")
# the most entries, M (2K)^2, of the interface stack of one AP sweep batch:
# 256 KiB a (2K, 2K, M) array, two eps a march at chemo K = 8, Nx = 64, where
# a march's fixed cost is about that of a point; the guard's transients keep
# every bench table's traced peak within 1.6 MB
BATCH_ENTRIES = 2**15
# the largest relative mass drift of one step of a model that conserves mass:
# rounding is about 1e-16 at every eps the step marches, so a larger drift
# is a wrong step, not a slow leak
MAX_STEP_DRIFT = 1e-10


def _number(value) -> bool:
    """A finite int or float from the config, not a bool."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    )


def _integer(value) -> bool:
    """An int from the config, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive(value) -> bool:
    return _number(value) and value > 0


@dataclass
class ExperimentConfig:
    model: str
    K: int
    Nx: int
    dx: float
    dt: float
    t_final: float
    initial_density: str = "cosine_bump"
    output_dir: str = "out"
    epsilon: float | None = None
    epsilon_list: list | None = None
    kappa: float | None = None
    E_profile: dict | None = None
    phi_params: dict = field(default_factory=dict)
    nodes: list | None = None  # optional explicit vfp nodes

    def validation_errors(self) -> list[str]:
        errs = []
        if not isinstance(self.model, str) or self.model not in MODELS:
            errs.append(f"model: must be one of {tuple(MODELS)}, got {self.model!r}")
        for name in ("K", "Nx"):
            if not _integer(getattr(self, name)) or getattr(self, name) < 1:
                errs.append(f"{name}: must be a positive integer")
        for name in ("dx", "dt", "t_final"):
            if not _positive(getattr(self, name)):
                errs.append(f"{name}: must be positive")
        if _positive(self.dt) and _positive(self.t_final) and self.t_final / self.dt > MAX_STEPS:
            errs.append(f"t_final: t_final/dt must be at most {MAX_STEPS:,} steps")
        # tuples, not the dicts: a name read from the config may be unhashable
        if self.initial_density not in tuple(_DENSITIES):
            errs.append(f"initial_density: must be one of {tuple(_DENSITIES)}")
        if not isinstance(self.output_dir, str):
            errs.append("output_dir: must be a string")
        if self.epsilon is None and not self.epsilon_list:
            errs.append("epsilon: either epsilon or epsilon_list is required")
        if self.epsilon is not None and not _positive(self.epsilon):
            errs.append("epsilon: must be a positive number")
        eps_list = self.epsilon_list
        if eps_list is not None and not (
            isinstance(eps_list, list) and all(map(_positive, eps_list))
        ):
            errs.append("epsilon_list: must list positive numbers")
        params = self.phi_params
        if params is not None and not (
            isinstance(params, dict) and all(map(_number, params.values()))
        ):
            errs.append("phi_params: must map names to numbers")
        elif params:
            unknown = set(params) - set(_RESPONSE)
            if unknown:
                errs.append(
                    f"phi_params: unknown keys {sorted(unknown)}; known: {', '.join(_RESPONSE)}"
                )
            if not _positive(params.get("delta", _RESPONSE["delta"])):
                errs.append("phi_params: delta must be positive")
        if self.kappa is not None and not _positive(self.kappa):
            errs.append("kappa: must be a positive number")
        profile = self.E_profile
        kind = profile.get("kind", "zero") if isinstance(profile, dict) else None
        if profile is not None and not (
            kind in tuple(_FIELDS) and all(_number(v) for k, v in profile.items() if k != "kind")
        ):
            errs.append(f"E_profile: kind must be one of {tuple(_FIELDS)}, other entries numbers")
        elif profile is not None:
            keys = _FIELDS[kind][0]
            unknown = set(profile) - keys
            if unknown:
                errs.append(
                    f"E_profile: unknown keys {sorted(unknown)} for kind {kind!r};"
                    f" known: {', '.join(sorted(keys))}"
                )
        if self.model == "vfp":
            if self.kappa is None:
                errs.append("kappa: required (positive) for the vfp model")
            if profile is None:
                errs.append("E_profile: required for the vfp model")
            nodes = self.nodes
            if nodes is None and isinstance(self.K, int) and self.K > 3:
                errs.append("nodes: required for the vfp model with K > 3 (presets cover K <= 3)")
            if isinstance(self.K, int) and self.K - 1 > _MAX_HERMITE:
                errs.append(f"K: the vfp model takes K <= {_MAX_HERMITE + 1}, the Hermite"
                            f" degrees of its basis stop at {_MAX_HERMITE}")
            if nodes is not None and not (
                isinstance(nodes, list)
                and len(nodes) == self.K
                and all(map(_positive, nodes))
                and all(a < b for a, b in zip(nodes, nodes[1:]))
            ):
                errs.append("nodes: must list K positive velocities in ascending order")
        if self.model == "twostream" and self.K != 1:
            errs.append("K: the two-stream model has K = 1")
        if isinstance(self.model, str) and self.model in MODELS:
            # a field the model does not read would be silently ignored
            given = [n for n in ("kappa", "E_profile", "nodes") if getattr(self, n) is not None]
            given += ["phi_params"] if self.phi_params else []
            reads = MODELS[self.model][1]
            errs.extend(f"{n}: not read by the {self.model} model" for n in given if n not in reads)
        return errs

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        if isinstance(source, (str, Path)):
            try:
                with open(source) as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {source}: {exc}") from exc
            if not isinstance(record, dict):
                raise ConfigError("config must be a JSON object")
        else:
            record = dict(source)
        unknown = set(record) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            config = cls(**record)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        errs = config.validation_errors()
        if errs:
            raise ConfigError("; ".join(errs))
        return config


def _response(config: ExperimentConfig):
    """The chemotactic response phi of the config's phi_params."""
    params = {**_RESPONSE, **(config.phi_params or {})}
    chi, delta = float(params["chi"]), float(params["delta"])
    return lambda u: phi_tanh(u, chi=chi, delta=delta)


def _vfp(config: ExperimentConfig) -> Vfp:
    """The vfp model on the config's nodes (else the preset), with its
    static field at the interfaces x_{j-1/2}."""
    nodes = vfp_preset_nodes(config.K, config.kappa) if config.nodes is None else config.nodes
    xi = np.arange(config.Nx) * config.dx
    field_at = _FIELDS[config.E_profile.get("kind", "zero")][1]
    E_half = field_at(config.E_profile, xi, config.Nx * config.dx)
    return Vfp(vfp_quadrature(config.kappa, nodes), E_half)


# model name -> (the model of a validated config, the optional fields it reads)
MODELS = {
    "twostream": (lambda c: TwoStream(_response(c)), {"phi_params"}),
    "rte": (lambda c: Rte(gauss_symmetric(c.K)), set()),
    "chemo": (lambda c: Chemo(gauss_symmetric(c.K), _response(c)), {"phi_params"}),
    "vfp": (_vfp, {"kappa", "E_profile", "nodes"}),
}


def _write_snapshot(path, t, x_text, rho, S=None):
    """One CSV ``t,x,rho[,S]`` with 17 significant digits; ``x_text`` holds
    the cell centres already formatted, since they are the same every
    snapshot of a run."""
    columns = [x_text, rho.tolist()] + ([] if S is None else [S.tolist()])
    row = f"{t:.17g},%s" + ",%.17g" * (len(columns) - 1) + "\n"
    header = "t,x,rho" + (",S" if S is not None else "") + "\n"
    _write_text(path, header + (row * len(x_text)) % tuple(chain.from_iterable(zip(*columns))))


def _write_text(path, text):
    """Make the file at ``path`` hold exactly ``text``: the one writer of
    every file a run or a sweep leaves.

    The file is opened without ``O_TRUNC``, written over from its start and
    cut where the new text ends, so the bytes are those of
    ``open(path, "w")``.  A rerun into the same directory then writes over
    the blocks the file already has.  Truncating a written file to zero
    first frees those blocks, to be allocated again on the write, and on
    ext4 it also makes the close start writeback (the replace-by-truncate
    rule of ``auto_da_alloc``).  For a 22 kB snapshot on ext4 that costs
    over ten times the in-place rewrite."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _remove_stale_snapshots(out, count):
    """Delete the snapshots of ``out`` numbered ``count`` or more: those an
    earlier, longer run left behind."""
    for path in out.iterdir():
        match = _SNAPSHOT.fullmatch(path.name)
        if match and int(match[1]) >= count:
            path.unlink()


def run_experiment(config: ExperimentConfig, out: Path) -> dict:
    """Time-march one configuration, writing snapshot CSVs and a manifest
    into the directory ``out``; returns the manifest.

    The manifest is written even when the run fails; the exception is then
    re-raised for the caller to map onto an exit code.  Either way the
    manifest lists the snapshots this run wrote, and the output directory
    keeps no other ``snapshot_NNNN.csv``.
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"config": asdict(config), "status": "ok", "error": None}
    snapshots = []
    t0 = time.perf_counter()
    try:
        _run_loop(config, out, manifest, snapshots)
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _remove_stale_snapshots(out, len(snapshots))
        manifest["snapshots"] = [path.name for path in snapshots]
        manifest["wall_time_s"] = time.perf_counter() - t0
        _write_text(out / "manifest.json", json.dumps(manifest, indent=2))
    return manifest


def _run_loop(config, out, manifest, snapshots):
    if config.epsilon is None:
        raise ConfigError("run requires a scalar epsilon (epsilon_list is for sweep)")
    n_steps = max(1, round(config.t_final / config.dt))
    stride = max(1, n_steps // 10)
    x = (np.arange(config.Nx) + 0.5) * config.dx
    x_text = ["%.17g" % v for v in x.tolist()]
    model, rho0 = _setup(config)
    march = model.march(config.epsilon, config.dt, config.dx, rho0)
    max_step_drift = 0.0
    for n in range(n_steps + 1):
        try:
            rho, S = next(march)
        except SolveFailure as exc:
            raise SolveFailure(f"step {n}: {exc}") from exc
        rho, S = rho[0], None if S is None else S[0]  # the march of one eps is one ring
        mass = float(rho.sum() * config.dx)
        if n == 0:
            mass0 = prev = mass
        drift = abs(mass - prev) / abs(mass0)
        if drift > MAX_STEP_DRIFT and model.conserves_mass:
            raise SolveFailure(f"step {n}: the relative mass drift {drift:.3e} of the step"
                               f" exceeds {MAX_STEP_DRIFT:g}")
        max_step_drift = max(max_step_drift, drift)
        prev = mass
        if n % stride == 0 or n == n_steps:
            path = out / f"snapshot_{len(snapshots):04d}.csv"
            _write_snapshot(path, n * config.dt, x_text, rho, S)
            snapshots.append(path)

    manifest["n_steps"] = n_steps
    manifest["mass_initial"] = mass0
    manifest["mass_final"] = mass
    manifest["mass_drift_total"] = abs(mass - mass0) / abs(mass0)
    manifest["mass_drift_per_step_max"] = max_step_drift


def _setup(config: ExperimentConfig):
    """The eps-independent set-up of ``config``: its model and initial
    density.  ``model.march(eps, dt, dx, rho0)`` then yields (rho, S) for
    the initial state and after every step, forever (see :mod:`models`).
    Models are immutable, so ``kinwb run`` marches the set-up once and the
    AP sweep marches one set-up at every batch of epsilons; the step-size
    warning of ``model.check_step`` comes once per set-up."""
    model = MODELS[config.model][0](config)
    model.check_step(config.dt, config.dx)
    x = (np.arange(config.Nx) + 0.5) * config.dx
    rho0 = _DENSITIES[config.initial_density](x, config.Nx * config.dx)
    if not np.all(np.isfinite(rho0)):
        raise ConfigError(
            f"dx, Nx: the {config.initial_density} initial density is not finite on"
            f" Nx = {config.Nx} cells of dx = {config.dx:g}: the grid is too long"
        )
    return model, rho0


def batch_size(model, Nx: int) -> int:
    """How many epsilons one march of an AP sweep serves: as many as keep
    its interface stack within BATCH_ENTRIES entries.  Each march pays a
    fixed cost, so two to four eps a batch beat one at chemo K = 8, Nx = 64,
    while all ten in one batch are slower than two and hold ten times the
    memory.  A one-cell grid marches one epsilon at a time: NumPy sums a
    contraction over one interface in another order than over a row of
    them."""
    if Nx == 1:
        return 1
    interfaces = 1 if model.shared_interface else Nx
    return max(1, BATCH_ENTRIES // (interfaces * (2 * model.q.K) ** 2))


def _first_steps(model, config, batch, rho_init):
    """(eps, rho0, rho1, S) of the first step of ``kinwb run`` at each eps of
    ``batch``, in order, from one march of them all.  When that march fails,
    each eps is marched as a batch of one, and the first that fails raises,
    its message led by ``eps=...``."""
    try:
        march = model.march(np.array(batch), config.dt, config.dx, rho_init)
        (rho0, _), (rho1, S) = next(march), next(march)
    except KinwbError as exc:
        if len(batch) == 1:
            raise type(exc)(f"eps={batch[0]:g}: {exc}") from exc
        for e in batch:
            yield from _first_steps(model, config, [e], rho_init)
        return
    for p, e in enumerate(batch):
        yield e, rho0[p], rho1[p], None if S is None else S[p]


def ap_error_table(config: ExperimentConfig, epsilons):
    """(epsilon, gap) rows plus the log-log slope (None below two distinct
    epsilons).  A gap is the relative L-inf distance between the first step
    of ``kinwb run`` on ``config`` at epsilon and one step of the limit
    scheme from the same density: exponential fitting with the model's D
    and drift, S being the chemoattractant that drove the step.  The set-up
    is built once, and the epsilons are marched in list order in batches of
    :func:`batch_size`, one march each; every problem of a batch sees the
    operations of its march alone, so a row does not depend on the other
    epsilons, bit for bit."""
    model, rho_init = _setup(config)
    epsilons = [float(e) for e in epsilons]
    size = batch_size(model, config.Nx)
    rows, ref = [], None
    for start in range(0, len(epsilons), size):
        for e, rho0, rho1, S in _first_steps(model, config, epsilons[start : start + size], rho_init):
            # rho0 = density(equilibrium(rho_init)) and S = field(rho0) read no
            # eps, so the limit step is taken once, after the first kinetic step
            if ref is None:
                ref = sg_step(rho0, model.D, model.drift(S, config.dx), config.dt, config.dx)
                if not np.all(np.isfinite(ref)):
                    raise SolveFailure(f"eps={e:g}: the limit scheme produced a non-finite state")
            rows.append((e, float(np.max(np.abs(rho1 - ref)) / np.max(np.abs(ref)))))
    slope = loglog_slope(*zip(*rows)) if len({e for e, _ in rows}) >= 2 else None
    return rows, slope


def sweep_experiment(config: ExperimentConfig, out: Path) -> Path:
    """AP sweep over config.epsilon_list; one CSV with a slope footer row in
    the directory ``out``."""
    if not config.epsilon_list:
        raise ConfigError("sweep requires epsilon_list")
    out.mkdir(parents=True, exist_ok=True)
    rows, slope = ap_error_table(config, config.epsilon_list)
    lines = ["epsilon,error"] + [f"{e:.17g},{g:.17g}" for e, g in rows]
    if slope is not None:
        lines.append(f"slope,{slope:.17g}")
    path = out / "ap_sweep.csv"
    _write_text(path, "\n".join(lines) + "\n")
    return path
