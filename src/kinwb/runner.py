"""Batch experiment driver: configs, time loops, snapshots, AP sweeps."""

import json
import logging
import math
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolveFailure
from .kinetic import (
    KineticGrid,
    KineticModel,
    MacroField,
    chemo_drift,
    chemoattractant_update,
    density,
    equilibrium_state,
    imex_step,
    interface_grad,
    phi_tanh,
    step_operator,
)
from .macrolimit import DriftDiffusionParams, heat_step, sg_chemo_step, sg_step, sg_vfp_step
from .quadrature import gauss_symmetric, vfp_preset_nodes, vfp_quadrature
from .twostream import TwoStreamState, ts_step

log = logging.getLogger("kinwb")

_MODELS = ("twostream", "rte", "chemo", "vfp")
_DENSITIES = ("uniform", "cosine_bump", "gaussian")
_FIELDS = ("zero", "constant", "sinusoidal")


def _number(value) -> bool:
    """A finite int or float from the config, not a bool."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    )


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
    seed: int = 0
    output_dir: str = "out"
    epsilon: float | None = None
    epsilon_list: list | None = None
    kappa: float | None = None
    E_profile: dict | None = None
    phi_params: dict = field(default_factory=dict)
    nodes: list | None = None  # optional explicit vfp nodes

    def validation_errors(self) -> list[str]:
        errs = []
        if self.model not in _MODELS:
            errs.append(f"model: must be one of {_MODELS}, got {self.model!r}")
        for name in ("K", "Nx"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 1:
                errs.append(f"{name}: must be a positive integer")
        for name in ("dx", "dt", "t_final"):
            if not _positive(getattr(self, name)):
                errs.append(f"{name}: must be positive")
        if self.initial_density not in _DENSITIES:
            errs.append(f"initial_density: must be one of {_DENSITIES}")
        if self.epsilon is None and not self.epsilon_list:
            errs.append("epsilon: either epsilon or epsilon_list is required")
        if self.epsilon is not None and not _positive(self.epsilon):
            errs.append("epsilon: must be a positive number")
        if self.epsilon_list is not None and not (
            isinstance(self.epsilon_list, list) and all(map(_positive, self.epsilon_list))
        ):
            errs.append("epsilon_list: must list positive numbers")
        params = self.phi_params
        if params is not None and not (
            isinstance(params, dict) and all(map(_number, params.values()))
        ):
            errs.append("phi_params: must map names to numbers")
        if self.kappa is not None and not _positive(self.kappa):
            errs.append("kappa: must be a positive number")
        profile = self.E_profile
        if profile is not None and not (
            isinstance(profile, dict)
            and profile.get("kind", "zero") in _FIELDS
            and all(_number(v) for k, v in profile.items() if k != "kind")
        ):
            errs.append(f"E_profile: kind must be one of {_FIELDS}, other entries numbers")
        if self.model == "vfp":
            if self.kappa is None:
                errs.append("kappa: required (positive) for the vfp model")
            if profile is None:
                errs.append("E_profile: required for the vfp model")
            nodes = self.nodes
            if nodes is None and isinstance(self.K, int) and self.K > 3:
                errs.append("nodes: required for the vfp model with K > 3 (presets cover K <= 3)")
            if nodes is not None and not (
                isinstance(nodes, list)
                and len(nodes) == self.K
                and all(map(_positive, nodes))
                and all(a < b for a, b in zip(nodes, nodes[1:]))
            ):
                errs.append("nodes: must list K positive velocities in ascending order")
        if self.model == "twostream" and self.K != 1:
            errs.append("K: the two-stream model has K = 1")
        if not isinstance(self.seed, int):
            errs.append("seed: must be an integer")
        return errs

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        if isinstance(source, (str, Path)):
            with open(source) as fh:
                record = json.load(fh)
        else:
            record = dict(source)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(record) - known
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

    def to_json(self) -> dict:
        return {
            k: (list(v) if isinstance(v, (list, tuple)) else v)
            for k, v in self.__dict__.items()
        }


def initial_density_profile(name: str, x: np.ndarray, length: float) -> np.ndarray:
    if name == "uniform":
        return np.ones_like(x)
    if name == "cosine_bump":
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * x / length)
    if name == "gaussian":
        return 1.0 + 0.5 * np.exp(-0.5 * ((x - 0.5 * length) / (0.1 * length)) ** 2)
    raise ConfigError(f"unknown initial density {name!r}")


def field_profile(profile: dict | None, x: np.ndarray, length: float) -> np.ndarray:
    """Static field values at the given abscissae."""
    if profile is None or profile.get("kind", "zero") == "zero":
        return np.zeros_like(x)
    kind = profile["kind"]
    if kind == "constant":
        return np.full_like(x, float(profile.get("value", 0.0)))
    if kind == "sinusoidal":
        amp = float(profile.get("amplitude", 0.5))
        return amp * np.sin(2.0 * np.pi * x / length)
    raise ConfigError(f"unknown E_profile kind {kind!r}")


def response_from_params(params: dict | None):
    params = params or {}
    chi = float(params.get("chi", 1.0))
    delta = float(params.get("delta", 1.0))
    return lambda u: phi_tanh(u, chi=chi, delta=delta)


def build_quadrature(config: ExperimentConfig):
    if config.model == "twostream":
        return None
    if config.model == "vfp":
        nodes = (
            np.asarray(config.nodes, dtype=float)
            if config.nodes is not None
            else vfp_preset_nodes(config.K, config.kappa)
        )
        return vfp_quadrature(config.K, config.kappa, nodes)
    return gauss_symmetric(config.K)


def _write_snapshot(path, t, x_text, rho, S=None):
    """One CSV ``t,x,rho[,S]`` with 17 significant digits; ``x_text`` holds
    the cell centres already formatted, since they are the same every
    snapshot of a run."""
    columns = [x_text, rho.tolist()] + ([] if S is None else [S.tolist()])
    row = f"{t:.17g},%s" + ",%.17g" * (len(columns) - 1) + "\n"
    header = "t,x,rho" + (",S" if S is not None else "") + "\n"
    with open(path, "w") as fh:
        fh.write(header + (row * len(x_text)) % tuple(chain.from_iterable(zip(*columns))))


@dataclass
class RunResult:
    manifest: dict
    snapshots: list
    output_dir: Path


def run_experiment(config: ExperimentConfig, output_dir=None) -> RunResult:
    """Time-march one configuration, writing snapshot CSVs and a manifest.

    The manifest is written even when the run fails; the exception is then
    re-raised for the caller to map onto an exit code.
    """
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"config": config.to_json(), "status": "ok", "error": None}
    snapshots = []
    t0 = time.perf_counter()
    try:
        _run_loop(config, out, manifest, snapshots)
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["wall_time_s"] = time.perf_counter() - t0
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
    return RunResult(manifest=manifest, snapshots=snapshots, output_dir=out)


def _run_loop(config, out, manifest, snapshots):
    if config.epsilon is None:
        raise ConfigError("run requires a scalar epsilon (epsilon_list is for sweep)")
    n_steps = max(1, round(config.t_final / config.dt))
    stride = max(1, n_steps // 10)
    x = (np.arange(config.Nx) + 0.5) * config.dx
    x_text = ["%.17g" % v for v in x.tolist()]
    march = _march(config, config.epsilon)
    max_step_drift = 0.0
    for n in range(n_steps + 1):
        try:
            rho, S, _ = next(march)
        except SolveFailure as exc:
            raise SolveFailure(f"step {n}: {exc}") from exc
        mass = float(np.sum(rho) * config.dx)
        if n == 0:
            mass0 = prev = mass
        max_step_drift = max(max_step_drift, abs(mass - prev) / abs(mass0))
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


def _march(config: ExperimentConfig, epsilon: float):
    """Set up ``config`` at ``epsilon`` and yield (rho, S, q) for the initial
    state and then after every step, forever.

    S is the chemoattractant that drove the step (None for rte and vfp, and
    for the initial kinetic state); q is the velocity quadrature (None for
    the two-stream model).  ``kinwb run`` and the AP sweep both march here.
    """
    x = (np.arange(config.Nx) + 0.5) * config.dx
    length = config.Nx * config.dx
    rho0 = initial_density_profile(config.initial_density, x, length)
    phi = response_from_params(config.phi_params)
    if config.model == "twostream":
        state = TwoStreamState(
            Nx=config.Nx, dx=config.dx, dt=config.dt, epsilon=epsilon,
            f_plus=rho0 / 2.0, f_minus=rho0 / 2.0,
            S=chemoattractant_update(rho0, config.dx),
        )
        while True:
            yield state.rho, state.S, None
            state = ts_step(state, phi)
    q = build_quadrature(config)
    model = KineticModel(
        name=config.model,
        phi=phi if config.model == "chemo" else None,
        kappa=config.kappa,
    )
    grid = KineticGrid(
        Nx=config.Nx, dx=config.dx, dt=config.dt, epsilon=epsilon,
        q=q, f=equilibrium_state(model, q, rho0),
    )
    D = config.kappa if config.model == "vfp" else q.second_moment
    bound = config.dx**2 / (2.0 * D)
    if config.dt > bound:
        log.warning(
            "eps=%g: dt=%g exceeds dx^2/(2D)=%g, the stability bound of the explicit "
            "B term; the march may blow up", epsilon, config.dt, bound,
        )
    static_fields = None
    if config.model == "vfp":
        static_fields = MacroField(rho=rho0, E_half=_interface_field(config))
    op = step_operator(grid, model, static_fields)
    fields = None  # chemo: rebuilt from the density every step
    while True:
        rho = density(grid).rho
        yield rho, None if fields is None else fields.S, q
        if config.model == "chemo":
            fields = MacroField(rho=rho, S=chemoattractant_update(rho, config.dx))
        grid = imex_step(grid, op, fields)


def _interface_field(config: ExperimentConfig) -> np.ndarray:
    """The static vfp field at the interfaces x_{j-1/2}."""
    xi = np.arange(config.Nx) * config.dx
    return field_profile(config.E_profile, xi, config.Nx * config.dx)


# ---------------------------------------------------------------------------
# one-step AP gap against the matching macroscopic scheme
# ---------------------------------------------------------------------------


def _limit_step(config: ExperimentConfig, q, rho0: np.ndarray, S: np.ndarray | None) -> np.ndarray:
    """One step of the macroscopic scheme the model relaxes to: heat for
    rte, exponential fitting for chemo, vfp and the two-stream model.  S is
    the chemoattractant of rho0 (chemo and two-stream)."""
    dt, dx = config.dt, config.dx
    if config.model == "rte":
        return heat_step(rho0, q, dt, dx)
    if config.model == "vfp":
        return sg_vfp_step(rho0, _interface_field(config), config.kappa, dt, dx)
    phi = response_from_params(config.phi_params)
    if config.model == "chemo":
        return sg_chemo_step(rho0, q, chemo_drift(q, interface_grad(S, dx), phi), dt, dx)
    phi_half = phi(interface_grad(S, dx))
    return sg_step(rho0, DriftDiffusionParams(D=1.0, E_half=phi_half, dt=dt, dx=dx))


def ap_gap(config: ExperimentConfig, epsilon: float) -> float:
    """Relative L-inf gap between the first step of ``kinwb run`` on
    ``config`` at ``epsilon`` and one step of the limit scheme from the same
    density."""
    march = _march(config, epsilon)
    rho0, _, q = next(march)
    rho1, S, _ = next(march)
    ref = _limit_step(config, q, rho0, S)
    return float(np.max(np.abs(rho1 - ref)) / np.max(np.abs(ref)))


def ap_error_table(config: ExperimentConfig, epsilons):
    """(epsilon, gap) rows plus the log-log slope (None for a single row)."""
    rows = [(float(e), ap_gap(config, float(e))) for e in epsilons]
    slope = None
    if len(rows) >= 2:
        le = np.log([r[0] for r in rows])
        lg = np.log([max(r[1], 1e-300) for r in rows])
        slope = float(np.polyfit(le, lg, 1)[0])
    return rows, slope


def sweep_experiment(config: ExperimentConfig, output_dir=None) -> Path:
    """AP sweep over config.epsilon_list; one CSV with a slope footer row."""
    if not config.epsilon_list:
        raise ConfigError("sweep requires epsilon_list")
    out = Path(output_dir if output_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, slope = ap_error_table(config, config.epsilon_list)
    path = out / "ap_sweep.csv"
    with open(path, "w") as fh:
        fh.write("epsilon,error\n")
        for e, g in rows:
            fh.write(f"{e:.17g},{g:.17g}\n")
        if slope is not None:
            fh.write(f"slope,{slope:.17g}\n")
    return path
