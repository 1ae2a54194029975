"""Batch experiment driver: configs, time loops, snapshots, AP sweeps."""

import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolveFailure
from .kinetic import (
    KineticGrid,
    KineticModel,
    MacroField,
    cfl_check,
    chemo_drift,
    chemoattractant_update,
    density,
    equilibrium_state,
    imex_step,
    interface_grad,
    phi_tanh,
    step_operator,
    total_mass,
)
from .macrolimit import DriftDiffusionParams, heat_step, sg_chemo_step, sg_step, sg_vfp_step
from .quadrature import gauss_symmetric, vfp_preset_nodes, vfp_quadrature
from .twostream import TwoStreamState, ts_mass, ts_step

log = logging.getLogger("kinwb")

_MODELS = ("twostream", "rte", "chemo", "vfp")
_DENSITIES = ("uniform", "cosine_bump", "gaussian")


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
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or val <= 0:
                errs.append(f"{name}: must be positive")
        if self.initial_density not in _DENSITIES:
            errs.append(f"initial_density: must be one of {_DENSITIES}")
        if self.epsilon is None and not self.epsilon_list:
            errs.append("epsilon: either epsilon or epsilon_list is required")
        if self.epsilon is not None and self.epsilon <= 0:
            errs.append("epsilon: must be positive")
        if self.epsilon_list is not None and any(e <= 0 for e in self.epsilon_list):
            errs.append("epsilon_list: entries must be positive")
        if self.model == "vfp":
            if self.kappa is None or self.kappa <= 0:
                errs.append("kappa: required (positive) for the vfp model")
            if self.E_profile is None:
                errs.append("E_profile: required for the vfp model")
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


def _write_snapshot(path, t, x, rho, S=None):
    with open(path, "w") as fh:
        fh.write("t,x,rho" + (",S" if S is not None else "") + "\n")
        for j in range(len(x)):
            row = f"{t:.17g},{x[j]:.17g},{rho[j]:.17g}"
            if S is not None:
                row += f",{S[j]:.17g}"
            fh.write(row + "\n")


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
    length = config.Nx * config.dx
    x = (np.arange(config.Nx) + 0.5) * config.dx
    rho0 = initial_density_profile(config.initial_density, x, length)
    phi = response_from_params(config.phi_params)

    def snap(index, t, rho, S=None):
        path = out / f"snapshot_{index:04d}.csv"
        _write_snapshot(path, t, x, rho, S)
        snapshots.append(path)

    max_step_drift = 0.0

    if config.model == "twostream":
        state = TwoStreamState(
            Nx=config.Nx, dx=config.dx, dt=config.dt, epsilon=config.epsilon,
            f_plus=rho0 / 2.0, f_minus=rho0 / 2.0,
            S=chemoattractant_update(rho0, config.dx),
        )
        mass0 = ts_mass(state)
        snap(0, 0.0, state.rho, state.S)
        prev = mass0
        for n in range(1, n_steps + 1):
            state = ts_step(state, phi)
            mass = ts_mass(state)
            max_step_drift = max(max_step_drift, abs(mass - prev) / abs(mass0))
            prev = mass
            if n % stride == 0 or n == n_steps:
                snap(len(snapshots), n * config.dt, state.rho, state.S)
        final_mass = ts_mass(state)
    else:
        q = build_quadrature(config)
        model = KineticModel(
            name=config.model,
            phi=phi if config.model == "chemo" else None,
            kappa=config.kappa,
        )
        grid = KineticGrid(
            Nx=config.Nx, dx=config.dx, dt=config.dt, epsilon=config.epsilon,
            q=q, f=equilibrium_state(model, q, rho0),
        )
        if not cfl_check(grid):
            log.warning(
                "kinetic CFL max(v)*dt <= eps*dx violated (advisory under IMEX)"
            )
        static_fields = None
        if config.model == "vfp":
            xi = np.arange(config.Nx) * config.dx  # interfaces x_{j-1/2}
            static_fields = MacroField(rho=rho0, E_half=field_profile(config.E_profile, xi, length))
        op = step_operator(grid, model, static_fields)
        fields = None  # chemo: rebuilt from the density every step
        mass0 = total_mass(grid)
        prev = mass0
        snap(0, 0.0, density(grid).rho, None)
        for n in range(1, n_steps + 1):
            if config.model == "chemo":
                rho = density(grid).rho
                fields = MacroField(rho=rho, S=chemoattractant_update(rho, config.dx))
            try:
                grid = imex_step(grid, op, fields)
            except SolveFailure as exc:
                raise SolveFailure(f"step {n}: {exc}") from exc
            mass = total_mass(grid)
            max_step_drift = max(max_step_drift, abs(mass - prev) / abs(mass0))
            prev = mass
            if n % stride == 0 or n == n_steps:
                Sout = None if fields is None else fields.S
                snap(len(snapshots), n * config.dt, density(grid).rho, Sout)
        final_mass = total_mass(grid)

    manifest["n_steps"] = n_steps
    manifest["mass_initial"] = mass0
    manifest["mass_final"] = final_mass
    manifest["mass_drift_total"] = abs(final_mass - mass0) / abs(mass0)
    manifest["mass_drift_per_step_max"] = max_step_drift


# ---------------------------------------------------------------------------
# one-step AP gap against the matching macroscopic scheme
# ---------------------------------------------------------------------------


def ap_gap(
    model_name: str,
    epsilon: float,
    Nx: int,
    dx: float,
    dt: float,
    K: int = 4,
    kappa: float | None = None,
    E_profile: dict | None = None,
    phi_params: dict | None = None,
    initial: str = "cosine_bump",
) -> float:
    """Relative L-inf gap between one kinetic step and one macro step.

    The kinetic state starts on the model Maxwellian carrying a smooth
    density; the macroscopic reference is the matching scheme (heat /
    exponential-fitting with the model's drift).
    """
    length = Nx * dx
    x = (np.arange(Nx) + 0.5) * dx
    rho0 = initial_density_profile(initial, x, length)
    phi = response_from_params(phi_params)
    if model_name == "twostream":
        state = TwoStreamState(
            Nx=Nx, dx=dx, dt=dt, epsilon=epsilon,
            f_plus=rho0 / 2.0, f_minus=rho0 / 2.0,
            S=chemoattractant_update(rho0, dx),
        )
        new = ts_step(state, phi)
        S = chemoattractant_update(rho0, dx)
        phi_half = phi(interface_grad(S, dx))
        ref = sg_step(rho0, DriftDiffusionParams(D=1.0, E_half=phi_half, dt=dt, dx=dx))
        return float(np.max(np.abs(new.rho - ref)) / np.max(np.abs(ref)))

    if model_name == "vfp":
        q = vfp_quadrature(K, kappa, vfp_preset_nodes(K, kappa))
    else:
        q = gauss_symmetric(K)
    model = KineticModel(
        name=model_name, phi=phi if model_name == "chemo" else None, kappa=kappa
    )
    grid = KineticGrid(
        Nx=Nx, dx=dx, dt=dt, epsilon=epsilon, q=q,
        f=equilibrium_state(model, q, rho0),
    )
    fields = None
    if model_name == "rte":
        ref = heat_step(rho0, q, dt, dx)
    elif model_name == "chemo":
        S = chemoattractant_update(rho0, dx)
        fields = MacroField(rho=rho0, S=S)
        E_half = chemo_drift(q, interface_grad(S, dx), phi)
        ref = sg_chemo_step(rho0, E_half, dt, dx)
    else:
        xi = np.arange(Nx) * dx
        E_half = field_profile(E_profile, xi, length)
        fields = MacroField(rho=rho0, E_half=E_half)
        ref = sg_vfp_step(rho0, E_half, kappa, dt, dx)
    new = imex_step(grid, step_operator(grid, model, fields))
    rho1 = density(new).rho
    return float(np.max(np.abs(rho1 - ref)) / np.max(np.abs(ref)))


def ap_error_table(model_name: str, epsilons, **grid_params):
    """(epsilon, gap) rows plus the log-log slope (None for a single row)."""
    rows = [(float(e), ap_gap(model_name, float(e), **grid_params)) for e in epsilons]
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
    workers = max(1, int(os.environ.get("KINWB_THREADS", "4")))
    kwargs = dict(
        Nx=config.Nx, dx=config.dx, dt=config.dt, K=config.K,
        kappa=config.kappa, E_profile=config.E_profile,
        phi_params=config.phi_params, initial=config.initial_density,
    )
    epsilons = [float(e) for e in config.epsilon_list]
    with ThreadPoolExecutor(max_workers=min(workers, len(epsilons))) as pool:
        gaps = list(pool.map(lambda e: ap_gap(config.model, e, **kwargs), epsilons))
    path = out / "ap_sweep.csv"
    with open(path, "w") as fh:
        fh.write("epsilon,error\n")
        for e, g in zip(epsilons, gaps):
            fh.write(f"{e:.17g},{g:.17g}\n")
        if len(epsilons) >= 2:
            slope = float(np.polyfit(np.log(epsilons), np.log(gaps), 1)[0])
            fh.write(f"slope,{slope:.17g}\n")
    return path
