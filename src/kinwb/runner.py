"""Batch experiment driver: configs, time loops, snapshots, AP sweeps."""

import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolveFailure
from .kinetic import phi_tanh
from .macrolimit import DriftDiffusionParams, sg_step
from .models import Chemo, Rte, TwoStream, Vfp
from .quadrature import gauss_symmetric, vfp_preset_nodes, vfp_quadrature

_DENSITIES = ("uniform", "cosine_bump", "gaussian")
# E_profile kinds and the keys each one reads
_FIELDS = {"zero": {"kind"}, "constant": {"kind", "value"}, "sinusoidal": {"kind", "amplitude"}}
# the most time steps a config may ask for (at 0.1 ms a step, about a day)
MAX_STEPS = 10**9


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
        elif params:
            unknown = set(params) - {"chi", "delta"}
            if unknown:
                errs.append(f"phi_params: unknown keys {sorted(unknown)}; known: chi, delta")
            if not _positive(params.get("delta", 1.0)):
                errs.append("phi_params: delta must be positive")
        if self.kappa is not None and not _positive(self.kappa):
            errs.append("kappa: must be a positive number")
        profile = self.E_profile
        kind = profile.get("kind", "zero") if isinstance(profile, dict) else None
        # a tuple, not the dict: a kind read from the config may be unhashable
        if profile is not None and not (
            kind in tuple(_FIELDS) and all(_number(v) for k, v in profile.items() if k != "kind")
        ):
            errs.append(f"E_profile: kind must be one of {tuple(_FIELDS)}, other entries numbers")
        elif profile is not None:
            unknown = set(profile) - _FIELDS[kind]
            if unknown:
                errs.append(
                    f"E_profile: unknown keys {sorted(unknown)} for kind {kind!r};"
                    f" known: {', '.join(sorted(_FIELDS[kind]))}"
                )
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
        if isinstance(self.model, str) and self.model in MODELS:
            # a field the model does not read would be silently ignored
            unread = [] if self.model == "vfp" else [
                name for name in ("kappa", "E_profile", "nodes") if getattr(self, name) is not None
            ]
            if self.model in ("rte", "vfp") and self.phi_params:
                unread.append("phi_params")
            errs.extend(f"{name}: not read by the {self.model} model" for name in unread)
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


def _vfp(config: ExperimentConfig) -> Vfp:
    """The vfp model on the config's nodes (else the preset), with its
    static field at the interfaces x_{j-1/2}."""
    nodes = (
        np.asarray(config.nodes, dtype=float)
        if config.nodes is not None
        else vfp_preset_nodes(config.K, config.kappa)
    )
    xi = np.arange(config.Nx) * config.dx
    E_half = field_profile(config.E_profile, xi, config.Nx * config.dx)
    return Vfp(vfp_quadrature(config.K, config.kappa, nodes), E_half)


# model name -> the model of a validated config
MODELS = {
    "twostream": lambda c: TwoStream(response_from_params(c.phi_params)),
    "rte": lambda c: Rte(gauss_symmetric(c.K)),
    "chemo": lambda c: Chemo(gauss_symmetric(c.K), response_from_params(c.phi_params)),
    "vfp": _vfp,
}


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
    model, rho0 = _setup(config)
    march = model.march(config.epsilon, config.dt, config.dx, rho0)
    max_step_drift = 0.0
    for n in range(n_steps + 1):
        try:
            rho, S = next(march)
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


def _setup(config: ExperimentConfig):
    """The eps-independent set-up of ``config``: its model and initial
    density.  ``model.march(eps, dt, dx, rho0)`` then yields (rho, S) for
    the initial state and after every step, forever (see :mod:`models`).
    Models are immutable, so ``kinwb run`` marches the set-up once and the
    AP sweep marches one set-up at every epsilon; the step-size warning of
    ``model.check_step`` comes once per set-up."""
    model = MODELS[config.model](config)
    model.check_step(config.dt, config.dx)
    x = (np.arange(config.Nx) + 0.5) * config.dx
    return model, initial_density_profile(config.initial_density, x, config.Nx * config.dx)


# ---------------------------------------------------------------------------
# one-step AP gap against the exponential-fitting limit scheme
# ---------------------------------------------------------------------------


def ap_gap(config: ExperimentConfig, epsilon: float) -> float:
    """Relative L-inf gap between the first step of ``kinwb run`` on
    ``config`` at ``epsilon`` and one step of the limit scheme from the same
    density: exponential fitting with the model's D and drift, S being the
    chemoattractant that drove the step.  Builds the set-up for this one
    epsilon; :func:`ap_error_table` builds it once for a whole sweep."""
    return _gap(config, *_setup(config), epsilon)


def _gap(config, model, rho_init, epsilon) -> float:
    """:func:`ap_gap` on the set-up ``(model, rho_init)`` of ``config``."""
    march = model.march(epsilon, config.dt, config.dx, rho_init)
    rho0, _ = next(march)
    rho1, S = next(march)
    drift = model.drift(S, config.dx)
    ref = sg_step(rho0, DriftDiffusionParams(model.D, drift, config.dt, config.dx))
    if not np.all(np.isfinite(ref)):
        raise SolveFailure(f"eps={epsilon:g}: the limit scheme produced a non-finite state")
    return float(np.max(np.abs(rho1 - ref)) / np.max(np.abs(ref)))


def ap_error_table(config: ExperimentConfig, epsilons):
    """(epsilon, gap) rows, each gap :func:`ap_gap` bit for bit, plus the
    log-log slope (None below two distinct epsilons).  The set-up is built
    once and marched at every epsilon."""
    model, rho_init = _setup(config)
    rows = [(float(e), _gap(config, model, rho_init, float(e))) for e in epsilons]
    slope = None
    if len({e for e, _ in rows}) >= 2:
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
