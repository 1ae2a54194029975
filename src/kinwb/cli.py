"""Command-line front end: kinwb run | sweep | verify."""

import argparse
import ctypes
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .diagnostics import SCOPES, run_verification
from .errors import ConfigError, KinwbError
from .runner import ExperimentConfig, _write_text, run_experiment, sweep_experiment

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _reuse_freed_memory() -> None:
    """Keep freed heap memory for reuse: under glibc's default thresholds a
    chemo step's (Nx, 2K, 2K) temporaries, 128 KB and up from Nx = 256 at
    K = 4, go back to the kernel at every free and are page-faulted in again
    the next step.  A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB freed for reuse


def _config_and_out(args):
    """The config named by ``--config`` and the output directory: ``--out``
    when given (an empty one is the current directory), else the config's."""
    config = ExperimentConfig.from_json(args.config)
    return config, Path(args.out if args.out is not None else config.output_dir)


def _cmd_run(args) -> int:
    config, out = _config_and_out(args)
    manifest = run_experiment(config, out)
    print(f"run complete: {len(manifest['snapshots'])} snapshots in {out}")
    print(f"mass drift per step (max): {manifest['mass_drift_per_step_max']:.3e}")
    return 0


def _cmd_sweep(args) -> int:
    path = sweep_experiment(*_config_and_out(args))
    print(f"sweep table written to {path}")
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(args.scope)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    if args.out:
        report = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        _write_text(args.out, json.dumps(report, indent=2))
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinwb",
        description="Well-balanced kinetic schemes and their exponential-fitting limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="time-march one configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.set_defaults(func=_cmd_run)
    p_sweep = sub.add_parser("sweep", help="AP error sweep over epsilon_list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)
    p_verify = sub.add_parser("verify", help="run the built-in verification suites")
    p_verify.add_argument("--scope", default="all", choices=["all", *SCOPES])
    p_verify.add_argument("--out", default=None, help="also write a JSON report")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig()
    _reuse_freed_memory()
    try:
        # non-finite values end in typed errors or are exact limits (1/inf = 0)
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KinwbError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"config error: out of memory, reduce Nx or K ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config raises ConfigError: this is the output
        print(f"config error: cannot write output ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
