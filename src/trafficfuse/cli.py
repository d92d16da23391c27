"""Command-line front end: one subcommand per pipeline stage that writes files.

Every subcommand reads the same experiment JSON (defaults apply when no
config is given), reruns the deterministic stage chain up to its own
stage, and writes that stage's artifacts into --out. `run` executes the
whole chain and writes the full artifact set.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from dataclasses import replace

import numpy as np

from .harness import ExperimentConfig, Pipeline, load_config

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> tuple:
    """Keep freed heap memory in the process; returns mallopt's results.

    Each training step frees a whole tape. With glibc's defaults the freed
    pages go back to the OS and the next step faults them in again. A
    1 GiB trim threshold, and a fixed 32 MiB mmap threshold (glibc's
    64-bit maximum) for the arrays of one step, keep them. A no-op,
    returning (), where libc.so.6 or mallopt is missing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TRIM_THRESHOLD, 1 << 30), mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficfuse",
        description="Camera-calibrated traffic volume estimation from probe counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        blurb = ("full chain, complete artifact set" if name == "run"
                 else f"run the chain through the {name} stage")
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="experiment JSON (defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def _configure(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_train(pipe: Pipeline, out: str) -> str:
    log = pipe.write_training(out)["training_log"]
    return f"train: best validation loss {pipe.trained.best_val:.4f} -> {log}"


def _cmd_calibrate(pipe: Pipeline, out: str) -> str:
    path = pipe.write_calibration(out)["calibrated_counts"]
    alpha = float(np.median(pipe.alpha_path[:, pipe.t_assim - 1]))
    return f"calibrate: median multiplier {alpha:.3f} -> {path}"


def _cmd_observability(pipe: Pipeline, out: str) -> str:
    path = pipe.write_observability(out)["observability"]
    ranks = ", ".join(f"{k}={v:.3f}" for k, v in sorted(pipe.obs_report.gamma_rank.items()))
    return f"observability: rank ratios {ranks} -> {path}"


def _cmd_evaluate(pipe: Pipeline, out: str) -> str:
    path = pipe.write_metrics(out)["metrics"]
    pooled = pipe.report.pooled_r2
    pooled_txt = "n/a" if pooled is None else f"{pooled:.4f}"
    return f"evaluate: pooled r2 {pooled_txt} -> {path}"


def _cmd_run(pipe: Pipeline, out: str) -> str:
    paths = pipe.write_artifacts(out)
    pooled = pipe.report.pooled_r2
    pooled_txt = "n/a" if pooled is None else f"{pooled:.4f}"
    cov = pipe.report.coverage
    cov_txt = "n/a" if cov is None else f"{cov:.3f}"
    return f"run: pooled r2 {pooled_txt}, coverage {cov_txt} -> {paths['metrics']}"


_COMMANDS = {
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "observability": _cmd_observability,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    pipe = Pipeline(_configure(args))
    os.makedirs(args.out, exist_ok=True)
    print(_COMMANDS[args.command](pipe, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
