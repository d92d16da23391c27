"""Command-line front end: `run` and `observability`.

Both commands take two flags: --config, the experiment JSON (defaults
apply when none is given), and --out. The config's seed field is the one
place a run's seed is set. `run` executes the whole chain and writes
the full artifact set; `observability` builds the network and writes
only the camera-placement analysis, training nothing. A bad config or a
failed stage prints one line, `trafficfuse: error: <stage>: <cause>`, to
stderr and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from .harness import ExperimentConfig, Pipeline, PipelineError, load_config

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
    for name, (_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="experiment JSON (defaults when omitted)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def _cmd_observability(pipe: Pipeline, out: str) -> str:
    path = pipe.write_observability(out)["observability"]
    ranks = ", ".join(f"{k}={v:.3f}" for k, v in sorted(pipe.obs_report.gamma_rank.items()))
    return f"observability: rank ratios {ranks} -> {path}"


def _cmd_run(pipe: Pipeline, out: str) -> str:
    paths = pipe.write_artifacts(out)
    pooled = pipe.report.pooled_r2
    pooled_txt = "n/a" if pooled is None else f"{pooled:.4f}"
    cov = pipe.report.coverage
    cov_txt = "n/a" if cov is None else f"{cov:.3f}"
    return f"run: pooled r2 {pooled_txt}, coverage {cov_txt} -> {paths['metrics']}"


_COMMANDS = {
    "run": (_cmd_run, "full chain, complete artifact set"),
    "observability": (_cmd_observability, "camera-placement analysis of the network; trains nothing"),
}


def _run(args) -> str:
    """The command's summary line; a PipelineError names the failed stage."""
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
    except (OSError, ValueError) as exc:
        raise PipelineError("config", exc) from exc
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise PipelineError("write", exc) from exc
    return _COMMANDS[args.command][0](Pipeline(cfg), args.out)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        print(_run(args))
    except PipelineError as exc:
        print(f"trafficfuse: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
