"""Benchmark runner for trafficfuse: timed runs and the traced run.

    python3 perfbench/run.py --workload grid-twin --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The run repeats the operation in a child
process, checking each one's outputs, until --seconds would be exceeded.
Before every operation, set-up generates the workload's inputs from the
seed in a child process (workloads.py); setup_s is the median of those
set-ups' wall times. With --trace 0 the last stdout line is a JSON object
with every end-to-end metric; with --trace 1 the run also repeats one
operation with spans recorded around each layer and reports the
per-layer metrics instead. See README.md for what each number means.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and, through the inherited environment,
# in every child: the host is shared, and with OpenBLAS's default of one
# thread per core city-mesh spent more CPU time than wall time, so its
# timings depended on whatever else was running.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DEADLINE_SECONDS = 170.0  # every run, traced or not, ends before 180 s
PLACEMENT_RTOL = 1e-9
# The quality number reported as the end-to-end improvement_mae: the
# program's own diagnostics.improvement_mae, except where a workload has none.
HEADLINE_QUALITY = {"placement": "coverage_index"}
ARTIFACTS = (
    "metrics.json", "calibrated_counts.csv", "calibration_field.csv", "transition.csv",
    "localization.csv", "observability.json", "observability_conf.csv", "training_log.csv",
    "model.npz", "model.json",
)


@dataclass
class Op:
    """One operation: its timings, its output and what its check found."""

    wall_s: float = math.nan
    spawn_s: float = math.nan
    peak_rss_mb: float = math.nan
    cpu_s: float = math.nan
    output: bytes = b""
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list, log: Path, deadline: float):
    """Run cmd to completion; return (wall seconds, peak RSS in MB, exit code).

    os.wait4 reports the child's own peak RSS. A child still running at the
    deadline is killed, and this waits until it has ended.
    """
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, usage.ru_utime + usage.ru_stime


def _walk_numbers(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _walk_numbers(v, f"{path}.{k}" if path else str(k))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _walk_numbers(v, f"{path}[{k}]")
    elif obj is None or (isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        yield path, obj


def check_pipeline(op: Op, out: Path) -> None:
    missing = [a for a in ARTIFACTS if not (out / a).is_file()]
    if missing:
        op.errors.append(f"missing artifacts: {', '.join(missing)}")
    if "metrics.json" in missing:
        return
    op.output = (out / "metrics.json").read_bytes()
    payload = json.loads(op.output)
    for section in ("metrics", "uncalibrated", "diagnostics"):
        for path, v in _walk_numbers(payload[section]):
            if f"{section}.{path}" == "uncalibrated.coverage":
                continue  # the uncalibrated estimate carries no interval
            if v is None or not math.isfinite(v):
                op.errors.append(f"{section}.{path} is not finite: {v}")
    diag, metrics = payload["diagnostics"], payload["metrics"]
    if diag["far_base_change"] != 0.0:
        op.errors.append(f"far_base_change is {diag['far_base_change']!r}, not 0.0 (locality)")
    quality = {"improvement_mae": diag["improvement_mae"], "pooled_r2": metrics["pooled_r2"]}
    if metrics["coverage"] is not None:
        quality["coverage_error"] = abs(metrics["coverage"] - payload["config"]["interval"])
    if len(quality) == 3 and all(v is not None and math.isfinite(v) for v in quality.values()):
        op.quality = quality


def placement_oracle(net, fd, cameras, segment: int) -> float:
    """max over regimes of sum_{k<N} ||C A^k e_i||^2, by repeated mat-vecs."""
    import numpy as np
    from trafficfuse import observability

    best = 0.0
    for regime in observability.REGIMES:
        sys_ = observability.linearize(net, fd, regime, cameras=cameras)
        v = np.zeros(sys_.n)
        v[segment] = 1.0
        total = 0.0
        for _ in range(sys_.n):
            y = sys_.c @ v
            total += float(y @ y)
            v = sys_.a @ v
        best = max(best, total)
    return best


def check_placement(op: Op, out: Path, inputs) -> None:
    from trafficfuse import ctm, network

    path = out / "scores.json"
    if not path.is_file():
        op.errors.append("missing scores.json")
        return
    op.output = path.read_bytes()
    op.wall_s = json.loads((out / "timing.json").read_text())["seconds"]
    payload = json.loads(op.output)
    scores = payload["scores"]
    with open(inputs.camera_sets) as fh:
        camera_sets = json.load(fh)
    if len(scores) != len(camera_sets):
        op.errors.append(f"{len(scores)} score vectors for {len(camera_sets)} camera sets")
        return
    net = network.load_network(inputs.network)
    fd = ctm.default_fd_params(net)
    for k, cams in enumerate(camera_sets):
        if not all(math.isfinite(v) for v in scores[k]):
            op.errors.append(f"camera set {k}: non-finite score")
        for i in inputs.check_segments:
            want = placement_oracle(net, fd, cams, i)
            got = scores[k][i]
            if not math.isclose(got, want, rel_tol=PLACEMENT_RTOL, abs_tol=0.0):
                op.errors.append(f"camera set {k}, segment {i}: score {got!r}, oracle {want!r}")
    # The best candidate set's coverage index rank/N, each set judged by its
    # worst regime: the number a placement study would pick a set by.
    coverage_index = max(min(g.values()) for g in payload["gamma_rank"])
    if math.isfinite(coverage_index):
        op.quality = {"coverage_index": coverage_index}


def run_op(workload: str, inputs, out: Path, deadline: float, spans_path: Path | None = None) -> Op:
    if workload == "placement" or spans_path is not None:
        cmd = [sys.executable, str(HERE / "op.py"), workload, inputs.directory, str(out)]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
    else:
        cmd = [sys.executable, "-m", "trafficfuse.cli", "run", "--config", inputs.config, "--out", str(out)]
    op = Op()
    log = out.with_suffix(".log")
    op.spawn_s, op.peak_rss_mb, code, op.cpu_s = spawn(cmd, log, deadline)
    op.wall_s = op.spawn_s
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        op.errors.append(f"exit code {code}: {' | '.join(tail)}")
        return op
    try:
        if workload == "placement":
            check_placement(op, out, inputs)
        else:
            check_pipeline(op, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.errors.append(f"output check raised {type(exc).__name__}: {exc}")
    return op


def setup(args, run_dir: Path, deadline: float, times: list):
    """Generate the inputs in a child process, appending its wall time.

    The child's start-up and imports are part of the time: they keep one
    set-up well above the file system's latency, which on a shared disk
    varies several-fold from minute to minute and would otherwise be most
    of the time of writing a config file. Every set-up replaces the last in
    one directory, so the config's network path, which metrics.json
    records, is the same for every operation of the run.
    """
    import workloads

    directory = run_dir / "inputs"
    shutil.rmtree(directory, ignore_errors=True)
    log = run_dir / "setup.log"
    cmd = [sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed), str(directory)]
    seconds, _, code, _ = spawn(cmd, log, deadline)
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        raise RuntimeError(f"set-up exited with code {code}: {' | '.join(tail)}")
    times.append(seconds)
    return workloads.load_manifest(str(directory))


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return f"unknown (OPENBLAS_NUM_THREADS={BLAS_THREADS})"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": vendor, "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def measure(args, run_dir: Path, deadline: float) -> dict:
    import spans

    ops: list[Op] = []
    setup_times: list[float] = []
    start = time.perf_counter()
    while True:
        inputs = setup(args, run_dir, deadline, setup_times)
        out = run_dir / f"op{len(ops)}"
        op = run_op(args.workload, inputs, out, deadline)
        if ops and ops[0].output and op.output and op.output != ops[0].output:
            op.errors.append("output differs from the first operation's (same seed, same inputs)")
        ops.append(op)
        shutil.rmtree(out, ignore_errors=True)
        status = "ok" if not op.errors else "FAILED: " + "; ".join(op.errors)
        print(f"op {len(ops)}: set-up {setup_times[-1]:.4f} s, wall {op.wall_s:.4f} s, cpu {op.cpu_s:.4f} s, "
              f"peak RSS {op.peak_rss_mb:.1f} MB, {status}")
        elapsed = time.perf_counter() - start
        if elapsed + op.spawn_s > args.seconds or time.perf_counter() + op.spawn_s > deadline:
            break
    # A check can fail on an operation that ran to completion; such an
    # operation counts as failed but is still measured.
    measured = [op for op in ops if op.quality]
    if not measured:
        raise RuntimeError(f"none of {len(ops)} operations completed with readable outputs")
    setup_s = statistics.median(setup_times)
    print(f"setup: {len(setup_times)} set-ups, median {setup_s:.6f} s")
    wall = statistics.median(op.wall_s for op in measured)
    result = {"attempted": len(ops), "failed": sum(bool(op.errors) for op in ops), "quality": measured[0].quality}
    if not args.trace:
        result["metrics"] = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in measured),
            "improvement_mae": measured[0].quality[HEADLINE_QUALITY.get(args.workload, "improvement_mae")],
        }
        return result

    inputs = setup(args, run_dir, deadline, setup_times)
    out = run_dir / "traced"
    spans_path = run_dir / "spans.json"
    op = run_op(args.workload, inputs, out, deadline, spans_path)
    if op.output and op.output != measured[0].output:
        op.errors.append("traced output differs from the untraced output (same seed)")
    result["attempted"] += 1
    result["failed"] += bool(op.errors)
    print(f"traced op: wall {op.wall_s:.4f} s, {'ok' if not op.errors else 'FAILED: ' + '; '.join(op.errors)}")
    recorded = json.loads(spans_path.read_text()) if spans_path.is_file() else {"spans": [], "values": {}}
    result["metrics"] = spans.layer_metrics(recorded["spans"], recorded["values"], op.wall_s, wall)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trafficfuse benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "trafficfuse" / "__init__.py").is_file():
        print(f"perfbench: no trafficfuse sources under {SRC}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    deadline = time.perf_counter() + DEADLINE_SECONDS
    print("environment:", json.dumps(environment(), sort_keys=True))
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result = measure(args, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['metrics']))}")
    for name, value in result["quality"].items():
        print(f"quality {name}: {value!r} 1")
    print(f"failed_ratio: {result['failed'] / result['attempted']!r} ({result['failed']} of {result['attempted']})")
    metrics = {}
    for name, value in result["metrics"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
