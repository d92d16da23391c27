"""Spans around calls into each layer, recorded from outside the program.

``install`` rebinds public names where their callers look them up (for
example ``trafficfuse.train.forward``, which ``train`` and ``predict``
call through their module globals) to wrappers that record a span: name,
start, end and parent. Spans stay in memory; the traced operation writes
them out when it ends, and ``layer_metrics`` turns them into the per-layer
numbers. Self time is a span's duration minus the part its child spans
cover; calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

STAGES = ("simulate", "sample", "features", "fit", "forecasts", "transition", "calibrate", "metrics", "write")


class Recorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self):
        self.spans: list[dict] = []
        self.values: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        """Return fn recording one span per call.

        annotate(args, kwargs, result) may return fields merged into the
        span, such as a refined name or a count read from the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    def peak_probe(self, key: str, fn, traced):
        """Call traced, measuring fn's tracemalloc peak once beforehand.

        The probe repeats the first call untraced under tracemalloc (fn must
        be a pure function), inside its own span so that it adds to no
        layer's time.
        """
        measure = self.wrap("trace.probe", fn)

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if key not in self.values:
                tracemalloc.start()
                try:
                    measure(*args, **kwargs)
                    self.values[key] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
            return traced(*args, **kwargs)

        return probed


def _tape(prefix):
    def annotate(args, kwargs, result):
        tensor = result.q_hat if prefix == "model.forward" else result["total"]
        return {"name": f"{prefix}_{'tape' if tensor.requires_grad else 'notape'}"}

    return annotate


def _bins(args, kwargs, result):
    return {"count": result.counts.n_bins}


def _steps(args, kwargs, result):
    return {"count": result.steps, "requested": kwargs.get("steps")}


def _updates(args, kwargs, result):
    return {"count": result.n_assimilated - args[0].n_assimilated}


# (module, attribute, span name, annotate); a module path may end in a class
TARGETS = (
    ("trafficfuse.harness", "simulate", "ctm.simulate", _bins),
    ("trafficfuse.harness", "build_tensor", "features.build_tensor", None),
    ("trafficfuse.train", "forward", "model.forward", _tape("model.forward")),
    ("trafficfuse.train", "loss_components", "model.loss", _tape("model.loss")),
    ("trafficfuse.autodiff.Tensor", "backward", "autodiff.backward", None),
    ("trafficfuse.harness", "train", "train.train", _steps),
    ("trafficfuse.harness", "predict", "train.predict", None),
    ("trafficfuse.harness", "build_windows", "train.build_windows", None),
    ("trafficfuse.ensrf", "forecast_step", "ensrf.forecast_step", None),
    ("trafficfuse.ensrf", "analysis_step", "ensrf.analysis_step", _updates),
    ("trafficfuse.harness", "build_transition", "propagation.build_transition", None),
    ("trafficfuse.harness", "localization_vectors", "propagation.localization", None),
    ("trafficfuse.harness", "update_confidence", "propagation.blend", None),
    ("trafficfuse.harness", "shrink_blend", "propagation.blend", None),
    ("trafficfuse.harness", "calibrate_counts", "propagation.blend", None),
    ("trafficfuse.harness", "analyze", "observability.analyze", None),
    ("trafficfuse.observability", "analyze", "observability.analyze", None),
    ("trafficfuse.observability", "linearize", "observability.linearize", None),
    ("trafficfuse.observability", "observability_rank", "observability.rank", None),
    ("trafficfuse.observability", "spectral_radius", "observability.spectral_radius", None),
    ("trafficfuse.observability", "gramian", "observability.gramian", None),
) + tuple(
    ("trafficfuse.harness.Pipeline", "write_artifacts" if s == "write" else s, f"harness.{s}", None)
    for s in STAGES
)


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def install(rec: Recorder) -> None:
    """Rebind every target name to a span-recording wrapper."""
    for path, attr, name, annotate in TARGETS:
        owner = _resolve(path)
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), annotate))
    ensrf = importlib.import_module("trafficfuse.ensrf")
    raw = ensrf.diffuse
    ensrf.diffuse = rec.peak_probe("diffuse_peak_mb", raw, rec.wrap("propagation.diffuse", raw))


# -- per-layer metrics ---------------------------------------------------------


def _durations(spans):
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[k]
    return dur, [d - c for d, c in zip(dur, child)]


def _inside(spans, k, name):
    p = spans[k]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def _stage_times(spans, dur):
    """Each stage's time minus the stages and probes nested inside it."""
    times = {s: 0.0 for s in STAGES}
    nested = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if not (s["name"].startswith("harness.") or s["name"] == "trace.probe"):
            continue
        p = s["parent"]
        while p is not None and not spans[p]["name"].startswith("harness."):
            p = spans[p]["parent"]
        if p is not None:
            nested[p] += dur[k]
    for k, s in enumerate(spans):
        if s["name"].startswith("harness."):
            times[s["name"][len("harness."):]] += dur[k] - nested[k]
    return times


def layer_metrics(spans: list, values: dict, op_seconds: float, untraced_seconds: float) -> dict:
    """Per-layer numbers from one traced operation, keyed by metric name."""
    dur, self_t = _durations(spans)
    total, own, calls, count = {}, {}, {}, {}
    for k, s in enumerate(spans):
        n = s["name"]
        total[n] = total.get(n, 0.0) + dur[k]
        own[n] = own.get(n, 0.0) + self_t[k]
        calls[n] = calls.get(n, 0) + 1
        count[n] = count.get(n, 0) + s.get("count", 0)

    def t(name):
        return total.get(name, 0.0)

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    in_train_notape = sum(
        dur[k] for k, s in enumerate(spans)
        if s["name"] in ("model.forward_notape", "model.loss_notape") and _inside(spans, k, "train.train")
    )
    requested = [s.get("requested") for s in spans if s["name"] == "train.train"]
    stages = _stage_times(spans, dur)
    m = {
        "ctm.simulate_s": t("ctm.simulate"),
        "ctm.step_us": per(t("ctm.simulate"), count.get("ctm.simulate", 0), 1e6),
        "features.build_tensor_s": t("features.build_tensor"),
        "model.forward_tape_s": t("model.forward_tape"),
        "model.forward_tape_calls": calls.get("model.forward_tape", 0),
        "model.forward_notape_s": t("model.forward_notape"),
        "model.forward_notape_calls": calls.get("model.forward_notape", 0),
        "model.loss_s": t("model.loss_tape") + t("model.loss_notape"),
        "autodiff.backward_s": t("autodiff.backward"),
        "autodiff.backward_calls": calls.get("autodiff.backward", 0),
        "train.train_s": t("train.train"),
        "train.steps": count.get("train.train", 0),
        "train.steps_requested": sum(r or 0 for r in requested),
        "train.step_ms": per(t("train.train") - in_train_notape, count.get("train.train", 0), 1e3),
        "train.optimizer_s": own.get("train.train", 0.0),
        "train.predict_s": t("train.predict"),
        "train.build_windows_s": t("train.build_windows"),
        "ensrf.forecast_step_self_s": own.get("ensrf.forecast_step", 0.0),
        "ensrf.analysis_step_s": t("ensrf.analysis_step"),
        "ensrf.analysis_calls": calls.get("ensrf.analysis_step", 0),
        "ensrf.updates": count.get("ensrf.analysis_step", 0),
        "ensrf.update_us": per(t("ensrf.analysis_step"), count.get("ensrf.analysis_step", 0), 1e6),
        "propagation.diffuse_s": t("propagation.diffuse"),
        "propagation.diffuse_calls": calls.get("propagation.diffuse", 0),
        "propagation.diffuse_ms": per(t("propagation.diffuse"), calls.get("propagation.diffuse", 0), 1e3),
        "propagation.diffuse_peak_mb": values.get("diffuse_peak_mb", 0.0),
        "propagation.build_transition_s": t("propagation.build_transition"),
        "propagation.localization_s": t("propagation.localization"),
        "propagation.blend_s": t("propagation.blend"),
        "observability.analyze_s": t("observability.analyze"),
        "observability.gramian_s": t("observability.gramian"),
        "observability.rank_s": t("observability.rank"),
        "observability.linearize_s": t("observability.linearize"),
        "observability.spectral_radius_s": t("observability.spectral_radius"),
    }
    for stage in STAGES:
        m[f"harness.{stage}_s"] = stages[stage]
    m["harness.assimilation_self_s"] = own.get("harness.calibrate", 0.0)
    m["harness.remainder_s"] = op_seconds - sum(stages.values()) if stages["write"] else 0.0
    m["trace.overhead_s"] = op_seconds - untraced_seconds
    return m
