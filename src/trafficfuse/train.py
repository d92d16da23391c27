"""Windowing, optimization, checkpointing, and rolling prediction.

Training windows pair a normalized feature history with raw future
counts; histories and futures are contiguous and never overlap within a
window. The optimizer is first-order adaptive-moment gradient descent
with global gradient-norm clipping; runs are bitwise reproducible for a
fixed seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .features import FeatureTensor
from .model import ModelConfig, forward, init_params, loss_components
from .util import canonical_json, substream

__all__ = [
    "WindowSet",
    "TrainResult",
    "build_windows",
    "train",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class WindowSet:
    """Aligned training arrays.

    hist: (n_windows, H, N, n_features) normalized features
    anchor: (n_windows, N) raw counts at the last observed bin
    target: (n_windows, N, F) raw future counts
    n_tot: (n_windows,) conserved total for the one-step hinge
    t_index: (n_windows,) index of the last observed bin
    """

    hist: np.ndarray
    anchor: np.ndarray
    target: np.ndarray
    n_tot: np.ndarray
    t_index: np.ndarray

    def __len__(self):
        return self.hist.shape[0]

    def subset(self, idx) -> "WindowSet":
        return WindowSet(self.hist[idx], self.anchor[idx], self.target[idx], self.n_tot[idx], self.t_index[idx])


def build_windows(
    tensor: FeatureTensor,
    counts: np.ndarray,
    cfg: ModelConfig,
    boundary_in: np.ndarray | None = None,
    boundary_out: np.ndarray | None = None,
    t_last: int | None = None,
) -> WindowSet:
    """Slide history/future windows over the bin axis.

    counts are the raw (unnormalized) per-bin values the targets and
    anchors are read from. The conserved total is the anchor-bin total
    plus the net boundary flow during the first forecast step, taken from
    the boundary arrays when given and from the observed total change
    otherwise. Windows whose anchor, target or conserved total is not
    finite (a missing probe bin) are dropped; windows whose history holds
    an imputed bin are still emitted, and t_last bounds the span.
    """
    h, f = cfg.history, cfg.horizon
    n, t = counts.shape
    if tensor.values.shape[:2] != (n, t):
        raise ValueError("feature tensor does not align with counts")
    if t_last is None:
        t_last = t - f - 1
    feats = tensor.normalized()
    starts = np.arange(h - 1, t_last + 1)
    if len(starts) == 0:
        raise ValueError("horizon leaves no complete window")
    anchor = counts[:, starts].T
    target = np.stack([counts[:, s + 1 : s + 1 + f] for s in starts])
    if boundary_in is not None or boundary_out is not None:
        bi = np.zeros((n, t)) if boundary_in is None else np.asarray(boundary_in, dtype=float)
        bo = np.zeros((n, t)) if boundary_out is None else np.asarray(boundary_out, dtype=float)
        n_b = bi[:, starts].sum(axis=0) - bo[:, starts].sum(axis=0)
        n_tot = anchor.sum(axis=1) + n_b
    else:
        # observed next-bin total stands in for boundary accounting
        n_tot = counts[:, starts + 1].sum(axis=0)
    keep = np.isfinite(anchor).all(axis=1) & np.isfinite(target).all(axis=(1, 2)) & np.isfinite(n_tot)
    if not keep.any():
        raise ValueError("no window has finite anchor, target and total counts")
    starts = starts[keep]
    hist = np.stack([feats[:, s - h + 1 : s + 1, :].transpose(1, 0, 2) for s in starts])
    return WindowSet(hist, anchor[keep], target[keep], n_tot[keep], starts)


@dataclass
class TrainResult:
    params: dict
    best_val: float
    steps: int
    log: list = field(default_factory=list)

    def write_log(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "mae", "nll", "cons", "cap", "total", "val_total"])
            for row in self.log:
                w.writerow(row)


class _Adam:
    def __init__(self, params, lr, clip):
        self.lr = lr
        self.clip = clip
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, params):
        self.t += 1
        norm_sq = 0.0
        for p in params.values():
            if p.grad is not None:
                norm_sq += float((p.grad * p.grad).sum())
        scale = 1.0
        norm = np.sqrt(norm_sq)
        if norm > self.clip:
            scale = self.clip / norm
        for k, p in params.items():
            if p.grad is None:
                continue
            g = p.grad * scale
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mh = self.m[k] / (1 - self.b1**self.t)
            vh = self.v[k] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * mh / (np.sqrt(vh) + self.eps)


def _evaluate(params, cfg, a_hat, windows: WindowSet, qmax, batch=256) -> float:
    total = 0.0
    count = 0
    with no_grad():
        for s in range(0, len(windows), batch):
            sl = slice(s, min(s + batch, len(windows)))
            pred = forward(params, cfg, a_hat, windows.hist[sl], windows.anchor[sl])
            comps = loss_components(pred, windows.target[sl], cfg, qmax, windows.n_tot[sl])
            b = windows.hist[sl].shape[0]
            total += comps["total"].item() * b
            count += b
    return total / max(count, 1)


def train(
    cfg: ModelConfig,
    a_hat: np.ndarray,
    windows: WindowSet,
    qmax: np.ndarray,
    seed: int = 0,
    steps: int = 500,
    batch_size: int = 8,
    lr: float = 1e-3,
    clip: float = 5.0,
    val_fraction: float = 0.2,
    eval_every: int = 25,
    patience: int = 8,
    params: dict | None = None,
) -> TrainResult:
    """Optimize the predictor on a window set.

    Windows are split chronologically (the trailing val_fraction is the
    validation span). Early stopping keeps the parameters with the best
    validation loss; training aborts with a step-indexed error if the
    loss or any parameter stops being finite.
    """
    rng = substream(seed, "train")
    if params is None:
        params = init_params(cfg, substream(seed, "init"))
    n_val = int(round(len(windows) * val_fraction))
    n_train = len(windows) - n_val
    if n_train < 1:
        raise ValueError("no training windows after the validation split")
    train_w = windows.subset(np.arange(n_train))
    val_w = windows.subset(np.arange(n_train, len(windows))) if n_val else train_w

    opt = _Adam(params, lr, clip)
    best = {k: v.data.copy() for k, v in params.items()}
    best_val = np.inf
    bad_evals = 0
    log: list = []
    order = np.array([], dtype=int)
    cursor = 0
    for step in range(1, steps + 1):
        if cursor + batch_size > len(order):
            order = rng.permutation(n_train)
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size
        for p in params.values():
            p.zero_grad()
        pred = forward(params, cfg, a_hat, train_w.hist[idx], train_w.anchor[idx])
        comps = loss_components(pred, train_w.target[idx], cfg, qmax, train_w.n_tot[idx])
        loss = comps["total"]
        if not np.isfinite(loss.data):
            raise RuntimeError(f"training diverged at step {step}: loss is not finite")
        loss.backward()
        opt.step(params)
        for name, p in params.items():
            if not np.isfinite(p.data).all():
                raise RuntimeError(f"training diverged at step {step}: parameter {name} is not finite")
        if step % eval_every == 0 or step == steps:
            val = _evaluate(params, cfg, a_hat, val_w, qmax)
            log.append(
                [step]
                + [round(comps[k].item(), 10) for k in ("mae", "nll", "cons", "cap", "total")]
                + [round(val, 10)]
            )
            if val < best_val - 1e-12:
                best_val = val
                best = {k: v.data.copy() for k, v in params.items()}
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= patience:
                    break
    out = {k: Tensor(v, requires_grad=True) for k, v in best.items()}
    return TrainResult(params=out, best_val=float(best_val), steps=step, log=log)


def predict(
    params: dict,
    cfg: ModelConfig,
    a_hat: np.ndarray,
    tensor: FeatureTensor,
    counts: np.ndarray,
    t_indices: np.ndarray,
    batch: int = 128,
):
    """Rolling forecasts anchored at each index in t_indices.

    Returns (q_hat, sigma), both (len(t_indices), N, F); q_hat[j, :, p-1]
    estimates the counts at bin t_indices[j] + p.
    """
    h = cfg.history
    t_indices = np.asarray(t_indices, dtype=int)
    if (t_indices < h - 1).any() or (t_indices >= counts.shape[1]).any():
        raise ValueError("prediction index leaves an incomplete history window")
    feats = tensor.normalized()
    outs = []
    sigs = []
    with no_grad():
        for s in range(0, len(t_indices), batch):
            chunk = t_indices[s : s + batch]
            hist = np.stack([feats[:, c - h + 1 : c + 1, :].transpose(1, 0, 2) for c in chunk])
            anchor = counts[:, chunk].T
            pred = forward(params, cfg, a_hat, hist, anchor)
            outs.append(pred.q_hat.data)
            sigs.append(pred.sigma.data)
    return np.concatenate(outs), np.concatenate(sigs)


def save_checkpoint(prefix: str, params: dict, cfg: ModelConfig) -> None:
    """One binary of named arrays plus a JSON config sidecar."""
    np.savez(prefix + ".npz", **{k: v.data for k, v in params.items()})
    with open(prefix + ".json", "w") as fh:
        fh.write(canonical_json(cfg.to_dict()))


def load_checkpoint(prefix: str):
    """Inverse of save_checkpoint; validates the parameter set and shapes."""
    with open(prefix + ".json") as fh:
        cfg = ModelConfig.from_dict(json.load(fh))
    with np.load(prefix + ".npz") as z:
        params = {k: Tensor(z[k], requires_grad=True) for k in z.files}
    expected = init_params(cfg, np.random.default_rng(0))
    if set(params) != set(expected):
        raise ValueError("checkpoint parameter names do not match the config")
    for k, v in expected.items():
        if params[k].data.shape != v.data.shape:
            raise ValueError(f"checkpoint parameter {k} has shape {params[k].data.shape}, expected {v.data.shape}")
    return params, cfg
