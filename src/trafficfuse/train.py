"""Windowing, optimization, checkpointing, and rolling prediction.

Training windows pair a normalized feature history with raw future
counts; histories and futures are contiguous and never overlap within a
window. The features are kept once per bin, and a window is the index of
its last observed bin; no-tape passes (validation and prediction) run the
spatial layers once per bin, in batches of about INFER_ROWS rows. The
optimizer is first-order adaptive-moment gradient descent with global
gradient-norm clipping; runs are bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import csv
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
]


# rows (windows x history x segments) per no-tape batch, so a batch's
# activations stay near cache size instead of page-faulting in fresh
# memory; 4,096 balanced 4-, 50- and 200-segment networks in a sweep over
# 1,200-9,600 rows
INFER_ROWS = 4096

CLIP_NORM = 5.0  # global gradient-norm clip
VAL_FRACTION = 0.2  # trailing share of windows held out for validation
PATIENCE = 8  # evaluations without improvement before stopping early


def _bin_major(tensor: FeatureTensor) -> np.ndarray:
    """Normalized features as one C-ordered (T, N, n_features) array."""
    return np.ascontiguousarray(tensor.normalized().transpose(1, 0, 2))


def _slots(t_index: np.ndarray, history: int) -> np.ndarray:
    """(len(t_index), history) bins of each window, oldest first."""
    return t_index[:, None] + np.arange(1 - history, 1)


def _batches(feats: np.ndarray, t_index: np.ndarray, history: int):
    """No-tape batches of about INFER_ROWS rows: (window slice, the
    distinct bins the batch reads, each window's indices into them)."""
    step = max(1, INFER_ROWS // (history * feats.shape[1]))
    for s in range(0, len(t_index), step):
        used, inverse = np.unique(_slots(t_index[s : s + step], history), return_inverse=True)
        yield slice(s, s + step), feats[used], inverse.reshape(-1, history)


@dataclass
class WindowSet:
    """Aligned training arrays.

    feats: (T, N, n_features) normalized features, one row per bin
    anchor: (n_windows, N) raw counts at the last observed bin
    target: (n_windows, N, F) raw future counts
    n_tot: (n_windows,) conserved total for the one-step hinge
    t_index: (n_windows,) index of the last observed bin; a window's
        history is feats[t_index - H + 1 : t_index + 1]
    """

    feats: np.ndarray
    anchor: np.ndarray
    target: np.ndarray
    n_tot: np.ndarray
    t_index: np.ndarray

    def __len__(self):
        return self.anchor.shape[0]

    def subset(self, idx) -> "WindowSet":
        return WindowSet(self.feats, self.anchor[idx], self.target[idx], self.n_tot[idx], self.t_index[idx])


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
    return WindowSet(_bin_major(tensor), anchor[keep], target[keep], n_tot[keep], starts[keep])


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
    def __init__(self, params, lr):
        self.lr = lr
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
        if norm > CLIP_NORM:
            scale = CLIP_NORM / norm
        for k, p in params.items():
            if p.grad is None:
                continue
            g = p.grad * scale
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mh = self.m[k] / (1 - self.b1**self.t)
            vh = self.v[k] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * mh / (np.sqrt(vh) + self.eps)


def _evaluate(params, cfg, a_hat, windows: WindowSet, qmax) -> float:
    total = 0.0
    with no_grad():
        for sl, bins, slots in _batches(windows.feats, windows.t_index, cfg.history):
            pred = forward(params, cfg, a_hat, bins, slots, windows.anchor[sl])
            comps = loss_components(pred, windows.target[sl], cfg, qmax, windows.n_tot[sl])
            total += comps["total"].item() * len(slots)
    return total / max(len(windows), 1)


def train(
    cfg: ModelConfig,
    a_hat: np.ndarray,
    windows: WindowSet,
    qmax: np.ndarray,
    seed: int = 0,
    steps: int = 500,
    batch_size: int = 8,
    lr: float = 1e-3,
    eval_every: int = 25,
) -> TrainResult:
    """Optimize the predictor on a window set.

    Windows are split chronologically (the trailing VAL_FRACTION is the
    validation span). Early stopping keeps the parameters with the best
    validation loss; training aborts with a step-indexed error if the
    loss or any parameter stops being finite.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rng = substream(seed, "train")
    params = init_params(cfg, substream(seed, "init"))
    n_val = int(round(len(windows) * VAL_FRACTION))
    n_train = len(windows) - n_val
    if n_train < 1:
        raise ValueError("no training windows after the validation split")
    train_w = windows.subset(np.arange(n_train))
    val_w = windows.subset(np.arange(n_train, len(windows))) if n_val else train_w

    opt = _Adam(params, lr)
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
        # one slot per window bin, in window order and not shared as in
        # _batches, so the rows the spatial layers see do not depend on
        # which windows happen to overlap in a batch
        slots = _slots(train_w.t_index[idx], cfg.history)
        pred = forward(params, cfg, a_hat, train_w.feats[slots.ravel()],
                       np.arange(slots.size).reshape(slots.shape), train_w.anchor[idx])
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
                if bad_evals >= PATIENCE:
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
):
    """Rolling forecasts anchored at each index in t_indices.

    Returns (q_hat, sigma), both (len(t_indices), N, F); q_hat[j, :, p-1]
    estimates the counts at bin t_indices[j] + p.
    """
    h = cfg.history
    t_indices = np.asarray(t_indices, dtype=int)
    if (t_indices < h - 1).any() or (t_indices >= counts.shape[1]).any():
        raise ValueError("prediction index leaves an incomplete history window")
    q_hat = np.empty((len(t_indices), counts.shape[0], cfg.horizon))
    sigma = np.empty_like(q_hat)
    with no_grad():
        for sl, bins, slots in _batches(_bin_major(tensor), t_indices, h):
            pred = forward(params, cfg, a_hat, bins, slots, counts[:, t_indices[sl]].T)
            q_hat[sl] = pred.q_hat.data
            sigma[sl] = pred.sigma.data
    return q_hat, sigma


def save_checkpoint(prefix: str, params: dict, cfg: ModelConfig) -> None:
    """One binary of named arrays plus a JSON config sidecar."""
    np.savez(prefix + ".npz", **{k: v.data for k, v in params.items()})
    with open(prefix + ".json", "w") as fh:
        fh.write(canonical_json(cfg.to_dict()))
