"""Windowing, optimization, checkpointing, and rolling prediction.

Training windows pair a normalized feature history with raw future
counts; histories and futures are contiguous and never overlap within a
window. The features are kept once per bin, and a window is the index of
its last observed bin. Validation and prediction share one no-tape loop
(_no_tape_passes) in batches of about INFER_ROWS rows; it carries the
last history - 1 embedded bins from one batch into the next, so each bin
goes through the input projection and the spatial layers once per pass.
The optimizer is first-order adaptive-moment gradient descent with global
gradient-norm clipping; runs are bitwise reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .features import FeatureTensor
from .model import DTYPE, ModelConfig, forward, init_params, loss_components
from .util import substream, write_csv, write_json, write_npz

__all__ = [
    "WindowSet",
    "TrainResult",
    "build_windows",
    "train",
    "predict",
    "save_checkpoint",
]


# rows (windows x history x segments) per no-tape batch. With carried
# embeddings a smaller batch re-embeds nothing and costs only more forward
# calls, while a batch's transient (about six (rows, embed_dim) arrays)
# shrinks with it; on a few-segment corridor that transient sets the
# process's peak memory. Beyond 2,048 / history segments a batch is one
# window.
INFER_ROWS = 2048

CLIP_NORM = 5.0  # global gradient-norm clip
VAL_FRACTION = 0.2  # trailing share of windows held out for validation
PATIENCE = 8  # evaluations without improvement before stopping early
LR = 1e-3  # Adam learning rate
EVAL_EVERY = 25  # training steps between validation passes


def _bin_major(tensor: FeatureTensor) -> np.ndarray:
    """Normalized features as one C-ordered (T, N, n_features) array in
    the predictor's DTYPE."""
    return np.ascontiguousarray(tensor.normalized().transpose(1, 0, 2), dtype=DTYPE)


def _slots(t_index: np.ndarray, history: int) -> np.ndarray:
    """(len(t_index), history) bins of each window, oldest first."""
    return t_index[:, None] + np.arange(1 - history, 1)


def _no_tape_passes(params, cfg: ModelConfig, a_hat, feats: np.ndarray, t_index: np.ndarray, anchor: np.ndarray):
    """Forward passes over the windows ending at t_index, in batches of
    about INFER_ROWS rows; yields (window slice, Prediction). Call it under
    no_grad.

    Each bin is embedded once: a batch embeds only the bins it reads that
    are not among the previous batch's last history - 1 bins, whose
    embeddings it carries, and looks every window's bins up through a
    bin -> row map, so anchors may come unsorted, gapped or repeated.
    """
    h = cfg.history
    step = max(1, INFER_ROWS // (h * feats.shape[1]))
    row = np.zeros(len(feats), dtype=np.intp)
    held = np.array([], dtype=np.intp)
    carry = np.empty((0, feats.shape[1], cfg.embed_dim), dtype=feats.dtype)
    for s in range(0, len(t_index), step):
        sl = slice(s, s + step)
        slots = _slots(t_index[sl], h)
        read = np.unique(slots)
        new = np.setdiff1d(read, held, assume_unique=True)
        row[held] = np.arange(len(held))
        row[new] = np.arange(len(held), len(held) + len(new))
        pred = forward(params, cfg, a_hat, feats[new], row[slots], anchor[sl], carry=carry)
        yield sl, pred
        held = read[len(read) - (h - 1) :]
        carry = pred.embedded[row[held]]


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
    *,
    t_last: int,
) -> WindowSet:
    """Slide history/future windows over the bin axis.

    counts are the raw (unnormalized) per-bin values the targets and
    anchors are read from. The conserved total is the anchor-bin total
    plus the net boundary flow during the first forecast step, taken from
    the boundary arrays when given and from the observed total change
    otherwise. Windows whose anchor, target or conserved total is not
    finite (a missing probe bin) are dropped; windows whose history holds
    an imputed bin are still emitted. t_last is the last window's anchor
    bin.
    """
    h, f = cfg.history, cfg.horizon
    n, t = counts.shape
    if tensor.values.shape[:2] != (n, t):
        raise ValueError("feature tensor does not align with counts")
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
        write_csv(path, ["step", "mae", "nll", "cons", "cap", "total", "val_total"], self.log)


class _Adam:
    """Adam with global-norm clipping; every parameter needs a gradient at every step."""

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
            norm_sq += float((p.grad * p.grad).sum())
        scale = 1.0
        # a Python float: an np.float64 scale would promote float32 weights
        norm = math.sqrt(norm_sq)
        if norm > CLIP_NORM:
            scale = CLIP_NORM / norm
        for k, p in params.items():
            g = p.grad * scale
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mh = self.m[k] / (1 - self.b1**self.t)
            vh = self.v[k] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * mh / (np.sqrt(vh) + self.eps)


def _evaluate(params, cfg, a_hat, windows: WindowSet, qmax) -> float:
    total = 0.0
    with no_grad():
        for sl, pred in _no_tape_passes(params, cfg, a_hat, windows.feats, windows.t_index, windows.anchor):
            comps = loss_components(pred, windows.target[sl], qmax, windows.n_tot[sl])
            total += comps["total"].item() * len(pred.q_hat.data)
    return total / max(len(windows), 1)


def train(
    cfg: ModelConfig,
    a_hat: np.ndarray,
    windows: WindowSet,
    qmax: np.ndarray,
    seed: int,
    steps: int,
    batch_size: int,
) -> TrainResult:
    """Optimize the predictor on a window set.

    Windows are split chronologically (the trailing VAL_FRACTION is the
    validation span). Up to steps batches of batch_size windows are drawn
    from seed's substreams. Adam runs at learning rate LR and the validation
    loss is taken every EVAL_EVERY steps and at the last; early stopping
    keeps the parameters with the best validation loss. Training aborts
    with a step-indexed error if the loss or any parameter stops being
    finite.
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

    opt = _Adam(params, LR)
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
        # _no_tape_passes, so the rows the spatial layers see do not
        # depend on which windows happen to overlap in a batch
        slots = _slots(train_w.t_index[idx], cfg.history)
        pred = forward(params, cfg, a_hat, train_w.feats[slots.ravel()],
                       np.arange(slots.size).reshape(slots.shape), train_w.anchor[idx])
        comps = loss_components(pred, train_w.target[idx], qmax, train_w.n_tot[idx])
        loss = comps["total"]
        if not np.isfinite(loss.data):
            raise RuntimeError(f"training diverged at step {step}: loss is not finite")
        loss.backward()
        opt.step(params)
        for name, p in params.items():
            if not np.isfinite(p.data).all():
                raise RuntimeError(f"training diverged at step {step}: parameter {name} is not finite")
        if step % EVAL_EVERY == 0 or step == steps:
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
    feats: np.ndarray,
    counts: np.ndarray,
    t_indices: np.ndarray,
):
    """Rolling forecasts anchored at each index in t_indices.

    feats are the bin-major (T, N, n_features) features that
    build_windows keeps as WindowSet.feats. Returns q_hat, shape
    (len(t_indices), N, F); q_hat[j, :, p-1] estimates the counts at bin
    t_indices[j] + p.
    """
    h = cfg.history
    if feats.shape[:2] != counts.shape[::-1]:
        raise ValueError("features do not align with counts")
    t_indices = np.asarray(t_indices, dtype=int)
    if (t_indices < h - 1).any() or (t_indices >= counts.shape[1]).any():
        raise ValueError("prediction index leaves an incomplete history window")
    q_hat = np.empty((len(t_indices), counts.shape[0], cfg.horizon))
    with no_grad():
        for sl, pred in _no_tape_passes(params, cfg, a_hat, feats, t_indices, counts[:, t_indices].T):
            q_hat[sl] = pred.q_hat.data
    return q_hat


def save_checkpoint(prefix: str, params: dict, cfg: ModelConfig) -> None:
    """One binary of named arrays plus a JSON config sidecar."""
    write_npz(prefix + ".npz", {k: v.data for k, v in params.items()})
    write_json(prefix + ".json", asdict(cfg))
