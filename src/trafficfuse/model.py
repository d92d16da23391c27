"""Spatiotemporal graph predictor over probe-count features.

Per time step, stacked graph-convolution layers mix each segment with its
neighbours: H <- GELU(LN(A H W_n + H W_s)), with one self weight W_s
(a second self matrix on the same operand would only get the same
gradient). The neighbour term is one autodiff.neighbour_affine node, which
keeps H but not A H: W_n's gradient rebuilds A H in backward. Per
segment, pre-norm self-attention blocks mix the history axis; keys carry
no bias, since softmax over keys ignores the per-query constant q . b_k
it would add. GELU is the tanh form (autodiff.gelu). A
flattening layer and two small MLP heads emit a mean increment and a
log-variance for each forecast horizon; predictions are anchored on the
last observed count, q_hat = q(t) + mu. Heads are zero-initialized so the
untrained model reproduces last-value persistence with unit predictive
variance.

The predictor runs in single precision, DTYPE (float32): its parameters,
its input features and its message-passing matrix are float32, so its
tape and its optimizer are too (mixed-precision training in the sense of
Micikevicius et al. 2018). Everything around it stays float64: the
anchor, the targets and the loss constants are cast to the prediction's
dtype, and predictions leave as float64. Given float64 parameters and
inputs, the same code runs in float64, as the gradient checks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, gelu, grad_enabled, layer_norm, neighbour_affine, softmax

__all__ = ["ModelConfig", "Prediction", "init_params", "normalized_adjacency", "forward", "loss_components"]

DTYPE = np.float32  # the predictor's parameters, features and message-passing matrix
LN_EPS = 1e-5  # layer-norm variance floor
# the conservation hinge's tolerance per window, as a fraction of that
# window's total vehicle count
TAU_B_COEFF = 0.01


@dataclass
class ModelConfig:
    """Architecture.

    ffn_width is the temporal blocks' feed-forward width, a fixed 48 by
    default (twice the default embed_dim; it does not follow embed_dim).
    The loss weighs its four terms equally (loss_components).
    """

    n_features: int = 22
    embed_dim: int = 24
    spatial_layers: int = 2
    temporal_blocks: int = 1
    heads: int = 4
    history: int = 6
    horizon: int = 2
    ffn_width: int = 48

    def __post_init__(self):
        for name in ("embed_dim", "spatial_layers", "temporal_blocks", "heads", "history", "horizon", "ffn_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")


def _glorot(rng, fan_in, fan_out):
    return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=(fan_in, fan_out))


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameter dict; insertion order is the canonical flat order."""
    d = cfg.embed_dim
    p: dict[str, np.ndarray] = {}
    p["w_in"] = _glorot(rng, cfg.n_features, d)
    p["b_in"] = np.zeros(d)
    for ell in range(cfg.spatial_layers):
        p[f"sp{ell}_w_n"] = _glorot(rng, d, d)
        p[f"sp{ell}_w_s"] = _glorot(rng, d, d)
        p[f"sp{ell}_ln_g"] = np.ones(d)
        p[f"sp{ell}_ln_b"] = np.zeros(d)
    for k in range(cfg.temporal_blocks):
        p[f"tb{k}_ln1_g"] = np.ones(d)
        p[f"tb{k}_ln1_b"] = np.zeros(d)
        for nm in ("q", "k", "v", "o"):
            p[f"tb{k}_w_{nm}"] = _glorot(rng, d, d)
            if nm != "k":
                p[f"tb{k}_b_{nm}"] = np.zeros(d)
        p[f"tb{k}_ln2_g"] = np.ones(d)
        p[f"tb{k}_ln2_b"] = np.zeros(d)
        p[f"tb{k}_w_f1"] = _glorot(rng, d, cfg.ffn_width)
        p[f"tb{k}_b_f1"] = np.zeros(cfg.ffn_width)
        p[f"tb{k}_w_f2"] = _glorot(rng, cfg.ffn_width, d)
        p[f"tb{k}_b_f2"] = np.zeros(d)
    p["w_out"] = _glorot(rng, cfg.history * d, d)
    p["b_out"] = np.zeros(d)
    # heads: hidden layers random, output layers zero so mu = 0 and
    # log-variance = 0 (sigma = 1) before any training
    p["mu_w1"] = _glorot(rng, d, d)
    p["mu_b1"] = np.zeros(d)
    p["mu_w2"] = np.zeros((d, cfg.horizon))
    p["mu_b2"] = np.zeros(cfg.horizon)
    p["lv_w1"] = _glorot(rng, d, d)
    p["lv_b1"] = np.zeros(d)
    p["lv_w2"] = np.zeros((d, cfg.horizon))
    p["lv_b2"] = np.zeros(cfg.horizon)
    return {k: Tensor(v.astype(DTYPE), requires_grad=True) for k, v in p.items()}


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Row-normalize the adjacency used for message passing; zero rows stay zero."""
    a = np.asarray(a, dtype=float)
    s = a.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s > 0, a / s, 0.0)


@dataclass
class Prediction:
    """Forward outputs, kept on the tape for loss construction."""

    q_hat: Tensor  # (B, N, F) anchored counts, the last count plus the increment head
    log_var: Tensor  # (B, N, F) predictive log-variance
    # (K + U, N, d) carried then new embedded bins, only when forward was
    # given carried embeddings
    embedded: np.ndarray | None = None


def _is_identity(windows: np.ndarray, n_bins: int) -> bool:
    """True when window j reads bins j*H ... j*H + H - 1, each bin once."""
    return windows.size == n_bins and bool((windows.ravel() == np.arange(n_bins)).all())


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    a_hat: np.ndarray,
    bins: np.ndarray,
    windows: np.ndarray,
    anchor: np.ndarray,
    carry: np.ndarray | None = None,
) -> Prediction:
    """Run the predictor.

    bins is (U, n_segments, n_features), the normalized features of the
    distinct bins the batch reads; windows is (B, history) int, each
    window's bins oldest first as indices into bins; anchor holds the raw
    last-observed counts (B, n_segments); a_hat is the (already
    normalized) message-passing matrix. The input projection and the
    spatial layers run once per bin, however many windows share it.

    carry, only under no_grad, is (K, n_segments, embed_dim) bins an
    earlier call embedded: windows then index into carry followed by the
    newly embedded bins, and the Prediction returns that whole array as
    embedded, so a rolling caller embeds each bin once.

    Every temporal-block activation is dropped at its last use, so a
    no-tape batch holds about six (B, H, N, d) arrays at its peak; under
    a tape, the tape keeps what backward reads either way. a_hat stays a
    plain array: neighbour_affine takes it as a constant, and rebuilds
    a_hat @ z in backward rather than keeping it, as gelu rebuilds its
    tanh value, so a taped step peaks at about 22 (B, H, N, d) arrays.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != cfg.history or bins.ndim != 3 or bins.shape[2] != cfg.n_features:
        raise ValueError("history window does not match the model config")
    bsz, hh = windows.shape
    n = bins.shape[1]
    if anchor.shape != (bsz, n):
        raise ValueError("anchor must be (batch, n_segments)")
    d = cfg.embed_dim
    if carry is not None and grad_enabled():
        raise ValueError("carried embeddings hold no tape; pass carry only under no_grad")

    # one name for the running state: the tape keeps what backward reads,
    # and an array left bound to a name of its own would outlive its use
    z = affine(Tensor(bins), params["w_in"], params["b_in"])  # (U, N, d)
    for ell in range(cfg.spatial_layers):
        z = gelu(layer_norm(
            neighbour_affine(a_hat, z, params[f"sp{ell}_w_n"]) + z @ params[f"sp{ell}_w_s"],
            params[f"sp{ell}_ln_g"], params[f"sp{ell}_ln_b"], LN_EPS,
        ))

    embedded = None
    if carry is not None:
        embedded = np.concatenate([carry, z.data])
        z = Tensor(embedded)
    # a training batch lists each window's bins in order, so its windows
    # are a reshape of the bins, not a gather
    z = z.reshape(bsz, hh, n, d) if _is_identity(windows, z.shape[0]) else z[windows]
    z = z.swapaxes(1, 2)  # (B, N, H, d)
    nh, dh = cfg.heads, d // cfg.heads
    inv_sqrt = 1.0 / math.sqrt(dh)
    for k in range(cfg.temporal_blocks):
        y = layer_norm(z, params[f"tb{k}_ln1_g"], params[f"tb{k}_ln1_b"], LN_EPS)
        qs = affine(y, params[f"tb{k}_w_q"], params[f"tb{k}_b_q"]).reshape(bsz, n, hh, nh, dh).swapaxes(2, 3)
        ks = affine(y, params[f"tb{k}_w_k"]).reshape(bsz, n, hh, nh, dh).swapaxes(2, 3)
        vs = affine(y, params[f"tb{k}_w_v"], params[f"tb{k}_b_v"]).reshape(bsz, n, hh, nh, dh).swapaxes(2, 3)
        del y
        att = (qs @ ks.swapaxes(-1, -2)) * inv_sqrt
        del qs, ks
        att = softmax(att)
        ctx = att @ vs
        del att, vs
        ctx = ctx.swapaxes(2, 3).reshape(bsz, n, hh, d)
        z = z + affine(ctx, params[f"tb{k}_w_o"], params[f"tb{k}_b_o"])
        del ctx
        ffn = gelu(affine(
            layer_norm(z, params[f"tb{k}_ln2_g"], params[f"tb{k}_ln2_b"], LN_EPS),
            params[f"tb{k}_w_f1"], params[f"tb{k}_b_f1"],
        ))
        z = z + affine(ffn, params[f"tb{k}_w_f2"], params[f"tb{k}_b_f2"])
        del ffn

    hv = gelu(affine(z.reshape(bsz, n, hh * d), params["w_out"], params["b_out"]))  # (B, N, d)
    del z
    mu = affine(gelu(affine(hv, params["mu_w1"], params["mu_b1"])), params["mu_w2"], params["mu_b2"])
    log_var = affine(gelu(affine(hv, params["lv_w1"], params["lv_b1"])), params["lv_w2"], params["lv_b2"])
    q_hat = Tensor(anchor[:, :, None].astype(mu.data.dtype)) + mu
    return Prediction(q_hat=q_hat, log_var=log_var, embedded=embedded)


def loss_components(
    pred: Prediction,
    target: np.ndarray,
    qmax: np.ndarray,
    n_tot: np.ndarray,
) -> dict[str, Tensor]:
    """Composite training loss.

    target is (B, N, F) future counts; qmax per-segment per-bin capacity;
    n_tot the per-window conserved total (last observed total plus net
    boundary flow over the first forecast step). Components: MAE, Gaussian
    NLL, a one-step conservation hinge with tolerance TAU_B_COEFF * n_tot
    averaged over the batch, and a capacity hinge. The total is their
    unweighted sum. The arrays are cast to the prediction's dtype.
    """
    dtype = pred.q_hat.data.dtype
    target, qmax, n_tot = (np.asarray(a, dtype=dtype) for a in (target, qmax, n_tot))
    t = Tensor(target)
    resid = t - pred.q_hat
    mae = resid.abs().mean()
    nll = (0.5 * (pred.log_var + (resid * resid) * (-pred.log_var).exp())).mean()
    total_next = pred.q_hat[:, :, 0].sum(axis=1)  # (B,)
    drift = (total_next - Tensor(n_tot)).abs() - Tensor(TAU_B_COEFF * n_tot)
    cons = drift.relu().mean()
    cap = (pred.q_hat - Tensor(qmax[None, :, None])).relu().mean()
    return {"mae": mae, "nll": nll, "cons": cons, "cap": cap, "total": mae + nll + cons + cap}
