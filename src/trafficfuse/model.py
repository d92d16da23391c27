"""Spatiotemporal graph predictor over probe-count features.

Per time step, stacked graph-convolution layers mix each segment with its
neighbours: H <- GELU(LN(A H W_n + H W_s + H W_r)), where W_s and W_r are
two separate matrices applied to the same operand (kept distinct on
purpose; they are not fused). Per segment, pre-norm self-attention blocks
mix the history axis. A flattening layer and two small MLP heads emit a
mean increment and a log-variance for each forecast horizon; predictions
are anchored on the last observed count, q_hat = q(t) + mu. Heads are
zero-initialized so the untrained model reproduces last-value persistence
with unit predictive variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, gelu, layer_norm, softmax
from .util import config_kwargs

__all__ = ["ModelConfig", "Prediction", "init_params", "normalized_adjacency", "forward", "loss_components"]


@dataclass
class ModelConfig:
    """Architecture and loss weights.

    tau_b_coeff sets the conservation tolerance per window as a fraction
    of that window's total vehicle count. ffn_width defaults to twice the
    embedding width.
    """

    n_features: int = 22
    embed_dim: int = 24
    spatial_layers: int = 2
    temporal_blocks: int = 1
    heads: int = 4
    history: int = 6
    horizon: int = 2
    ffn_width: int = 48
    ln_eps: float = 1e-5
    lambda_mae: float = 1.0
    lambda_nll: float = 1.0
    lambda_cons: float = 1.0
    lambda_cap: float = 1.0
    tau_b_coeff: float = 0.01

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        for name in ("embed_dim", "spatial_layers", "temporal_blocks", "heads", "history", "horizon", "ffn_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lambda_mae", "lambda_nll", "lambda_cons", "lambda_cap", "tau_b_coeff"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 0")
        if not self.ln_eps > 0:
            raise ValueError(f"ln_eps {self.ln_eps} must be positive")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**config_kwargs(d, cls, "model"))


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
        p[f"sp{ell}_w_r"] = _glorot(rng, d, d)
        p[f"sp{ell}_ln_g"] = np.ones(d)
        p[f"sp{ell}_ln_b"] = np.zeros(d)
    for k in range(cfg.temporal_blocks):
        p[f"tb{k}_ln1_g"] = np.ones(d)
        p[f"tb{k}_ln1_b"] = np.zeros(d)
        for nm in ("q", "k", "v", "o"):
            p[f"tb{k}_w_{nm}"] = _glorot(rng, d, d)
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
    return {k: Tensor(v, requires_grad=True) for k, v in p.items()}


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Row-normalize the adjacency used for message passing; zero rows stay zero."""
    a = np.asarray(a, dtype=float)
    s = a.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(s > 0, a / s, 0.0)


@dataclass
class Prediction:
    """Forward outputs, kept on the tape for loss construction."""

    q_hat: Tensor  # (B, N, F) anchored counts
    mu: Tensor  # (B, N, F) increments
    sigma: Tensor  # (B, N, F) predictive std
    log_var: Tensor  # (B, N, F)


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    a_hat: np.ndarray,
    bins: np.ndarray,
    windows: np.ndarray,
    anchor: np.ndarray,
) -> Prediction:
    """Run the predictor.

    bins is (U, n_segments, n_features), the normalized features of the
    distinct bins the batch reads; windows is (B, history) int, each
    window's bins oldest first as indices into bins; anchor holds the raw
    last-observed counts (B, n_segments); a_hat is the (already
    normalized) message-passing matrix. The input projection and the
    spatial layers run once per bin, however many windows share it.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != cfg.history or bins.ndim != 3 or bins.shape[2] != cfg.n_features:
        raise ValueError("history window does not match the model config")
    bsz, hh = windows.shape
    n = bins.shape[1]
    if anchor.shape != (bsz, n):
        raise ValueError("anchor must be (batch, n_segments)")
    d = cfg.embed_dim
    a_t = Tensor(a_hat)

    # one name for the running state: the tape keeps what backward reads,
    # and an array left bound to a name of its own would outlive its use
    z = affine(Tensor(bins), params["w_in"], params["b_in"])  # (U, N, d)
    for ell in range(cfg.spatial_layers):
        msg = a_t @ z
        z = gelu(layer_norm(
            msg @ params[f"sp{ell}_w_n"] + z @ params[f"sp{ell}_w_s"] + z @ params[f"sp{ell}_w_r"],
            params[f"sp{ell}_ln_g"], params[f"sp{ell}_ln_b"], cfg.ln_eps,
        ))

    z = z[windows].swapaxes(1, 2)  # (B, N, H, d)
    nh, dh = cfg.heads, d // cfg.heads
    inv_sqrt = 1.0 / np.sqrt(dh)
    for k in range(cfg.temporal_blocks):
        y = layer_norm(z, params[f"tb{k}_ln1_g"], params[f"tb{k}_ln1_b"], cfg.ln_eps)
        qs = affine(y, params[f"tb{k}_w_q"], params[f"tb{k}_b_q"]).reshape(bsz, n, hh, nh, dh).swapaxes(2, 3)
        ks = affine(y, params[f"tb{k}_w_k"], params[f"tb{k}_b_k"]).reshape(bsz, n, hh, nh, dh).swapaxes(2, 3)
        vs = affine(y, params[f"tb{k}_w_v"], params[f"tb{k}_b_v"]).reshape(bsz, n, hh, nh, dh).swapaxes(2, 3)
        att = softmax((qs @ ks.swapaxes(-1, -2)) * inv_sqrt, axis=-1)
        ctx = (att @ vs).swapaxes(2, 3).reshape(bsz, n, hh, d)
        z = z + affine(ctx, params[f"tb{k}_w_o"], params[f"tb{k}_b_o"])
        y2 = layer_norm(z, params[f"tb{k}_ln2_g"], params[f"tb{k}_ln2_b"], cfg.ln_eps)
        ffn = gelu(affine(y2, params[f"tb{k}_w_f1"], params[f"tb{k}_b_f1"]))
        z = z + affine(ffn, params[f"tb{k}_w_f2"], params[f"tb{k}_b_f2"])

    flat = z.reshape(bsz, n, hh * d)
    hv = gelu(affine(flat, params["w_out"], params["b_out"]))  # (B, N, d)
    mu = affine(gelu(affine(hv, params["mu_w1"], params["mu_b1"])), params["mu_w2"], params["mu_b2"])
    log_var = affine(gelu(affine(hv, params["lv_w1"], params["lv_b1"])), params["lv_w2"], params["lv_b2"])
    sigma = (log_var * 0.5).exp()
    q_hat = Tensor(anchor[:, :, None]) + mu
    return Prediction(q_hat=q_hat, mu=mu, sigma=sigma, log_var=log_var)


def loss_components(
    pred: Prediction,
    target: np.ndarray,
    cfg: ModelConfig,
    qmax: np.ndarray,
    n_tot: np.ndarray,
) -> dict[str, Tensor]:
    """Composite training loss.

    target is (B, N, F) future counts; qmax per-segment per-bin capacity;
    n_tot the per-window conserved total (last observed total plus net
    boundary flow over the first forecast step). Components: MAE, Gaussian
    NLL, a one-step conservation hinge with tolerance tau_b_coeff * n_tot
    averaged over the batch, and a capacity hinge. The weighted sum uses
    the lambda_* config weights.
    """
    t = Tensor(target)
    resid = t - pred.q_hat
    mae = resid.abs().mean()
    nll = (0.5 * (pred.log_var + (resid * resid) * (-pred.log_var).exp())).mean()
    total_next = pred.q_hat[:, :, 0].sum(axis=1)  # (B,)
    drift = (total_next - Tensor(n_tot)).abs() - Tensor(cfg.tau_b_coeff * n_tot)
    cons = drift.relu().mean()
    cap = (pred.q_hat - Tensor(qmax[None, :, None])).relu().mean()
    total = (
        cfg.lambda_mae * mae
        + cfg.lambda_nll * nll
        + cfg.lambda_cons * cons
        + cfg.lambda_cap * cap
    )
    return {"mae": mae, "nll": nll, "cons": cons, "cap": cap, "total": total}
