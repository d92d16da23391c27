"""Predictor structure, loss semantics, gradients, and the training loop."""

import datetime as dt
import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_chain, make_feature_tensor, model_grad_fd_err
from trafficfuse.autodiff import Tensor, no_grad
from trafficfuse.ctm import FdArrays, default_fd_params
from trafficfuse.features import build_tensor
from trafficfuse.harness import ExperimentConfig, Pipeline
from trafficfuse.model import (
    ModelConfig,
    Prediction,
    forward,
    init_params,
    loss_components,
    normalized_adjacency,
)
from trafficfuse import autodiff
from trafficfuse import model as model_module
from trafficfuse import train as train_module
from trafficfuse.network import CountMatrix
from trafficfuse.train import (
    _evaluate,
    build_windows,
    predict,
    save_checkpoint,
    train,
)

TINY = ModelConfig(
    n_features=5,
    embed_dim=4,
    spatial_layers=1,
    temporal_blocks=1,
    heads=2,
    history=3,
    horizon=2,
    ffn_width=8,
)


def _tiny_inputs(cfg, n=3, b=2, seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    a_hat = normalized_adjacency(a)
    hist = rng.normal(size=(b, cfg.history, n, cfg.n_features))
    anchor = rng.uniform(5, 20, size=(b, n))
    return a_hat, hist, anchor


def _stacked(hist):
    """(bins, windows) forward inputs for windows that read disjoint bins."""
    b, h = hist.shape[:2]
    return hist.reshape(b * h, *hist.shape[2:]), np.arange(b * h).reshape(b, h)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(embed_dim=5, heads=2)


def test_config_rejects_nonpositive_sizes():
    with pytest.raises(ValueError, match="spatial_layers"):
        ModelConfig(spatial_layers=0)


def test_config_dict_round_trip():
    cfg = ModelConfig(embed_dim=16, heads=4, history=3)
    assert ExperimentConfig.from_dict({"model": asdict(cfg)}).model == cfg
    # the key of a removed option is unknown like any other
    with pytest.raises(ValueError, match="^unknown model config keys: row_normalize_adjacency$"):
        ExperimentConfig.from_dict({"model": {**asdict(cfg), "row_normalize_adjacency": True}})


def test_normalized_adjacency_rows():
    a = np.array([[0.0, 2.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ah = normalized_adjacency(a)
    assert np.allclose(ah[0], [0, 0.5, 0.5])
    assert np.allclose(ah[1], [1, 0, 0])
    assert np.array_equal(ah[2], [0, 0, 0])  # disconnected row stays zero


def test_untrained_model_is_persistence():
    # zero-initialized head outputs: a zero increment, so q_hat = anchor,
    # and log_var = 0
    cfg = TINY
    params = init_params(cfg, np.random.default_rng(3))
    a_hat, hist, anchor = _tiny_inputs(cfg)
    pred = forward(params, cfg, a_hat, *_stacked(hist), anchor)
    assert np.array_equal(pred.log_var.data, np.zeros((2, 3, cfg.horizon)))
    assert np.array_equal(pred.q_hat.data, np.broadcast_to(anchor[:, :, None], (2, 3, cfg.horizon)))


def test_forward_shape_validation():
    cfg = TINY
    params = init_params(cfg, np.random.default_rng(0))
    a_hat, hist, anchor = _tiny_inputs(cfg)
    bins, windows = _stacked(hist)
    with pytest.raises(ValueError, match="history window"):
        forward(params, cfg, a_hat, bins, windows[:, :2], anchor)
    with pytest.raises(ValueError, match="history window"):
        forward(params, cfg, a_hat, bins[:, :, :4], windows, anchor)
    with pytest.raises(ValueError, match="anchor"):
        forward(params, cfg, a_hat, bins, windows, anchor[:, :2])


def test_forward_permutation_equivariance():
    cfg = TINY
    rng = np.random.default_rng(11)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
    n = 4
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(a, 0)
    hist = rng.normal(size=(2, cfg.history, n, cfg.n_features))
    anchor = rng.uniform(5, 20, size=(2, n))
    perm = np.array([2, 0, 3, 1])
    bins, windows = _stacked(hist)
    base = forward(params, cfg, normalized_adjacency(a), bins, windows, anchor)
    shuf = forward(
        params,
        cfg,
        normalized_adjacency(a[perm][:, perm]),
        bins[:, perm, :],
        windows,
        anchor[:, perm],
    )
    assert np.allclose(shuf.q_hat.data, base.q_hat.data[:, perm, :], atol=1e-10)
    assert np.allclose(shuf.log_var.data, base.log_var.data[:, perm, :], atol=1e-10)


def _manual_prediction(q_hat, log_var=None):
    q = Tensor(np.asarray(q_hat, dtype=float))
    lv = Tensor(np.zeros_like(q.data) if log_var is None else np.asarray(log_var, dtype=float))
    return Prediction(q_hat=q, log_var=lv)


def test_capacity_hinge_frozen_value():
    # one of N*F = 6 slots exceeds capacity by 3 -> mean hinge 0.5
    qmax = np.array([20.0, 20.0, 20.0])
    q_hat = np.array([[[10.0, 10.0], [10.0, 10.0], [10.0, qmax[2] + 3.0]]])
    pred = _manual_prediction(q_hat)
    target = q_hat.copy()
    n_tot = q_hat[0, :, 0].sum(keepdims=True)
    comps = loss_components(pred, target, qmax, n_tot)
    assert comps["cap"].item() == pytest.approx(0.5, abs=1e-12)
    assert comps["mae"].item() == 0.0
    assert comps["cons"].item() == 0.0
    assert comps["total"].item() == pytest.approx(0.5, abs=1e-12)


def test_conservation_hinge_tolerance_band():
    # drift exactly at the tolerance tau_b = 0.01 * n_tot costs nothing
    qmax = np.full(2, 1e9)
    at_tol = _manual_prediction(np.array([[[60.0], [41.0]]]))
    comps = loss_components(at_tol, at_tol.q_hat.data.copy(), qmax, np.array([100.0]))
    assert comps["cons"].item() == 0.0
    over = _manual_prediction(np.array([[[60.0], [43.0]]]))
    comps = loss_components(over, over.q_hat.data.copy(), qmax, np.array([100.0]))
    assert comps["cons"].item() == pytest.approx(2.0, abs=1e-12)
    under = _manual_prediction(np.array([[[60.0], [35.0]]]))
    comps = loss_components(under, under.q_hat.data.copy(), qmax, np.array([100.0]))
    assert comps["cons"].item() == pytest.approx(4.0, abs=1e-12)


def test_mae_and_nll_hand_values():
    q_hat = np.zeros((1, 1, 2))
    target = np.array([[[1.0, -2.0]]])
    log_var = np.array([[[0.5, -0.3]]])
    pred = _manual_prediction(q_hat, log_var)
    comps = loss_components(pred, target, np.full(1, 1e9), np.array([1.0]))
    assert comps["mae"].item() == pytest.approx(1.5, abs=1e-12)
    want_nll = 0.5 * ((0.5 + 1.0 * math.exp(-0.5)) + (-0.3 + 4.0 * math.exp(0.3))) / 2.0
    assert comps["nll"].item() == pytest.approx(want_nll, rel=1e-12)
    # the terms weigh equally
    assert comps["total"].item() == sum(comps[k].item() for k in ("mae", "nll", "cons", "cap"))


def test_nll_minimum_sits_at_mean_squared_residual():
    rng = np.random.default_rng(9)
    r = rng.normal(0.0, 1.7, size=4000)
    m = float(np.mean(r * r))
    q_hat = np.zeros((1, r.size, 1))
    target = r.reshape(1, -1, 1)
    qmax = np.full(r.size, 1e9)

    def nll_at(log_s):
        pred = _manual_prediction(q_hat, np.full_like(q_hat, log_s))
        return loss_components(pred, target, qmax, np.array([0.0]))["nll"].item()

    res = minimize_scalar(nll_at, bounds=(math.log(m) - 3, math.log(m) + 3), method="bounded",
                          options={"xatol": 1e-10})
    assert math.exp(res.x) == pytest.approx(m, rel=1e-3)


def test_gradients_match_finite_differences():
    cfg = ModelConfig(
        n_features=22, embed_dim=4, spatial_layers=2, temporal_blocks=1,
        heads=2, history=3, horizon=2, ffn_width=8,
    )
    assert model_grad_fd_err(cfg, n_segments=3, batch=2, seed=7) < 1e-4


def test_gradients_through_shared_bins_match_finite_differences():
    # consecutive windows read each bin up to `history` times, so the
    # gradients of the gathered spatial embeddings must accumulate
    cfg = ModelConfig(
        n_features=22, embed_dim=4, spatial_layers=2, temporal_blocks=1,
        heads=2, history=3, horizon=2, ffn_width=8,
    )
    assert model_grad_fd_err(cfg, n_segments=3, batch=3, seed=8, shared=True) < 1e-4


def test_every_parameter_gets_a_gradient_of_its_own():
    # a parameter the loss cannot see has a zero (rounding-noise) gradient;
    # two that the loss cannot tell apart get the same gradient bit for bit
    cfg = ModelConfig(
        n_features=5, embed_dim=4, spatial_layers=2, temporal_blocks=1,
        heads=2, history=3, horizon=2, ffn_width=8,
    )
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = rng.normal(scale=0.3, size=p.data.shape)
    a_hat, hist, anchor = _tiny_inputs(cfg, n=3, b=2, seed=4)
    target = anchor[:, :, None] + rng.normal(scale=2.0, size=(2, 3, cfg.horizon))
    qmax = rng.uniform(8.0, 25.0, size=3)
    n_tot = target[:, :, 0].sum(axis=1)
    pred = forward(params, cfg, a_hat, *_stacked(hist), anchor)
    loss_components(pred, target, qmax, n_tot)["total"].backward()
    scale = {k: np.abs(p.grad).max() for k, p in params.items()}
    largest = max(scale.values())
    assert not [k for k, s in scale.items() if s < 1e-8 * largest]
    names = list(params)
    twins = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
        if params[a].grad.shape == params[b].grad.shape and np.array_equal(params[a].grad, params[b].grad)
    ]
    assert not twins


def _adjacency(net):
    """Dense 0/1 adjacency over a network's edges, as Pipeline.fit scatters it."""
    a = np.zeros((net.n_segments, net.n_segments))
    a[net.edge_from, net.edge_to] = 1.0
    return a


def _training_setup(t_bins=96, seed=0, n=3):
    net = make_chain(n, boundary=(0, n - 1))
    fd = default_fd_params(net)
    tt = np.arange(t_bins)
    counts = np.stack([20 + 8 * np.sin(2 * np.pi * tt / 12.0 + i) for i in range(n)])
    cm = CountMatrix(counts, 900, dt.datetime(2024, 3, 4, 0, 0))
    speeds = np.full_like(counts, 10.0)
    tensor = build_tensor(net, fd, cm, speeds, train_cols=t_bins)
    cfg = ModelConfig(
        n_features=22, embed_dim=8, spatial_layers=1, temporal_blocks=1,
        heads=2, history=4, horizon=2, ffn_width=16,
    )
    a_hat = normalized_adjacency(_adjacency(net))
    windows = build_windows(tensor, counts, cfg, t_last=t_bins - cfg.horizon - 1)
    qmax = np.array([s.capacity_vph / 3600.0 * 900 for s in net.segments])
    return cfg, a_hat, windows, qmax, tensor, counts


def test_build_windows_alignment():
    rng = np.random.default_rng(2)
    values = rng.normal(size=(2, 12, 5))
    tensor = make_feature_tensor(values)
    counts = np.arange(24, dtype=float).reshape(2, 12)
    cfg = TINY
    w = build_windows(tensor, counts, cfg, t_last=12 - cfg.horizon - 1)
    assert len(w) == 8  # t = 2 .. 9
    assert np.array_equal(w.t_index, np.arange(2, 10))
    # the predictor reads its features in model.DTYPE
    assert w.feats.dtype == model_module.DTYPE
    assert np.array_equal(w.feats, values.transpose(1, 0, 2).astype(model_module.DTYPE))
    assert w.feats.flags.c_contiguous
    assert np.array_equal(w.anchor[0], counts[:, 2])
    assert np.array_equal(w.target[0], counts[:, 3:5])
    # without boundary data the conserved total is the observed next total
    assert np.array_equal(w.n_tot, counts[:, 3:11].sum(axis=0))


def test_build_windows_boundary_totals():
    values = np.zeros((2, 12, 5))
    tensor = make_feature_tensor(values)
    counts = np.ones((2, 12))
    bi = np.full((2, 12), 0.5)
    bo = np.full((2, 12), 0.2)
    w = build_windows(tensor, counts, TINY, boundary_in=bi, boundary_out=bo, t_last=12 - TINY.horizon - 1)
    # anchor total 2, net boundary inflow 2 * (0.5 - 0.2)
    assert np.allclose(w.n_tot, 2.0 + 0.6)


def test_build_windows_rejects_short_series():
    tensor = make_feature_tensor(np.zeros((2, 4, 5)))
    with pytest.raises(ValueError, match="window"):
        build_windows(tensor, np.zeros((2, 4)), TINY, t_last=4 - TINY.horizon - 1)


def test_training_beats_untrained_baseline():
    cfg, a_hat, windows, qmax, _, _ = _training_setup()
    res = train(cfg, a_hat, windows, qmax, seed=1, steps=150, batch_size=8)
    n_val = int(round(len(windows) * 0.2))
    val_w = windows.subset(np.arange(len(windows) - n_val, len(windows)))
    from trafficfuse.util import substream

    init = init_params(cfg, substream(1, "init"))
    assert res.best_val < _evaluate(init, cfg, a_hat, val_w, qmax)
    assert res.log, "training log should not be empty"
    for p in res.params.values():
        assert np.isfinite(p.data).all()


def test_training_is_seed_deterministic(monkeypatch):
    monkeypatch.setattr(train_module, "EVAL_EVERY", 20)
    cfg, a_hat, windows, qmax, _, _ = _training_setup()
    r1 = train(cfg, a_hat, windows, qmax, seed=4, steps=40, batch_size=8)
    r2 = train(cfg, a_hat, windows, qmax, seed=4, steps=40, batch_size=8)
    for k in r1.params:
        assert np.array_equal(r1.params[k].data, r2.params[k].data), k
    assert r1.log == r2.log
    r3 = train(cfg, a_hat, windows, qmax, seed=5, steps=40, batch_size=8)
    assert any(not np.array_equal(r1.params[k].data, r3.params[k].data) for k in r1.params)


def test_training_divergence_is_reported(monkeypatch):
    monkeypatch.setattr(train_module, "LR", 1e12)
    monkeypatch.setattr(train_module, "EVAL_EVERY", 100)
    cfg, a_hat, windows, qmax, _, _ = _training_setup()
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="not finite"):
            train(cfg, a_hat, windows, qmax, seed=2, steps=8, batch_size=4)


def test_training_needs_a_step():
    cfg, a_hat, windows, qmax, _, _ = _training_setup()
    with pytest.raises(ValueError, match="steps must be >= 1"):
        train(cfg, a_hat, windows, qmax, seed=0, steps=0, batch_size=8)


def test_predict_matches_forward():
    cfg, a_hat, windows, qmax, tensor, counts = _training_setup()
    params = init_params(cfg, np.random.default_rng(6))
    t_idx = np.array([5, 6, 9])
    q_hat = predict(params, cfg, a_hat, train_module._bin_major(tensor), counts, t_idx)
    assert q_hat.shape == (3, 3, cfg.horizon)
    sel = np.searchsorted(windows.t_index, t_idx)
    slots = t_idx[:, None] + np.arange(1 - cfg.history, 1)
    with no_grad():
        pred = forward(params, cfg, a_hat, windows.feats, slots, windows.anchor[sel])
    assert np.array_equal(q_hat, pred.q_hat.data)


def _perturbed_params(cfg, seed, dtype=np.float64):
    # random heads too, so the forecasts depend on every layer
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = (p.data + rng.normal(scale=0.1, size=p.data.shape)).astype(dtype)
    return params


def test_predict_over_shared_bins_equals_per_window_forward():
    # consecutive anchors share all but one bin, and all of them fall in
    # one batch, so each bin's spatial embedding is computed once and read
    # by up to `history` windows
    cfg, a_hat, _, _, tensor, counts = _training_setup()
    params = _perturbed_params(cfg, 6, model_module.DTYPE)
    t_idx = np.arange(cfg.history - 1, 60)
    q_hat = predict(params, cfg, a_hat, train_module._bin_major(tensor), counts, t_idx)
    # the parameters and the bins predict reads, in the predictor's dtype
    feats = train_module._bin_major(tensor)
    with no_grad():
        for j, t in enumerate(t_idx):
            hist = feats[t - cfg.history + 1 : t + 1]
            pred = forward(params, cfg, a_hat, hist, np.arange(cfg.history)[None], counts[None, :, t])
            assert np.array_equal(q_hat[j], pred.q_hat.data[0]), t


@pytest.mark.parametrize("windows_per_batch", [1, 2, 5])
def test_predict_over_unsorted_gapped_repeated_anchors_equals_per_window_forward(monkeypatch, windows_per_batch):
    # small batches, so embeddings are carried across them; anchors that
    # step back, jump, repeat and overlap the carried bins out of order.
    # Four segments keep every row count a multiple of 4: BLAS mat-vec row
    # sums (layer norm, softmax) can round a row differently when the
    # count leaves a tail of 2 or 3 rows, and exact equality across
    # batchings needs the same rounding
    cfg, a_hat, _, _, tensor, counts = _training_setup(n=4)
    monkeypatch.setattr(train_module, "INFER_ROWS", windows_per_batch * cfg.history * counts.shape[0])
    params = _perturbed_params(cfg, 7, model_module.DTYPE)
    t_idx = np.array([10, 11, 12, 40, 41, 7, 7, 8, 60, 59, 58, 3, 95, 12, 11, 50])
    q_hat = predict(params, cfg, a_hat, train_module._bin_major(tensor), counts, t_idx)
    # the parameters and the bins predict reads, in the predictor's dtype
    feats = train_module._bin_major(tensor)
    with no_grad():
        for j, t in enumerate(t_idx):
            hist = feats[t - cfg.history + 1 : t + 1]
            pred = forward(params, cfg, a_hat, hist, np.arange(cfg.history)[None], counts[None, :, t])
            assert np.array_equal(q_hat[j], pred.q_hat.data[0]), (j, t)


@pytest.mark.parametrize("windows_per_batch", [1, 3])
def test_evaluate_over_a_dropped_window_equals_the_per_window_mean(monkeypatch, windows_per_batch):
    # a missing count drops the windows that anchor on it or target it,
    # so the validation anchors have a gap that carried bins must bridge
    cfg, a_hat, _, qmax, tensor, counts = _training_setup(n=4)
    counts = counts.copy()
    counts[1, 30] = np.nan
    windows = build_windows(tensor, counts, cfg, t_last=counts.shape[1] - cfg.horizon - 1)
    assert 30 not in windows.t_index and 31 in windows.t_index
    monkeypatch.setattr(train_module, "INFER_ROWS", windows_per_batch * cfg.history * counts.shape[0])
    params = _perturbed_params(cfg, 8)
    losses = []
    with no_grad():
        for j, t in enumerate(windows.t_index):
            hist = windows.feats[t - cfg.history + 1 : t + 1]
            pred = forward(params, cfg, a_hat, hist, np.arange(cfg.history)[None], windows.anchor[j : j + 1])
            comps = loss_components(pred, windows.target[j : j + 1], qmax, windows.n_tot[j : j + 1])
            losses.append(comps["total"].item())
    assert _evaluate(params, cfg, a_hat, windows, qmax) == pytest.approx(np.mean(losses), rel=1e-12)


def test_carried_embeddings_under_a_tape_raise():
    params = init_params(TINY, np.random.default_rng(3))
    a_hat, hist, anchor = _tiny_inputs(TINY, seed=3)
    carry = np.zeros((0, 3, TINY.embed_dim))
    with pytest.raises(ValueError, match="no_grad"):
        forward(params, TINY, a_hat, *_stacked(hist), anchor, carry=carry)
    with no_grad():
        pred = forward(params, TINY, a_hat, *_stacked(hist), anchor, carry=carry)
    assert pred.embedded.shape == (hist.shape[0] * TINY.history, 3, TINY.embed_dim)


def test_predict_embeds_each_bin_once(monkeypatch):
    # on a 200-segment mesh a batch holds one window of 1,200 rows, so
    # without carried embeddings every bin would be embedded `history`
    # times; count the rows through the input projection
    cfg = ExperimentConfig().model
    rows, cols, t_bins = 10, 20, 40
    n = rows * cols
    rng = np.random.default_rng(5)
    tensor = make_feature_tensor(rng.normal(size=(n, t_bins, cfg.n_features)))
    counts = rng.uniform(5.0, 20.0, size=(n, t_bins))
    a_hat = normalized_adjacency(_mesh_adjacency(rows, cols))
    params = init_params(cfg, rng)
    projected = []
    real_affine = model_module.affine

    def counting_affine(x, w, b=None):
        if w is params["w_in"]:
            projected.append(x.shape[0] * x.shape[1])
        return real_affine(x, w, b)

    monkeypatch.setattr(model_module, "affine", counting_affine)
    t_idx = np.arange(cfg.history - 1, t_bins - 1)
    predict(params, cfg, a_hat, train_module._bin_major(tensor), counts, t_idx)
    assert len(projected) > 1
    assert sum(projected) == (t_bins - 1) * n, sum(projected) / ((t_bins - 1) * n)


def test_no_tape_forward_frees_each_activation_at_its_last_use():
    # one no-tape batch of the pipeline's model on a 4-segment corridor,
    # 170 windows over 175 bins, in units u of one (B, H, N, d) activation:
    # 14.2u when the attention's locals lived through the feed-forward
    # block and layer norm and GELU kept a second output array
    cfg = ExperimentConfig().model
    n, bsz = 4, 170
    rng = np.random.default_rng(6)
    params = _perturbed_params(cfg, 6)
    bins = rng.normal(size=(bsz + cfg.history - 1, n, cfg.n_features))
    windows = np.arange(bsz)[:, None] + np.arange(cfg.history)
    anchor = rng.uniform(5.0, 20.0, size=(bsz, n))
    a_hat = normalized_adjacency(np.eye(n, k=1))
    u = bsz * cfg.history * n * cfg.embed_dim * 8
    with no_grad():
        tracemalloc.start()
        try:
            forward(params, cfg, a_hat, bins, windows, anchor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 10 * u, f"no-tape batch peaked at {peak / u:.1f}u"


def test_predict_peak_memory_does_not_grow_with_anchors():
    # batches are sized by rows, so beyond one batch the working set is
    # fixed; only the (anchors, N, horizon) outputs grow
    rng = np.random.default_rng(4)
    n, t_bins = 64, 140
    cfg = ModelConfig(n_features=5, embed_dim=16, spatial_layers=1, temporal_blocks=1,
                      heads=2, history=4, horizon=1, ffn_width=32)
    tensor = make_feature_tensor(rng.normal(size=(n, t_bins, cfg.n_features)))
    counts = rng.uniform(5.0, 20.0, size=(n, t_bins))
    a_hat = normalized_adjacency(np.eye(n, k=1))
    params = _perturbed_params(cfg, 1)
    peaks = []
    for n_anchors in (32, 128):
        t_idx = np.arange(cfg.history - 1, cfg.history - 1 + n_anchors)
        tracemalloc.start()
        try:
            predict(params, cfg, a_hat, train_module._bin_major(tensor), counts, t_idx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_backward_frees_every_interior_node():
    params = init_params(TINY, np.random.default_rng(3))
    a_hat, hist, anchor = _tiny_inputs(TINY, seed=3)
    target = anchor[:, :, None] + 1.0
    pred = forward(params, TINY, a_hat, *_stacked(hist), anchor)
    loss = loss_components(pred, target, np.full(3, 30.0), target[:, :, 0].sum(axis=1))["total"]
    interior, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                interior.append(node)
            stack.extend(node._parents)
    assert len(interior) > 50
    loss.backward()
    for node in interior:
        assert node.grad is None and node._parents == () and node._backward is None
    for name, p in params.items():
        assert p.grad is not None and p.grad.shape == p.shape, name


def test_no_backward_closure_holds_a_tensor():
    # a closure that captured a Tensor would pin that tensor's whole value
    # on the tape; closures must keep arrays their backward reads, no more
    params = init_params(TINY, np.random.default_rng(3))
    a_hat, hist, anchor = _tiny_inputs(TINY, seed=3)
    target = anchor[:, :, None] + 1.0
    pred = forward(params, TINY, a_hat, *_stacked(hist), anchor)
    loss = loss_components(pred, target, np.full(3, 30.0), target[:, :, 0].sum(axis=1))["total"]
    closures, stack, seen = 0, [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                closures += 1
                for cell in node._backward.__closure__ or ():
                    assert not isinstance(cell.cell_contents, Tensor), node._backward.__qualname__
            stack.extend(node._parents)
    assert closures > 50


def _mesh_adjacency(rows, cols):
    """Eastbound rows with a southward link every third column."""
    a = np.zeros((rows * cols, rows * cols))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                a[r * cols + c, r * cols + c + 1] = 1.0
            if r + 1 < rows and c % 3 == 2:
                a[r * cols + c, (r + 1) * cols + c] = 1.0
    return a


def _mesh_inputs(dtype=np.float64):
    """The pipeline's model and its forward inputs on a 100-segment mesh
    batch, features in dtype: (cfg, params, a_hat, bins, windows, anchor,
    target)."""
    cfg = ExperimentConfig().model
    rows, cols, bsz = 5, 20, 8
    n = rows * cols
    rng = np.random.default_rng(4)
    params = init_params(cfg, rng)
    bins = rng.normal(size=(bsz * cfg.history, n, cfg.n_features)).astype(dtype)
    windows = np.arange(bsz * cfg.history).reshape(bsz, cfg.history)
    anchor = rng.uniform(5.0, 20.0, size=(bsz, n))
    target = anchor[:, :, None] + rng.normal(size=(bsz, n, cfg.horizon))
    a_hat = normalized_adjacency(_mesh_adjacency(rows, cols))
    return cfg, params, a_hat, bins, windows, anchor, target


def _mesh_step_inputs(dtype=np.float64):
    """The mesh batch's parameters, its loss as a closure, and the unit u
    of one float64 (B, H, N, d) activation."""
    cfg, params, a_hat, bins, windows, anchor, target = _mesh_inputs(dtype)
    bsz, n = anchor.shape
    u = bsz * cfg.history * n * cfg.embed_dim * 8

    def loss():
        pred = forward(params, cfg, a_hat, bins, windows, anchor)
        return loss_components(pred, target, np.full(n, 1e3), target[:, :, 0].sum(axis=1))["total"]

    return params, loss, u


def test_taped_step_keeps_only_what_backward_reads():
    # one taped forward + loss, in units u of one (B, H, N, d) activation:
    # 22.2u with GELU keeping only its input and the spatial layers
    # rebuilding A z in backward, 28.2u when both were kept, 46.0u when the
    # tape kept every value it was built from
    params, step_loss, u = _mesh_step_inputs()
    tracemalloc.start()
    try:
        loss = step_loss()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * u, f"taped step peaked at {peak / u:.1f}u"
    loss.backward()
    assert all(p.grad is not None for p in params.values())


def test_whole_taped_step_peak():
    # forward, loss and backward together: 22.4u, against 28.3u when GELU
    # kept its tanh value and each spatial layer kept A z for W_n's gradient
    params, step_loss, u = _mesh_step_inputs()
    tracemalloc.start()
    try:
        step_loss().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * u, f"taped step peaked at {peak / u:.1f}u"
    assert all(p.grad is not None for p in params.values())


def test_no_backward_closure_keeps_a_neighbour_product():
    # each spatial layer's W_n gradient rebuilds a_hat @ z in backward, so
    # the tape holds z (the self term's affine keeps it anyway) but never
    # a_hat @ z
    cfg = replace(TINY, spatial_layers=2)
    params = _perturbed_params(cfg, 5)
    a_hat, hist, anchor = _tiny_inputs(cfg, seed=5)
    target = anchor[:, :, None] + 1.0
    pred = forward(params, cfg, a_hat, *_stacked(hist), anchor)
    loss = loss_components(pred, target, np.full(3, 30.0), target[:, :, 0].sum(axis=1))["total"]
    z_shape = (hist.shape[0] * cfg.history, 3, cfg.embed_dim)
    kept, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            closure = node._backward.__closure__ if node._backward is not None else None
            for cell in closure or ():
                v = cell.cell_contents
                if isinstance(v, np.ndarray) and v.size == math.prod(z_shape):
                    kept.append(v.reshape(z_shape))
            stack.extend(node._parents)
    products = [a_hat @ z for z in kept]
    assert len(kept) >= cfg.spatial_layers
    assert not any(np.array_equal(v, p) for v in kept for p in products)


def test_a_float32_tape_and_its_optimizer_stay_float32(monkeypatch):
    # every tape value is made in autodiff._result. A plain number lifted
    # as a 0-d float64 array (attention's 1/sqrt(d), mean's 1/count) or an
    # np.float64 clip scale in Adam would silently promote the tape, the
    # gradients or the weights to float64
    made = []
    real_result = autodiff._result

    def recording_result(data, nodes, backward):
        made.append(np.asarray(data).dtype)
        return real_result(data, nodes, backward)

    monkeypatch.setattr(autodiff, "_result", recording_result)
    params, step_loss, _ = _mesh_step_inputs(model_module.DTYPE)
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}
    step_loss().backward()
    assert len(made) > 50 and set(made) == {np.dtype(np.float32)}
    assert {p.grad.dtype for p in params.values()} == {np.dtype(np.float32)}

    # a few training steps with every step clipped, validation included
    optimizers = []

    class RecordingAdam(train_module._Adam):
        def __init__(self, params, lr):
            super().__init__(params, lr)
            optimizers.append(self)

    monkeypatch.setattr(train_module, "_Adam", RecordingAdam)
    monkeypatch.setattr(train_module, "CLIP_NORM", 1e-6)
    monkeypatch.setattr(train_module, "EVAL_EVERY", 2)
    cfg, a_hat, windows, qmax, _, _ = _training_setup()
    made.clear()
    res = train(cfg, a_hat, windows, qmax, seed=0, steps=4, batch_size=4)
    (opt,) = optimizers
    assert opt.t == 4
    assert made and set(made) == {np.dtype(np.float32)}
    for name, p in res.params.items():
        assert p.data.dtype == np.float32, name
        assert opt.m[name].dtype == np.float32 and opt.v[name].dtype == np.float32, name


def test_float32_forward_stays_close_to_the_float64_forward():
    # the mesh batch with random heads, so q_hat depends on every layer;
    # the float64 pass reads the same parameters, features and a_hat, cast.
    # The gap is 2.3e-6 vehicles on counts of 5-22 (mu up to 2.0), and at
    # most that over parameter seeds 9-14
    cfg, _, a_hat, bins, windows, anchor, _ = _mesh_inputs(model_module.DTYPE)
    params32 = _perturbed_params(cfg, 9, model_module.DTYPE)
    params64 = {k: Tensor(p.data.astype(np.float64)) for k, p in params32.items()}
    with no_grad():
        q32 = forward(params32, cfg, a_hat.astype(model_module.DTYPE), bins, windows, anchor).q_hat.data
        q64 = forward(params64, cfg, a_hat, bins.astype(np.float64), windows, anchor).q_hat.data
    assert q32.dtype == np.float32 and q64.dtype == np.float64
    assert np.abs(q64 - anchor[:, :, None]).max() > 1.0
    gap = np.abs(q32 - q64).max()
    assert gap < 1e-5, gap


def test_training_steps_hold_one_tape_at_a_time(monkeypatch):
    # each step's backward frees its tape, so no tape or interior gradient
    # of one step is alive during the next, and more steps add no peak
    monkeypatch.setattr(train_module, "EVAL_EVERY", 10**6)
    pipe = Pipeline(ExperimentConfig(twin="grid", days=2, forecast_days=0))
    pipe.features()
    cfg = pipe.cfg
    windows = build_windows(pipe.tensor, pipe.probe.values, cfg.model,
                            t_last=pipe.train_bins - cfg.model.horizon - 1)
    a_hat = normalized_adjacency(_adjacency(pipe.net))
    qmax = FdArrays.build(pipe.net.segments, pipe.fd, cfg.bin_seconds).qmax
    peaks = []
    for steps in (1, 3):
        tracemalloc.start()
        try:
            train(cfg.model, a_hat, windows, qmax, seed=0, steps=steps, batch_size=cfg.train_batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_predict_rejects_short_history():
    cfg, a_hat, _, _, tensor, counts = _training_setup()
    with pytest.raises(ValueError, match="history"):
        predict(init_params(cfg, np.random.default_rng(0)), cfg, a_hat, train_module._bin_major(tensor), counts,
                np.array([1]))


def test_predict_rejects_features_that_do_not_align_with_counts():
    cfg, a_hat, _, _, tensor, counts = _training_setup()
    feats = train_module._bin_major(tensor)
    params = init_params(cfg, np.random.default_rng(0))
    for bad in (feats[:-1], feats.transpose(1, 0, 2)):
        with pytest.raises(ValueError, match="align"):
            predict(params, cfg, a_hat, bad, counts, np.array([cfg.history]))


def test_checkpoint_round_trip(tmp_path):
    # an experiment's model reads the full feature set
    cfg = replace(TINY, n_features=22)
    params = init_params(cfg, np.random.default_rng(8))
    prefix = str(tmp_path / "model")
    save_checkpoint(prefix, params, cfg)
    cfg2 = ExperimentConfig.from_dict({"model": json.loads((tmp_path / "model.json").read_text())}).model
    assert cfg2 == cfg
    with np.load(prefix + ".npz") as z:
        loaded = {k: Tensor(z[k]) for k in z.files}
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data)
    a_hat, hist, anchor = _tiny_inputs(cfg)
    with no_grad():
        a = forward(params, cfg, a_hat, *_stacked(hist), anchor)
        b = forward(loaded, cfg2, a_hat, *_stacked(hist), anchor)
    assert np.array_equal(a.q_hat.data, b.q_hat.data)
