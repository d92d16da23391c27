"""Transition kernel, localization, diffusion, confidence, and blending."""

import csv
import tracemalloc

import numpy as np
import pytest

from conftest import check_transition_invariants, make_chain
from trafficfuse.harness import ExperimentConfig, Pipeline
from trafficfuse.propagation import (
    TransitionMatrix,
    _effective_rows,
    build_transition,
    calibrate_counts,
    diffuse,
    export_localization,
    export_transition,
    localization_vector,
    localization_vectors,
    shrink_blend,
    update_confidence,
)
from trafficfuse.util import substream


def _chain_transition(gamma=0.5, s=0.1):
    flows = np.zeros((3, 3))
    flows[0, 1] = 1.0
    flows[1, 2] = 1.0
    return build_transition(flows, gamma_pd=gamma, s=s)


def test_transition_ratio_definition():
    flows = np.zeros((3, 3))
    flows[0, 1] = 30.0
    flows[0, 2] = 10.0
    t = build_transition(flows)
    assert t.p[0, 1] == 0.75
    assert t.p[0, 2] == 0.25
    assert np.array_equal(t.p[1], np.zeros(3))


def test_zero_outflow_row_is_isolated():
    flows = np.zeros((2, 2))
    t = build_transition(flows)
    assert np.array_equal(t.p, np.zeros((2, 2)))
    assert np.array_equal(t.w_eff, np.eye(2))


def test_chain_kernels_match_hand_arithmetic():
    # unit flows along 0 -> 1 -> 2 with gamma 0.5: symmetrized edges carry
    # 0.5 * (1/2) = 0.25, and every product below stays a power of two
    t = _chain_transition()
    w_hand = np.zeros((3, 3))
    w_hand[0, 1] = w_hand[1, 0] = 0.25
    w_hand[1, 2] = w_hand[2, 1] = 0.25
    assert np.array_equal(t.w, w_hand)
    w2_hand = 0.5 * (w_hand @ w_hand)
    w3_hand = 0.5 * (w2_hand @ w_hand)
    for i in range(3):
        rho = w_hand[:, i] + 0.5 * w2_hand[:, i] + 0.25 * w3_hand[:, i]
        rho[i] = 1.0
        assert np.array_equal(localization_vector(t, i), rho)


def test_chain_localization_two_hop_value():
    t = _chain_transition()
    rho = localization_vector(t, 0)
    assert rho[0] == 1.0
    # one hop plus a three-hop walk: 0.25 + 0.25 * 0.0078125
    assert rho[1] == 0.251953125
    # reachable only through the two-hop kernel
    assert rho[2] == 0.5 * 0.03125 == 0.015625


def test_localization_beyond_three_hops_is_zero():
    flows = np.zeros((5, 5))
    for i in range(4):
        flows[i, i + 1] = 1.0
    t = build_transition(flows, gamma_pd=0.5)
    rho = localization_vector(t, 0)
    assert rho[3] > 0.0  # three hops, via W3
    assert rho[4] == 0.0  # four hops away


def test_localization_disconnected_is_self_only():
    t = build_transition(np.zeros((4, 4)))
    assert np.array_equal(localization_vector(t, 2), [0, 0, 1, 0])


def test_localization_clipped_to_unit_interval():
    n = 6
    flows = np.ones((n, n)) - np.eye(n)
    t = build_transition(flows, gamma_pd=0.95)
    for i in range(n):
        rho = localization_vector(t, i)
        assert (rho <= 1.0).all() and (rho >= 0.0).all()


def test_localization_vectors_map():
    t = _chain_transition()
    vecs = localization_vectors(t, [0, 2])
    assert set(vecs) == {0, 2}
    assert np.array_equal(vecs[0], localization_vector(t, 0))


def test_build_transition_input_validation():
    with pytest.raises(ValueError, match="square"):
        build_transition(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 1] = -1.0
    with pytest.raises(ValueError, match="negative"):
        build_transition(bad)
    with pytest.raises(ValueError, match="gamma_pd"):
        build_transition(np.zeros((2, 2)), gamma_pd=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_build_transition_rejects_non_finite_flows(value):
    # on a 3-segment chain a NaN would leave row 0 flow-isolated and an inf
    # would break the row sums of p and w_eff
    flows = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    flows[0, 1] = value
    with pytest.raises(ValueError, match=r"trajectory flow -?(nan|inf) at \(0, 1\) must be finite"):
        build_transition(flows)


def test_diffuse_zero_smoothing_is_identity():
    t = _chain_transition()
    beta = np.random.default_rng(0).normal(size=(4, 3))
    assert np.array_equal(diffuse(beta, t, s=0.0), beta)


def test_diffuse_constant_field_is_fixed_point():
    # bitwise: the difference form sums exact zeros
    t = _chain_transition(gamma=0.7, s=0.3)
    beta = np.full((5, 3), 0.123456789)
    assert np.array_equal(diffuse(beta, t), beta)


def test_diffuse_single_member_vector():
    t = _chain_transition()
    beta = np.array([1.0, 0.0, -1.0])
    out = diffuse(beta, t, s=0.4)
    assert out.shape == (3,)
    # middle segment pulled toward the average of its neighbours
    assert out[1] == pytest.approx(0.4 * (0.25 * 1.0 + 0.25 * -1.0 - 0.5 * 0.0), abs=1e-15)


def test_diffuse_matches_direct_form():
    rng = np.random.default_rng(3)
    flows = rng.uniform(0, 5, size=(6, 6)) * (rng.random((6, 6)) < 0.4)
    np.fill_diagonal(flows, 0)
    t = build_transition(flows, gamma_pd=0.8)
    beta = rng.normal(size=(4, 6))
    direct = (1 - 0.25) * beta + 0.25 * beta @ t.w_eff.T
    assert np.allclose(diffuse(beta, t, s=0.25), direct, atol=1e-12)


def test_diffuse_memory_scales_with_edges():
    # chain plus skip edges: ~4 neighbours per row; a dense (M, N, N)
    # difference tensor at this size would take 88 MB on its own
    n, m = 300, 128
    flows = np.zeros((n, n))
    for i in range(n - 1):
        flows[i, i + 1] = 1.0
    for i in range(n - 5):
        flows[i, i + 5] = 0.5
    t = build_transition(flows)
    beta = np.random.default_rng(0).normal(size=(m, n))
    tracemalloc.start()
    try:
        diffuse(beta, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_diffuse_edge_list_is_built_once(monkeypatch):
    rng = np.random.default_rng(5)
    flows = rng.uniform(0, 5, size=(7, 7)) * (rng.random((7, 7)) < 0.4)
    np.fill_diagonal(flows, 0)
    t = build_transition(flows, gamma_pd=0.8)
    rows, cols, weights = t.edges
    want_rows, want_cols = np.nonzero(t.w_eff)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert np.array_equal(weights, t.w_eff[want_rows, want_cols])
    beta = rng.normal(size=(3, 7))
    want = diffuse(beta, t)

    def rescan(*args, **kwargs):
        raise AssertionError("diffuse rescanned W_eff")

    monkeypatch.setattr(np, "nonzero", rescan)
    assert np.array_equal(diffuse(beta, t), want)


def effective_rows_loop(w):
    """Reference _effective_rows, one row at a time; also counts the rows
    it rescaled and the rows whose rescaled sum it shaved back to 1."""
    out = np.array(w, dtype=float)
    np.fill_diagonal(out, 0.0)
    rescaled = shaved = 0
    for i in range(out.shape[0]):
        row = out[i]
        total = row.sum()
        if total > 1.0:
            rescaled += 1
            row /= total
            total = row.sum()
            if total > 1.0:
                shaved += 1
                row[np.argmax(row)] -= total - 1.0
                total = 1.0
        row[i] = max(0.0, 1.0 - total)
    return out, rescaled, shaved


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_effective_rows_match_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    rescaled = shaved = 0
    for _ in range(400):
        n = int(rng.integers(2, 30))
        flows = rng.exponential(size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.9))
        w = build_transition(flows, gamma_pd=rng.uniform(0.05, 0.999)).w
        want, r, sh = effective_rows_loop(w)
        assert same_bits(_effective_rows(w), want)
        rescaled += r
        shaved += sh
    # both the rescale and the residue shave were exercised
    assert rescaled > 100 and shaved > 10, (rescaled, shaved)


@pytest.mark.parametrize("twin", ["grid", "chain"])
def test_pipeline_kernel_matches_the_per_edge_loop(twin):
    pipe = Pipeline(ExperimentConfig(twin=twin, days=2, seed=5)).transition()
    cfg, net = pipe.cfg, pipe.net
    totals = pipe.sim.link_flows.sum(axis=1)
    # reference: one scalar binomial draw per edge record, accumulated on its edge
    rng = substream(cfg.seed, "transitions")
    flows = np.zeros((net.n_segments, net.n_segments))
    for (i, j), tot in zip(net.edges, totals):
        flows[i, j] += float(rng.binomial(int(round(tot)), cfg.penetration_base))
    want = build_transition(flows, gamma_pd=cfg.gamma_pd, s=cfg.diffusion_s)
    assert same_bits(pipe.trans.p, want.p)
    assert same_bits(pipe.trans.w, want.w)
    assert same_bits(pipe.trans.w_eff, effective_rows_loop(want.w)[0])
    # the one array draw leaves the stream where the per-edge draws did
    array_rng = substream(cfg.seed, "transitions")
    array_rng.binomial(np.rint(totals).astype(np.int64), cfg.penetration_base)
    assert array_rng.bit_generator.state == rng.bit_generator.state
    # far segments are those no calibration camera's vector reaches
    far = [i for i in range(net.n_segments) if all(v[i] == 0.0 for v in pipe.localization.values())]
    assert pipe.far_segments == far
    assert np.array_equal(np.flatnonzero(~pipe.reached), far)


def test_transition_invariants_random_sweep():
    assert check_transition_invariants(n_networks=150, seed=11) == 150


def test_update_confidence_rules():
    delta = update_confidence(np.zeros(3), np.ones(3), np.array([0.0, 1.0, 4.0]))
    assert delta[0] == 1.0  # zero variance: cv = 0
    assert delta[1] == 0.5  # cv = 1
    assert delta[2] == pytest.approx(1.0 / 3.0)
    # camera pins to 1 regardless of spread
    delta = update_confidence(np.zeros(3), np.ones(3), np.full(3, 100.0), cameras=[1])
    assert delta[1] == 1.0 and delta[0] < 0.1
    # geometric decay keeps the running maximum
    delta = update_confidence(np.array([0.9]), np.array([1.0]), np.array([100.0]), decay=0.999)
    assert delta[0] == pytest.approx(0.999 * 0.9)
    with pytest.raises(ValueError, match="positive"):
        update_confidence(np.zeros(1), np.array([0.0]), np.array([1.0]))


def test_shrink_blend_interpolates():
    assert shrink_blend(np.array([3.0]), np.array([1.0]), 1.0)[0] == 3.0
    assert shrink_blend(np.array([3.0]), np.array([0.0]), 1.0)[0] == 1.0
    assert shrink_blend(np.array([3.0]), np.array([0.5]), 1.0)[0] == 2.0


def test_calibrate_counts():
    q = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(calibrate_counts(q, np.ones(2)), q)
    out = calibrate_counts(q, np.array([2.0, 0.5]))
    assert np.array_equal(out, [[2.0, 4.0], [1.5, 2.0]])
    assert np.array_equal(calibrate_counts(np.zeros(2), np.array([7.0, 9.0])), np.zeros(2))
    with pytest.raises(ValueError, match="positive"):
        calibrate_counts(q, np.array([1.0, 0.0]))


def test_calibrate_counts_per_bin_factors():
    q = np.array([[1.0, 2.0, 4.0], [3.0, 4.0, 5.0]])
    alpha = np.array([[2.0, 0.5, 1.0], [1.0, 3.0, 0.25]])
    assert np.array_equal(calibrate_counts(q, alpha), alpha * q)
    with pytest.raises(ValueError, match="positive"):
        calibrate_counts(q, -alpha)


def test_exports_round_trip(tmp_path):
    net = make_chain(3)
    flows = np.zeros((3, 3))
    flows[0, 1] = 3.0
    flows[1, 2] = 1.0
    t = build_transition(flows)
    tp = tmp_path / "transition.csv"
    export_transition(t, net, str(tp))
    rows = list(csv.DictReader(open(tp)))
    assert {(r["from_id"], r["to_id"]) for r in rows} == {("s0", "s1"), ("s1", "s2")}
    assert all(float(r["p"]) == 1.0 for r in rows)

    lp = tmp_path / "localization.csv"
    export_localization(localization_vectors(t, [0]), net, str(lp))
    rows = list(csv.DictReader(open(lp)))
    assert len(rows) == 3
    got = {r["segment_id"]: float(r["rho"]) for r in rows}
    assert got["s0"] == 1.0


def test_localization_export_writes_exactly_the_nonzeros(tmp_path):
    # on a six-segment chain, cameras 0 and 5 reach three hops each, so
    # both vectors hold zeros; the file keeps only the nonzero entries,
    # camera by camera in ascending segment order
    net = make_chain(6)
    flows = np.zeros((6, 6))
    flows[np.arange(5), np.arange(1, 6)] = 1.0
    vectors = localization_vectors(build_transition(flows, gamma_pd=0.5), [5, 0])
    path = tmp_path / "localization.csv"
    export_localization(vectors, net, str(path))
    rows = list(csv.reader(open(path)))
    expected = [
        [f"s{cam}", f"s{j}", repr(float(vectors[cam][j]))]
        for cam in (0, 5)
        for j in range(6)
        if vectors[cam][j] != 0.0
    ]
    assert rows == [["camera_id", "segment_id", "rho"], *expected]
    assert 0 < len(expected) < 12


def test_transition_matrix_is_frozen():
    t = _chain_transition()
    assert isinstance(t, TransitionMatrix)
    with pytest.raises(AttributeError):
        t.gamma_pd = 0.4
