"""Feature blocks and tensor assembly. Expected vectors are hand-frozen."""

import datetime as dt
import tracemalloc

import numpy as np
import pytest

from trafficfuse.ctm import FdParams, demand, density_from_speed, supply
from trafficfuse.features import (
    FEATURE_NAMES,
    INDICATOR_FEATURES,
    build_tensor,
    temporal_features,
)
from trafficfuse.harness import GRID_CONNECTOR_COLS, grid_network
from trafficfuse.network import CountMatrix, SchemaError, Segment, max_storage

from conftest import make_chain, make_network

T0 = dt.datetime(2024, 1, 1)  # Monday
BIN = 900.0
SEG = Segment(id=0, length_m=500.0, lanes=2, capacity_vph=1800.0, free_flow_mps=10.0)
FD = FdParams(wave_speed=4.0, jam_density=1.0, crit_speed=7.0)


# -- scalar oracles that build_tensor's vectorized blocks are checked against --


def los_band(ratio):
    """Ordinal level-of-service value for a volume/capacity ratio."""
    idx = int(np.searchsorted([0.35, 0.55, 0.75, 0.9, 1.0], ratio, side="right"))
    return (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)[idx]


def sd_features(b, q, seg, fd, bin_seconds, n_max):
    """Speed-density block for one segment/bin.

    [b, 1-b, D/C, S/C, q/C, LOS, congested flag (b < 0.5), near-capacity
    flag (0.7 < q/C < 0.9), q/n_max] with C the per-bin capacity and D, S
    evaluated at the density recovered from b.
    """
    c = max_storage(seg, bin_seconds)
    rho = density_from_speed(b, seg, fd, bin_seconds)
    vc = q / c
    return np.array(
        [
            b,
            1.0 - b,
            demand(rho, seg, fd, bin_seconds) / c,
            supply(rho, seg, fd, bin_seconds) / c,
            vc,
            los_band(vc),
            float(b < 0.5),
            float(0.7 < vc < 0.9),
            q / max(n_max, 1.0),
        ]
    )


def neighbour_means(b, net):
    """Mean b over each segment's downstream and over its upstream neighbours.

    A Python loop over net.edges that adds each side's terms in ascending
    neighbour id; a side with no neighbours reads the segment's own b.
    """
    down = [[] for _ in range(net.n_segments)]
    up = [[] for _ in range(net.n_segments)]
    for i, j in net.edges:
        down[i].append(j)
        up[j].append(i)
    means = []
    for side in (down, up):
        mean = np.empty_like(b)
        for i, ids in enumerate(side):
            total = np.zeros_like(b[i])
            for j in sorted(ids):
                total = total + b[j]
            mean[i] = total / len(ids) if ids else b[i]
        means.append(mean)
    return means


def dense_neighbour_means(b, net):
    """The same means from dense products: (A b) / out-degree and (A^T b) / in-degree."""
    a = np.zeros((net.n_segments, net.n_segments))
    for i, j in net.edges:
        a[i, j] = 1.0
    out_deg = a.sum(axis=1)[:, None]
    in_deg = a.sum(axis=0)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(out_deg > 0, (a @ b) / out_deg, b), np.where(in_deg > 0, (a.T @ b) / in_deg, b)


def sp_features(b, net):
    """Spatial block, shape b.shape + (4,).

    [mean downstream b, own b minus that, mean upstream b, own b minus
    that]; segments with no neighbours on a side use their own b there so
    the gradient reads zero.
    """
    mean_ds, mean_us = neighbour_means(b, net)
    return np.stack([mean_ds, b - mean_ds, mean_us, b - mean_us], axis=-1)


def test_feature_layout_is_22_wide():
    assert len(FEATURE_NAMES) == 22
    assert len(set(FEATURE_NAMES)) == 22
    for ind in INDICATOR_FEATURES:
        assert ind in FEATURE_NAMES


def test_temporal_midnight_monday():
    # sin 0, cos 1 for both encodings; midnight is night, not weekend or rush
    assert np.array_equal(temporal_features(0, 0), [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def test_temporal_policy_sets():
    f = temporal_features(18, 5)  # Saturday evening rush hour
    assert f[4] == 1.0 and f[5] == 1.0 and f[6] == 0.0
    assert temporal_features(10, 4)[4:].tolist() == [0.0, 0.0, 0.0]
    for h in (22, 23, 0, 1, 2, 3, 4, 5):
        assert temporal_features(h, 2)[6] == 1.0
    assert temporal_features(6, 2)[6] == 0.0
    assert temporal_features(21, 2)[6] == 0.0


def test_temporal_unit_circle_invariant():
    for h in range(24):
        for d in range(7):
            f = temporal_features(h, d)
            assert f[0] ** 2 + f[1] ** 2 == pytest.approx(1.0, abs=1e-12)
            assert f[2] ** 2 + f[3] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_temporal_rejects_bad_input():
    with pytest.raises(ValueError):
        temporal_features(24, 0)
    with pytest.raises(ValueError):
        temporal_features(0, 7)


@pytest.mark.parametrize(
    "ratio,value",
    [
        (0.0, 0.0),
        (0.34, 0.0),
        (0.35, 0.2),
        (0.54, 0.2),
        (0.55, 0.4),
        (0.74, 0.4),
        (0.75, 0.6),
        (0.89, 0.6),
        (0.9, 0.8),
        (0.99, 0.8),
        (1.0, 1.0),
        (1.7, 1.0),
    ],
)
def test_los_bands(ratio, value):
    # capacity 4 veh/h over a 900 s bin is Q_max = 1, so q/C is the count exactly
    net = make_network([], n=1, capacity=4.0)
    ft = build_tensor(net, FD, CountMatrix([[ratio]], 900, T0), np.full((1, 1), np.nan), train_cols=1)
    assert ft.values[0, 0, 13] == ratio
    assert ft.values[0, 0, 14] == value
    assert los_band(ratio) == value


def test_los_rejects_negative():
    # a negative volume ratio never reaches the LOS column: counts refuse it
    net = make_network([], n=1, capacity=4.0)
    with pytest.raises(SchemaError):
        build_tensor(net, FD, CountMatrix([[-0.1]], 900, T0), np.full((1, 1), np.nan), train_cols=1)


def test_sd_free_flow_empty_segment():
    # b=1 gives rho=0, so demand 0 and supply min(4*100, 450) = 400
    f = sd_features(1.0, 0.0, SEG, FD, BIN, n_max=1.0)
    assert np.allclose(f, [1.0, 0.0, 0.0, 400.0 / 450.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_sd_mid_range_values():
    # b=0.8 -> rho=15, D=150, S=340; q=90 gives q/C = 0.2 (LOS A)
    f = sd_features(0.8, 90.0, SEG, FD, BIN, n_max=100.0)
    expect = [0.8, 0.2, 150.0 / 450.0, 340.0 / 450.0, 0.2, 0.0, 0.0, 0.0, 0.9]
    assert np.allclose(f, expect, atol=1e-12)


def test_sd_congested_flags():
    f = sd_features(0.3, 360.0, SEG, FD, BIN, n_max=400.0)
    assert f[6] == 1.0  # b < 0.5
    assert f[4] == pytest.approx(0.8)
    assert f[7] == 1.0  # 0.7 < q/C < 0.9
    assert f[5] == 0.6  # LOS D at 0.8


def test_sd_nmax_floor():
    f = sd_features(1.0, 0.5, SEG, FD, BIN, n_max=0.0)
    assert f[8] == 0.5  # denominator floored at 1


def test_sp_chain_values():
    net = make_chain(3)
    b = np.array([1.0, 0.5, 0.25])
    f = sp_features(b, net)
    assert np.allclose(f[1], [0.25, 0.25, 1.0, -0.5], atol=1e-12)
    # no upstream at the head, no downstream at the tail: gradients read 0
    assert np.allclose(f[0], [0.5, 0.5, 1.0, 0.0], atol=1e-12)
    assert np.allclose(f[2], [0.25, 0.0, 0.5, -0.25], atol=1e-12)


def _spatial_block(net, seed, t=6):
    """build_tensor's speed ratios and spatial block for random speeds."""
    rng = np.random.default_rng(seed)
    n = net.n_segments
    counts = CountMatrix(rng.uniform(0, 300, (n, t)), 900, T0)
    ft = build_tensor(net, FD, counts, rng.uniform(0.5, 10.0, (n, t)), train_cols=t)
    return ft.values[:, :, 9], ft.values[:, :, 18:22]


@pytest.mark.parametrize("seed", range(4))
def test_spatial_block_sums_neighbours_in_ascending_id(seed):
    # in-degrees of 3 and more, where the order of a sum shows in its
    # last bits, and edges listed in random order
    rng = np.random.default_rng(100 + seed)
    pairs = [(i, j) for i in range(9) for j in range(9) if i != j]
    edges = [pairs[k] for k in rng.choice(len(pairs), 30, replace=False)]
    net = make_network(edges, n=9)
    assert net.in_degree.max() >= 3 and net.out_degree.max() >= 3
    b, block = _spatial_block(net, seed)
    assert np.array_equal(block, sp_features(b, net))


def _grid(rows, cols):
    """The grid twin's layout at any size: eastbound rows linked southward
    at the connector columns."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in GRID_CONNECTOR_COLS]
    return make_network(edges, n=rows * cols)


@pytest.mark.parametrize("rows,cols", [(5, 10), (20, 40)])
def test_spatial_block_matches_dense_products_bitwise(rows, cols):
    # every degree of the grid layout is at most 2, so any order of the
    # neighbour sum is exact and the dense products agree bit for bit
    net = _grid(rows, cols)
    if (rows, cols) == (5, 10):
        assert net.edges == grid_network()[0].edges
    assert max(net.in_degree.max(), net.out_degree.max()) <= 2
    b, block = _spatial_block(net, rows)
    mean_ds, mean_us = dense_neighbour_means(b, net)
    assert np.array_equal(block, np.stack([mean_ds, b - mean_ds, mean_us, b - mean_us], axis=-1))


def test_build_tensor_peak_is_far_below_one_n_by_n_array():
    # one dense float array over 2,000 segments would alone take 32 MB
    n, t = 2000, 4
    net = make_chain(n)
    counts = CountMatrix(np.full((n, t), 50.0), 900, T0)
    tracemalloc.start()
    try:
        build_tensor(net, FD, counts, np.full((n, t), 8.0), train_cols=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"build_tensor peak {peak / 2**20:.1f} MB"


def _toy_inputs(t=16, missing_speed=False, missing_count=False):
    net = make_chain(3)
    rng = np.random.default_rng(3)
    counts = rng.uniform(0, 300, (3, t))
    speeds = rng.uniform(3, 10, (3, t))
    if missing_speed:
        speeds[1, 4] = np.nan
    if missing_count:
        counts[2, 5] = np.nan
    cm = CountMatrix(np.where(np.isnan(counts), np.nan, counts), 900, T0)
    return net, cm, speeds


def test_build_tensor_shape_and_consistency_with_scalar_ops():
    net, cm, speeds = _toy_inputs()
    fd = FdParams(wave_speed=2.0, jam_density=2.0, crit_speed=7.0)
    ft = build_tensor(net, fd, cm, speeds, train_cols=12)
    assert ft.values.shape == (3, 16, 22)
    # scalar path reproduces the vectorized speed-density block
    for i in (0, 1, 2):
        for t in (0, 7, 15):
            b = min(max(speeds[i, t] / 10.0, 0.0), 1.0)
            row = sd_features(b, cm.values[i, t], net.segments[i], fd, 900, cm.values[i, :12].max())
            assert np.allclose(ft.values[i, t, 9:18], row, atol=1e-12)
            tf = temporal_features(int(cm.hours()[t]), int(cm.days()[t]))
            assert np.allclose(ft.values[i, t, 1:8], tf, atol=1e-12)
    sp = sp_features(np.clip(speeds[:, 7] / 10.0, 0, 1), net)
    assert np.allclose(ft.values[:, 7, 18:22], sp, atol=1e-12)


def test_build_tensor_imputation_diagnostics():
    net, cm, speeds = _toy_inputs(missing_speed=True, missing_count=True)
    fd = FdParams(wave_speed=2.0, jam_density=2.0, crit_speed=7.0)
    ft = build_tensor(net, fd, cm, speeds, train_cols=16)
    assert ft.n_imputed_speed == 1
    assert ft.n_imputed_count == 1
    assert ft.values[1, 4, 9] == 1.0  # missing speed reads free flow
    assert ft.values[2, 5, 0] == 0.0  # missing count reads zero
    # with no speeds at all, every bin reads free flow
    ft = build_tensor(net, fd, cm, np.full((3, 16), np.nan), train_cols=16)
    assert ft.n_imputed_speed == 3 * 16
    assert np.array_equal(ft.values[:, :, 9], np.ones((3, 16)))


def test_build_tensor_nmax_uses_training_columns_only():
    net, cm, speeds = _toy_inputs()
    cm.values[0, 12:] = 10_000.0  # huge counts outside the training split
    fd = FdParams(wave_speed=2.0, jam_density=2.0, crit_speed=7.0)
    q_rel = FEATURE_NAMES.index("q_rel_max")
    ft = build_tensor(net, fd, cm, speeds, train_cols=12)
    assert np.array_equal(ft.values[0, :, q_rel], cm.values[0] / cm.values[0, :12].max())
    all_cols = build_tensor(net, fd, cm, speeds, train_cols=16)
    assert np.array_equal(all_cols.values[0, :, q_rel], cm.values[0] / 10_000.0)


def test_normalization_roundtrip_and_indicator_passthrough():
    net, cm, speeds = _toy_inputs()
    fd = FdParams(wave_speed=2.0, jam_density=2.0, crit_speed=7.0)
    ft = build_tensor(net, fd, cm, speeds, train_cols=12)
    z = ft.normalized()
    assert np.allclose(z * ft.scale + ft.mean, ft.values, atol=1e-9)
    ind = np.array([name in INDICATOR_FEATURES for name in FEATURE_NAMES])
    vals = z[:, :, ind]
    assert set(np.unique(vals)).issubset({0.0, 1.0})
    # non-indicator training columns are standardized
    flat = z[:, :12, ~ind].reshape(-1, (~ind).sum())
    assert np.allclose(flat.mean(axis=0), 0.0, atol=1e-9)


def test_boundary_feature_zero_off_boundary():
    net, cm, speeds = _toy_inputs()
    fd = FdParams(wave_speed=2.0, jam_density=2.0, crit_speed=7.0)
    bi = np.full((3, 16), 5.0)
    bo = np.full((3, 16), 2.0)
    ft = build_tensor(net, fd, cm, speeds, boundary_in=bi, boundary_out=bo, train_cols=16)
    # chain boundary is {0, 2}; interior segment keeps a zero feature
    assert np.allclose(ft.values[0, :, 8], 3.0 / 450.0)
    assert np.all(ft.values[1, :, 8] == 0.0)


@pytest.mark.parametrize(
    "start, bin_seconds, n_bins",
    [
        (T0, 900, 1344),  # Monday start, two weeks
        (dt.datetime(2024, 3, 9, 21, 47, 13), 700, 1000),  # Saturday evening, bins off the hour grid
        (T0, 3600, 35 * 24),  # five weeks
    ],
    ids=["monday_900s", "saturday_700s", "35_days_3600s"],
)
def test_temporal_block_matches_per_bin_features(start, bin_seconds, n_bins):
    # build_tensor looks each bin up in an (hour, day) table; the per-bin
    # call is the reference, compared bit for bit
    cm = CountMatrix(np.zeros((2, n_bins)), bin_seconds, start)
    got = build_tensor(make_chain(2), FD, cm, np.full((2, n_bins), np.nan), train_cols=n_bins).values[:, :, 1:8]
    expected = np.stack([temporal_features(int(h), int(d)) for h, d in zip(cm.hours(), cm.days())])
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()
