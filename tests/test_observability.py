"""Linearization, rank, and Gramian scoring tests.

The 3-segment chain at full transfer is the workhorse: its free-flow
matrix is an exact shift, so ranks and Gramian diagonals can be written
down by hand and asserted without tolerance.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_chain, make_network, make_ring
from trafficfuse.ctm import TurnRatios, default_fd_params
from trafficfuse.harness import CHAIN_CAMERAS, GRID_CAMERAS, chain_network, grid_network
from trafficfuse.observability import (
    REGIMES,
    LinearSystem,
    _gramian_diagonal,
    analyze,
    gramian,
    linearize,
    lyapunov_gramian,
    observability_rank,
    report_to_csv,
    report_to_json,
    segment_scores,
    selection_matrix,
    spectral_radius,
)

SHIFT3 = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])


def chain_system(cameras=(2,), regime="free", n=3, **kw):
    net = make_chain(n, **kw)
    return linearize(net, default_fd_params(net), regime, cameras=cameras)


def random_system(rng, n=8, m=2):
    a = rng.normal(size=(n, n)) * (0.9 / n)
    cams = rng.choice(n, size=m, replace=False)
    return LinearSystem(a=a, b=np.zeros((n, 0)), c=selection_matrix(cams, n), regime="free")


def stacked_observability(sys, horizon):
    blocks, blk = [], sys.c.copy()
    for _ in range(horizon):
        blocks.append(blk)
        blk = blk @ sys.a
    return np.vstack(blocks)


def stacked_rank(sys):
    """Rank oracle: the SVD of the whole N*m x N observability matrix."""
    obs = stacked_observability(sys, sys.n)
    sv = np.linalg.svd(obs, compute_uv=False)
    tol = max(obs.shape) * sv[0] * np.finfo(float).eps if sv.size else 0.0
    return int((sv > tol).sum())


def mesh_edges(rows, cols):
    """Eastbound rows linked southward every third column: a DAG."""
    east = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    south = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(2, cols - 1, 3)]
    return east + south


def twin_systems():
    """Both regimes of the grid and chain twins with their turn ratios and cameras."""
    for (net, beta, _), cams in ((grid_network(), GRID_CAMERAS), (chain_network(), CHAIN_CAMERAS)):
        for regime in REGIMES:
            yield linearize(net, default_fd_params(net), regime, beta=beta, cameras=cams["calibration"])


def matvec_score(net, cameras, segment):
    """max over regimes of sum_k ||C A^k e_i||^2, one mat-vec at a time."""
    best = 0.0
    for regime in REGIMES:
        sys = linearize(net, default_fd_params(net), regime, cameras=cameras)
        v = np.zeros(sys.n)
        v[segment] = 1.0
        total = 0.0
        for _ in range(sys.n):
            if not v.any():
                break  # A^k e_i = 0, so every later term is zero
            y = sys.c @ v
            total += float(y @ y)
            v = sys.a @ v
        best = max(best, total)
    return best


# -- linearize --


def test_free_flow_chain_is_shift_matrix():
    # 500 m at 10 m/s crosses in 50 s << 900 s bin: full transfer
    sys = chain_system()
    assert np.array_equal(sys.a, SHIFT3)
    assert spectral_radius(sys.a) == 0.0


def test_partial_transfer_retains_complement():
    # 1800 m at 1 m/s: half the segment drains per bin
    sys = chain_system(cameras=(1,), n=2, vfree=1.0, length=1800.0)
    assert np.array_equal(sys.a, np.array([[0.5, 0.0], [0.5, 0.5]]))


def test_congested_support_is_transposed():
    free = chain_system(regime="free")
    cong = chain_system(regime="congested")
    assert np.array_equal(cong.a != 0, (free.a != 0).T)
    assert np.array_equal(cong.a, SHIFT3.T)


def test_congested_merge_splits_by_inflow_share():
    net = make_network([(0, 2), (1, 2), (2, 3)])
    sys = linearize(net, default_fd_params(net), "congested", cameras=(0,))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 2] = 0.5
    expect[2, 3] = 1.0
    assert np.array_equal(sys.a, expect)


def test_free_flow_diverge_splits_by_unequal_ratios():
    # 1800 m at 1 m/s: f = 0.5 leaves segment 0, split 3:1 onto 1 and 2
    net = make_network([(0, 1), (0, 2)], vfree=1.0, length=1800.0)
    sys = linearize(net, default_fd_params(net), "free", beta=TurnRatios([0.75, 0.25], net))
    expect = np.diag([0.5, 0.5, 0.5])
    expect[1, 0], expect[2, 0] = 0.75 * 0.5, 0.25 * 0.5
    assert np.array_equal(sys.a, expect)


def test_congested_merge_splits_by_unequal_ratios():
    # 2 takes 0.75 of 0's outflow and all of 1's: inflow shares 0.75 / 1.75 and 1 / 1.75
    net = make_network([(0, 2), (0, 3), (1, 2)])
    sys = linearize(net, default_fd_params(net), "congested", beta=TurnRatios([0.75, 0.25, 1.0], net))
    expect = np.zeros((4, 4))
    expect[0, 2], expect[1, 2] = 0.75 / 1.75, 1.0 / 1.75
    expect[0, 3] = 1.0
    assert np.array_equal(sys.a, expect)


def test_boundary_inputs_and_camera_rows(chain3):
    sys = linearize(chain3, default_fd_params(chain3), "free", cameras=(2, 0))
    assert sys.cameras == (2, 0)
    assert sys.b.shape == (3, 2)  # chain ends admit exogenous flow
    assert np.array_equal(sys.b.sum(axis=0), np.ones(2))


def test_linearize_rejects_bad_inputs(chain3):
    fd = default_fd_params(chain3)
    with pytest.raises(ValueError, match="regime"):
        linearize(chain3, fd, "gridlock")
    with pytest.raises(ValueError, match="outside the network"):
        linearize(chain3, fd, "free", cameras=(7,))


def test_linear_system_validation():
    with pytest.raises(ValueError, match="square"):
        LinearSystem(a=np.zeros((2, 3)), b=np.zeros((2, 0)), c=np.eye(2), regime="free")
    with pytest.raises(ValueError, match="basis"):
        LinearSystem(
            a=np.zeros((3, 3)), b=np.zeros((3, 0)),
            c=np.array([[0.5, 0.5, 0.0]]), regime="free",
        )
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LinearSystem(a=bad, b=np.zeros((2, 0)), c=selection_matrix([0], 2), regime="free")


# -- rank --


def test_chain_camera_at_outlet_sees_everything():
    # rows of O are e2, e1, e0: full rank by inspection
    rank, gamma = observability_rank(chain_system(cameras=(2,)))
    assert (rank, gamma) == (3, 1.0)


def test_chain_camera_at_inlet_sees_only_itself_in_free_flow():
    rank, gamma = observability_rank(chain_system(cameras=(0,)))
    assert (rank, gamma) == (1, pytest.approx(1 / 3))


def test_congestion_reverses_what_an_inlet_camera_sees():
    rank, gamma = observability_rank(chain_system(cameras=(0,), regime="congested"))
    assert (rank, gamma) == (3, 1.0)


def test_static_state_rank_equals_camera_count():
    sys = LinearSystem(a=np.zeros((4, 4)), b=np.zeros((4, 0)),
                       c=selection_matrix([1], 4), regime="free")
    assert observability_rank(sys) == (1, 0.25)


def test_disconnected_component_is_unobservable():
    net = make_network([(0, 1), (2, 3)])
    sys = linearize(net, default_fd_params(net), "free", cameras=(1,))
    rank, gamma = observability_rank(sys)
    assert rank <= 2 and gamma <= 0.5


def test_rank_index_bounds_hold_on_random_networks():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n + 1))
        sys = random_system(rng, n=n, m=m)
        rank, gamma = observability_rank(sys)
        assert m / n <= gamma <= 1.0
        assert rank >= m


def test_krylov_rank_matches_stacked_svd_on_random_systems():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        sys = random_system(rng, n=n, m=int(rng.integers(1, n + 1)))
        rank, gamma = observability_rank(sys)
        assert rank == stacked_rank(sys)
        assert gamma == rank / n


def test_krylov_rank_matches_stacked_svd_on_twins():
    for sys in twin_systems():
        assert observability_rank(sys)[0] == stacked_rank(sys), sys.regime


def test_krylov_rank_matches_stacked_svd_on_a_mesh():
    net = make_network(mesh_edges(10, 25))
    cams = np.random.default_rng(2).choice(net.n_segments, 22, replace=False)
    for regime in REGIMES:
        sys = linearize(net, default_fd_params(net), regime, cameras=cams)
        assert observability_rank(sys)[0] == stacked_rank(sys), regime


def test_two_way_ring_is_cyclic_not_nilpotent():
    # every block is nonzero, so the rank must stop on the basis, not on a zero block
    net = make_network([(i, (i + 1) % 6) for i in range(6)] + [((i + 1) % 6, i) for i in range(6)])
    sys = linearize(net, default_fd_params(net), "free", cameras=(0,))
    assert np.linalg.matrix_power(sys.a, 12).any()
    assert observability_rank(sys)[0] == stacked_rank(sys)


def test_equal_weight_diamond_has_rank_below_its_structure():
    # both branches carry half of 0's outflow into 3, so the camera at 3
    # sees only their sum: O = [e3; e1 + e2; e0], rank 3 of 4 reachable
    net = make_network([(0, 1), (0, 2), (1, 3), (2, 3)])
    sys = linearize(net, default_fd_params(net), "free", cameras=(3,))
    assert stacked_rank(sys) == 3
    assert observability_rank(sys) == (3, 0.75)


def test_rank_stays_in_bounds_on_slowly_decaying_systems():
    # near-cyclic and low-rank systems have no spectral gap for the stacked
    # SVD to match, so only the bounds m <= rank <= N are checked
    rng = np.random.default_rng(17)
    for k in range(30):
        n = int(rng.integers(10, 81))
        m = int(rng.integers(1, 4))
        if k % 2:
            a = 0.99 * np.roll(np.eye(n), 1, axis=1) + 1e-3 * rng.normal(size=(n, n)) / n
        else:
            u, v = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
            a = u @ v.T
            a *= 0.99 / np.abs(np.linalg.eigvals(a)).max()
        sys = LinearSystem(a=a, b=np.zeros((n, 0)),
                           c=selection_matrix(rng.choice(n, m, replace=False), n), regime="free")
        rank, _ = observability_rank(sys)
        assert m <= rank <= n


# -- finite-horizon Gramian --


def test_gramian_horizon_one_is_ctc():
    sys = chain_system(cameras=(1,))
    assert np.array_equal(gramian(sys, 1), sys.c.T @ sys.c)


def test_chain_gramian_diagonal_is_all_ones():
    # shift matrix walks the camera row through e2, e1, e0
    w = gramian(chain_system(cameras=(2,)), 3)
    assert np.array_equal(w, np.eye(3))


def test_gramian_matches_stacked_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = random_system(rng, n=int(rng.integers(2, 12)), m=2)
        t = int(rng.integers(1, 15))
        obs = stacked_observability(sys, t)
        assert np.abs(gramian(sys, t) - obs.T @ obs).max() < 1e-9


def test_gramian_is_symmetric_psd_and_monotone():
    rng = np.random.default_rng(4)
    for _ in range(10):
        sys = random_system(rng, n=6, m=2)
        w5, w9 = gramian(sys, 5), gramian(sys, 9)
        assert np.array_equal(w5, w5.T)
        assert np.linalg.eigvalsh(w5).min() > -1e-12
        assert (np.diag(w9) >= np.diag(w5) - 1e-15).all()


def test_gramian_rejects_bad_horizon():
    with pytest.raises(ValueError, match="horizon"):
        gramian(chain_system(), 0)
    with pytest.raises(ValueError, match="horizon"):
        _gramian_diagonal(chain_system(), 0)


def test_gramian_diagonal_matches_dense_gramian():
    rng = np.random.default_rng(12)
    systems = [random_system(rng, n=int(rng.integers(2, 16)), m=2 if k % 3 else 1) for k in range(20)]
    for sys in [*systems, *twin_systems()]:
        for horizon in (1, 5, sys.n, 2 * sys.n):
            w = gramian(sys, horizon)
            assert np.abs(_gramian_diagonal(sys, horizon) - np.diag(w)).max() <= 1e-12 * max(1.0, np.abs(w).max())


# -- Lyapunov Gramian --


def test_scalar_lyapunov_fixed_point():
    sys = LinearSystem(a=np.array([[0.5]]), b=np.zeros((1, 0)),
                       c=np.array([[1.0]]), regime="free")
    w = lyapunov_gramian(sys, tol=1e-13)
    assert w[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_lyapunov_on_nilpotent_equals_finite_gramian():
    sys = chain_system(cameras=(2,))
    assert np.array_equal(lyapunov_gramian(sys), gramian(sys, 3))


def test_lyapunov_residual_is_small():
    rng = np.random.default_rng(9)
    sys = random_system(rng, n=7, m=3)
    w = lyapunov_gramian(sys, tol=1e-12)
    residual = sys.a.T @ w @ sys.a + sys.c.T @ sys.c - w
    assert np.abs(residual).max() < 1e-11


def test_lyapunov_rejects_marginally_stable_ring():
    # closed ring at full transfer permutes mass: spectral radius 1
    net = make_ring(5)
    sys = linearize(net, default_fd_params(net), "free", cameras=(0,))
    with pytest.raises(ValueError, match="spectral radius 1.0"):
        lyapunov_gramian(sys)


def test_observable_stable_system_has_positive_definite_gramian():
    rng = np.random.default_rng(21)
    sys = LinearSystem(
        a=rng.normal(size=(4, 4)) * 0.2, b=np.zeros((4, 0)),
        c=selection_matrix([0, 1, 2, 3], 4), regime="free",
    )
    assert np.linalg.eigvalsh(lyapunov_gramian(sys, tol=1e-13)).min() > 0


# -- scoring and reports --


def test_segment_scores_take_regime_maximum():
    g = {"free": np.array([1.0, 0.0, 0.2]), "congested": np.array([0.5, 4.0, 0.1])}
    obs, conf = segment_scores(g)
    assert np.array_equal(obs, [1.0, 4.0, 0.2])
    assert np.array_equal(conf, [0.25, 1.0, 0.05])


def test_all_zero_scores_warn_instead_of_dividing():
    with pytest.warns(UserWarning, match="no segment is observed"):
        obs, conf = segment_scores({"free": np.zeros(3)})
    assert np.array_equal(conf, np.zeros(3))


def test_segment_scores_reject_a_gramian_matrix():
    # np.diag of a diagonal would silently build a matrix instead
    with pytest.raises(ValueError, match="1-D"):
        segment_scores({"free": np.eye(3)})


def test_analyze_scales_past_the_dense_limit():
    # at 22 cameras the stacked 17,600 x 800 observability matrix alone is 112 MB
    net = make_network(mesh_edges(20, 40))
    rng = np.random.default_rng(8)
    cams = sorted(int(i) for i in rng.choice(net.n_segments, 22, replace=False))
    fd = default_fd_params(net)
    beta = TurnRatios.uniform(net)
    tracemalloc.start()
    try:
        report = analyze(net, fd, cams, beta=beta)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert net.n_segments == 800
    assert peak_mb < 32, f"analyze peaked at {peak_mb:.1f} MB"
    assert all(22 / 800 <= g <= 1.0 for g in report.gamma_rank.values())
    for i in rng.choice(net.n_segments, 8, replace=False):
        want = matvec_score(net, cams, int(i))
        assert report.obs[i] == pytest.approx(want, rel=1e-12, abs=0.0), int(i)


def test_uniform_turn_ratios_store_no_dense_matrix():
    net = make_network(mesh_edges(20, 40))
    tracemalloc.start()
    try:
        TurnRatios.uniform(net)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # one 800 x 800 float matrix alone is 4.9 MB
    assert peak_mb < 1, f"TurnRatios.uniform peaked at {peak_mb:.2f} MB"


def test_confidence_decays_with_hop_distance():
    # slow 1800 m segments leave half the perturbation behind each step,
    # so upstream influence fades with distance from the camera
    net = make_chain(6, vfree=1.0, length=1800.0)
    report = analyze(net, default_fd_params(net), cameras=(5,), regimes=("free",), horizon=12)
    assert report.conf[5] == 1.0
    assert (np.diff(report.conf) > 0).all()
    hops = np.arange(5, -1, -1)
    assert np.corrcoef(hops, report.conf)[0, 1] < -0.9


def test_analyze_chain_end_camera(chain3, tmp_path):
    report = analyze(chain3, default_fd_params(chain3), cameras=(2,))
    assert report.gamma_rank["free"] == 1.0
    assert report.gamma_rank["congested"] == pytest.approx(1 / 3)
    assert report.spectral_radius == {"free": 0.0, "congested": 0.0}
    assert report.horizon == 3
    assert np.array_equal(report.conf, np.ones(3))

    jpath, cpath = tmp_path / "obs.json", tmp_path / "conf.csv"
    report_to_json(report, chain3, str(jpath))
    report_to_csv(report, chain3, str(cpath))
    payload = json.loads(jpath.read_text())
    assert payload["cameras"] == ["s2"]
    assert payload["gamma_rank"]["free"] == 1.0
    assert payload["segments"]["s0"]["conf"] == 1.0
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["segment_id"] for r in rows] == ["s0", "s1", "s2"]
    assert all(float(r["conf"]) == 1.0 for r in rows)
