"""Kinematics: FD maps, stepping, conservation, and a per-vehicle oracle.

Expected values are frozen from hand arithmetic next to each assertion;
the chain-advection expectations come from an independent per-vehicle
FIFO simulator defined below.
"""

import datetime as dt
from collections import deque

import numpy as np
import pytest

from trafficfuse import ctm
from trafficfuse.ctm import (
    FdArrays,
    FdParams,
    TrafficState,
    TurnRatios,
    default_fd_params,
    demand,
    density_from_speed,
    simulate,
    supply,
)
from trafficfuse.features import build_tensor
from trafficfuse.network import CountMatrix, Segment, max_storage

from conftest import make_chain, make_network, make_ring

T0 = dt.datetime(2024, 1, 1)
BIN = 900.0

# Segment with Q_max = 1800 / 3600 * 900 = 450 veh/bin and jam pseudo-density
# 1.0 * 500 * 2 / 10 = 100; fd threshold ratio 7 / 10 = 0.7.
SEG = Segment(id=0, length_m=500.0, lanes=2, capacity_vph=1800.0, free_flow_mps=10.0)
FD = FdParams(wave_speed=4.0, jam_density=1.0, crit_speed=7.0)
FDK = FdArrays.build((SEG,), FD, BIN)


def test_density_from_speed_free_branch_value():
    # (450 / 10) * (1 - 0.8) * 10 / (10 - 4) = 15
    assert density_from_speed(0.8, SEG, FD, BIN) == pytest.approx(15.0, rel=1e-12)


def test_density_from_speed_congested_branch_value():
    # below threshold 0.7: rho = rho_jam * (1 - b) = 100 * 0.7 = 70
    assert density_from_speed(0.3, SEG, FD, BIN) == pytest.approx(70.0, rel=1e-12)


def test_density_extremes():
    assert density_from_speed(1.0, SEG, FD, BIN) == 0.0
    # b = 0 lands on the congested branch at exactly the jam density
    assert density_from_speed(0.0, SEG, FD, BIN) == 100.0
    with pytest.raises(ValueError):
        density_from_speed(1.5, SEG, FD, BIN)


def test_demand_value_and_extremes():
    # min(15 * 10, 450) = 150
    assert demand(15.0, SEG, FD, BIN) == pytest.approx(150.0, rel=1e-12)
    assert demand(0.0, SEG, FD, BIN) == 0.0  # b = 1 implies rho = 0
    assert demand(80.0, SEG, FD, BIN) == 450.0  # capped at Q_max


def test_supply_value_and_floor():
    # min(4 * (100 - 15), 450) = 340
    assert supply(15.0, SEG, FD, BIN) == pytest.approx(340.0, rel=1e-12)
    assert supply(100.0, SEG, FD, BIN) == 0.0  # at jam
    assert supply(130.0, SEG, FD, BIN) == 0.0  # beyond jam floors at 0
    assert supply(0.0, SEG, FD, BIN) == 400.0  # min(4 * 100, 450)


def test_link_flow_value():
    # segment 0 splits 3:1 onto two sinks; the per-edge flow is min(D beta, S beta)
    net = make_network([(0, 1), (0, 2)])
    tr = TurnRatios([0.75, 0.25], net)
    e01 = net.edges.index((0, 1))

    def first_flow(counts):
        st = TrafficState.create(counts, np.full(3, 10.0), net)
        return simulate(net, FD, tr, np.zeros((3, 1)), BIN, T0, initial=st).link_flows[e01, 0]

    # D_0 = 150 and S_1 = 4 * (100 - 15) = 340: min(150 * 0.75, 340 * 0.75) = 112.5
    assert first_flow([150.0, 150.0, 0.0]) == pytest.approx(112.5, rel=1e-12)
    # S_1 = 4 * (100 - 90) = 40 binds: min(150 * 0.75, 40 * 0.75) = 30
    assert first_flow([150.0, 900.0, 0.0]) == pytest.approx(30.0, rel=1e-12)


def test_fd_discontinuity_magnitude():
    # free side at threshold: 450 * 0.3 / 6 = 22.5; congested side: 100 * 0.3 = 30
    free_side, cong_side = FDK.branch_densities(FDK.b_crit)
    assert free_side[0] == pytest.approx(22.5, rel=1e-12)
    assert cong_side[0] == pytest.approx(30.0, rel=1e-12)
    assert abs(free_side - cong_side)[0] == pytest.approx(7.5, rel=1e-12)


@pytest.mark.parametrize("b", [0.72, 0.8, 0.95, 1.0])
def test_speed_density_roundtrip_free_branch(b):
    rho = FDK.density(b)
    assert FDK.ratio(rho)[0] == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("b", [0.0, 0.2, 0.45, 0.65])
def test_speed_density_roundtrip_congested_branch(b):
    rho = FDK.density(b)
    assert FDK.ratio(rho)[0] == pytest.approx(b, abs=1e-9)


def test_fd_validation_against_network():
    net = make_chain(3, vfree=10.0)
    with pytest.raises(ValueError, match=r"^segment 0: fd speeds must stay below free flow 10\.0$"):
        FdArrays.build(net.segments, FdParams(wave_speed=11.0, jam_density=1.0, crit_speed=7.0), BIN)
    with pytest.raises(ValueError, match=r"^segment 0: fd speeds must stay below free flow 10\.0$"):
        FdArrays.build(net.segments, FdParams(wave_speed=2.0, jam_density=1.0, crit_speed=10.0), BIN)
    with pytest.raises(ValueError):
        FdParams(wave_speed=0.0, jam_density=1.0, crit_speed=1.0)


@pytest.mark.parametrize("entry", ["simulate", "build_tensor"])
def test_fd_speeds_above_a_segments_free_flow_fail_naming_it(entry):
    # FdArrays.build checks the rule once per call, per segment
    net = make_chain(3, vfree=[10.0, 10.0, 5.0], boundary=(0, 2))
    fd = FdParams(wave_speed=2.0, jam_density=1.0, crit_speed=7.0)
    with pytest.raises(ValueError, match=r"^segment 2: fd speeds must stay below free flow 5\.0$"):
        if entry == "simulate":
            simulate(net, fd, TurnRatios.uniform(net), np.zeros((3, 4)), BIN, T0)
        else:
            build_tensor(net, fd, CountMatrix(np.ones((3, 4)), 900, T0), np.full((3, 4), 8.0), train_cols=4)


def test_default_fd_params_supply_reaches_capacity():
    net = make_network([(0, 1), (1, 2)], capacity=[1800.0, 3600.0, 900.0], vfree=10.0)
    fd = default_fd_params(net, BIN)
    FdArrays.build(net.segments, fd, BIN)
    for s in net.segments:
        at_zero = supply(0.0, s, fd, BIN)
        assert at_zero == pytest.approx(max_storage(s, BIN), rel=1e-12)


def test_turn_ratios_validation():
    net = make_network([(0, 1), (0, 2)])
    TurnRatios([0.5, 0.5], net)  # valid
    with pytest.raises(ValueError, match="sum to"):
        TurnRatios([0.5, 0.4], net)
    with pytest.raises(ValueError, match="one share per edge"):
        TurnRatios([0.5, 0.5, 0.0], net)
    with pytest.raises(ValueError, match="nonneg"):
        TurnRatios([1.5, -0.5], net)
    # nan < 0 and abs(nan - 1) > tol are both False, so NaN needs its own check
    with pytest.raises(ValueError, match="finite"):
        TurnRatios([np.nan, 0.5], net)


def test_uniform_turn_ratios():
    net = make_network([(0, 1), (0, 2), (2, 1)])
    tr = TurnRatios.uniform(net)
    assert tr.edge_from.tolist() == [0, 0, 2]
    assert tr.edge_to.tolist() == [1, 2, 1]
    assert tr.edge_beta.tolist() == [0.5, 0.5, 1.0]


def test_state_speed_clipping_diagnostic():
    # a state keeps only its counts; speeds are shape-checked, never stored
    net = make_chain(3, vfree=10.0)
    st = TrafficState.create([1.0, 2.0, 3.0], [12.0, -1.0, 5.0], net)
    assert np.array_equal(st.counts, [1.0, 2.0, 3.0])
    assert not hasattr(st, "speeds")
    with pytest.raises(ValueError, match="one entry per segment"):
        TrafficState.create([1.0, 2.0, 3.0], [10.0, 10.0], net)
    with pytest.raises(ValueError, match="nonnegative"):
        TrafficState.create([-1.0, 0.0, 0.0], [1.0, 1.0, 1.0], net)


def _one_step_profile(injection):
    # inject during bin 0; bin 1 opens on the resulting occupancy
    profile = np.zeros((len(injection), 2))
    profile[:, 0] = injection
    return profile


def test_step_injects_into_empty_network():
    net = make_chain(3)
    fd = default_fd_params(net, BIN)
    res = simulate(net, fd, TurnRatios.uniform(net), _one_step_profile([5.0, 0, 0]), BIN, T0)
    assert res.counts.values[:, 0].sum() == 0.0
    assert res.counts.values[:, 1].sum() == 5.0
    assert np.array_equal(res.counts.values[:, 1], [5.0, 0.0, 0.0])


def test_step_rejects_off_boundary_injection():
    net = make_chain(3)  # boundary is {0, 2} by the degree rule
    fd = default_fd_params(net, BIN)
    tr = TurnRatios.uniform(net)
    with pytest.raises(ValueError, match="boundary"):
        simulate(net, fd, tr, _one_step_profile([0, 5.0, 0]), BIN, T0)
    with pytest.raises(ValueError, match="nonneg"):
        simulate(net, fd, tr, _one_step_profile([-1.0, 0, 0]), BIN, T0)


def test_ring_conserves_mass():
    net = make_ring(10)
    fd = default_fd_params(net, BIN)
    rng = np.random.default_rng(7)
    st = TrafficState.create(rng.uniform(0, 1600, 10), np.full(10, 10.0), net)
    total = st.counts.sum()
    res = simulate(net, fd, TurnRatios.uniform(net), np.zeros((10, 101)), BIN, T0, initial=st)
    counts = res.counts.values  # bin 100 opens on the state after 100 steps
    assert np.all(np.abs(counts.sum(axis=0) - total) <= 1e-9 * total)
    assert (counts >= 0).all()
    assert not res.boundary_out.any()  # a ring has no sink to discharge through


def vehicle_oracle(qmax, horizon, inflow0):
    """Per-vehicle FIFO chain simulator.

    Vehicles hop one segment per bin; the number crossing edge i -> i+1
    during a bin is limited by both segments' per-bin caps, evaluated on
    start-of-bin occupancies. Arrivals join segment 0 at the end of the
    bin. Returns occupancy at each bin start, shape (n, horizon).
    """
    n = len(qmax)
    queues = [deque() for _ in range(n)]
    hist = np.zeros((n, horizon))
    vid = 0
    for t in range(horizon):
        hist[:, t] = [len(qu) for qu in queues]
        slots = []
        for i in range(n):
            cap_out = min(len(queues[i]), qmax[i])
            cap_in = qmax[i + 1] if i + 1 < n else cap_out
            slots.append(min(cap_out, cap_in))
        for i in reversed(range(n)):
            for _ in range(slots[i]):
                v = queues[i].popleft()
                if i + 1 < n:
                    queues[i + 1].append(v)
        for _ in range(inflow0[t]):
            queues[0].append(vid)
            vid += 1
    return hist


def test_a_merge_listed_in_two_orders_simulates_identically():
    # three sources merge into segment 3; the network sorts its edges, so
    # segment 3's inflow adds the same terms in the same order either way
    listing = [(0, 3), (1, 3), (2, 3), (3, 4)]
    profile = np.zeros((5, 120))
    profile[:3] = np.random.default_rng(5).uniform(0.0, 200.0, size=(3, 120))
    fd = FdParams(wave_speed=4.0, jam_density=1.0, crit_speed=7.0)
    runs = []
    for edges in (listing, [listing[k] for k in (3, 2, 0, 1)]):
        net = make_network(edges, capacity=[1800.0, 1800.0, 1800.0, 3600.0, 3600.0])
        runs.append(simulate(net, fd, TurnRatios.uniform(net), profile, BIN, T0))
    assert np.array_equal(runs[0].counts.values, runs[1].counts.values)
    assert np.array_equal(runs[0].link_flows, runs[1].link_flows)


def _chain_sim(capacity, inflow, horizon):
    n = len(capacity)
    net = make_chain(n, capacity=capacity)
    # huge jam density so entry is only ever capacity-limited
    fd = FdParams(wave_speed=4.0, jam_density=50.0, crit_speed=7.0)
    profile = np.zeros((n, horizon))
    profile[0, :] = inflow
    return net, simulate(net, fd, TurnRatios.uniform(net), profile, BIN, T0)


def test_chain_advection_matches_vehicle_oracle():
    horizon = 12
    inflow = [10, 0, 0, 7, 7, 0, 0, 0, 3, 0, 0, 0]
    net, res = _chain_sim([1800.0, 1800.0, 1800.0], inflow, horizon)
    qmax = [int(max_storage(s, BIN)) for s in net.segments]
    expect = vehicle_oracle(qmax, horizon, inflow)
    assert np.array_equal(res.counts.values, expect)


def test_bottleneck_queue_matches_vehicle_oracle():
    # middle segment passes 2 veh/bin (capacity 8 veh/hr * 900 s = 2)
    horizon = 25
    inflow = [3] * horizon
    net, res = _chain_sim([1800.0, 8.0, 1800.0], inflow, horizon)
    qmax = [int(max_storage(s, BIN)) for s in net.segments]
    expect = vehicle_oracle(qmax, horizon, inflow)
    assert np.array_equal(res.counts.values, expect)


def test_bottleneck_slows_upstream_speeds():
    horizon = 40
    net, res = _chain_sim([1800.0, 8.0, 1800.0], [3] * horizon, horizon)
    b0 = res.speed_ratios(net)[0]
    # queue grows upstream of the bottleneck: b is eventually strictly below 1
    # and never recovers
    assert b0[-1] < 1.0
    settled = b0[5:]
    assert np.all(np.diff(settled) <= 1e-12)
    # queue equals cumulative inflow minus cumulative outflow over the edge
    e01 = net.edges.index((0, 1))
    cum_in = np.cumsum(res.boundary_in[0])
    cum_out = np.cumsum(res.link_flows[e01])
    assert np.allclose(res.counts.values[0, 1:], (cum_in - cum_out)[:-1], atol=1e-9)


def test_subcapacity_chain_reaches_free_flow_fixed_point():
    horizon = 30
    net, res = _chain_sim([1800.0, 1800.0, 1800.0, 1800.0], [45] * horizon, horizon)
    b = res.speed_ratios(net)
    # everything offered is served every bin, so the residual is empty and
    # the recovered speed is exactly free flow
    assert np.allclose(b[:, 10:], 1.0, atol=1e-12)
    # occupancy settles at the per-bin throughput
    assert np.allclose(res.counts.values[:, 10:], 45.0, atol=1e-9)


def test_zero_demand_yields_zero_counts():
    net = make_chain(3)
    fd = default_fd_params(net, BIN)
    res = simulate(net, fd, TurnRatios.uniform(net), np.zeros((3, 10)), BIN, T0)
    assert np.array_equal(res.counts.values, np.zeros((3, 10)))
    assert np.allclose(res.speeds, net.free_flow()[:, None])


def test_simulate_rejects_bad_profile():
    net = make_chain(3)
    fd = default_fd_params(net, BIN)
    tr = TurnRatios.uniform(net)
    with pytest.raises(ValueError):
        simulate(net, fd, tr, np.zeros((2, 5)), BIN, T0)
    bad = np.zeros((3, 5))
    bad[1, 0] = 1.0  # interior segment
    with pytest.raises(ValueError, match="boundary"):
        simulate(net, fd, tr, bad, BIN, T0)
    bad2 = np.zeros((3, 5))
    bad2[0, 0] = -1.0
    with pytest.raises(ValueError, match="nonneg"):
        simulate(net, fd, tr, bad2, BIN, T0)


def test_mass_balance_violation_raises_with_bin_and_drift(monkeypatch):
    net = make_chain(3)
    fd = default_fd_params(net, BIN)
    real = ctm._step_kernel

    def leaky(*args):
        q_next, *rest = real(*args)
        q_next = q_next.copy()
        q_next[0] -= 1.0  # one vehicle vanishes
        return (q_next, *rest)

    monkeypatch.setattr(ctm, "_step_kernel", leaky)
    profile = np.zeros((3, 4))
    profile[0, :] = 10.0
    with pytest.raises(RuntimeError, match=r"bin 0: drift 1\.0"):
        simulate(net, fd, TurnRatios.uniform(net), profile, BIN, T0)
