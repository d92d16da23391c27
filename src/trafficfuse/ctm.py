"""Cell-transmission kinematics on a segment network.

Units convention. Flows and storages are vehicles per bin; Q_max for a
segment over a bin is capacity_vph * dt / 3600. The density here is a
per-segment aggregate pseudo-density rho with units count / speed, so
that rho * v_free carries vehicle units; the jam value for segment i is
jam_density * length_m * lanes / free_flow_mps. The speed-to-density map
is piecewise in the speed ratio b = v / v_free and is discontinuous at
the branch threshold b = v_crit / v_free for general parameters.

All functions are pure; the simulator threads an explicit state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BIN_SECONDS, CountMatrix, RoadNetwork, Segment, boundary_segments, max_storage

__all__ = [
    "FdParams",
    "FdArrays",
    "TurnRatios",
    "TrafficState",
    "SimulationResult",
    "default_fd_params",
    "density_from_speed",
    "demand",
    "supply",
    "simulate",
]

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FdParams:
    """Triangular fundamental-diagram parameters shared by the network.

    wave_speed is the congestion wave speed v_w (m/s), jam_density is per
    lane-metre (veh/m), crit_speed is the free/congested branch threshold
    speed v_crit (m/s). Both speeds must stay below every segment's free
    flow speed: FdArrays.build checks that, naming the first segment that
    fails.
    """

    wave_speed: float
    jam_density: float
    crit_speed: float

    def __post_init__(self):
        if self.wave_speed <= 0 or self.jam_density <= 0 or self.crit_speed <= 0:
            raise ValueError("FdParams fields must be positive")

    def jam_pseudo(self, seg: Segment) -> float:
        """Aggregate jam pseudo-density of one segment (count / speed units)."""
        return self.jam_density * seg.length_m * seg.lanes / seg.free_flow_mps


def default_fd_params(net: RoadNetwork, bin_seconds: float = BIN_SECONDS) -> FdParams:
    """Network-calibrated defaults.

    wave_speed = 0.25 * min free-flow speed, crit_speed = 0.7 * min free-flow
    speed, and jam_density large enough that supply at zero density reaches
    Q_max on every segment (both min-branches of the supply curve stay
    reachable).
    """
    vmin = min(s.free_flow_mps for s in net.segments)
    v_w = 0.25 * vmin
    need = max(
        max_storage(s, bin_seconds) * s.free_flow_mps / (v_w * s.length_m * s.lanes)
        for s in net.segments
    )
    return FdParams(wave_speed=v_w, jam_density=need, crit_speed=0.7 * vmin)


class TurnRatios:
    """Edge split fractions: edge_beta[k] is the share of segment i's outflow
    sent to j over edge k = (i, j) of net.edges, which the network keeps
    sorted by (from, to): that may differ from the order the edges were
    given in.

    Shares are finite and nonnegative, and each segment's outgoing shares
    sum to 1 within ROW_SUM_TOL.
    """

    def __init__(self, edge_beta, net: RoadNetwork):
        b = np.array(edge_beta, dtype=float)
        if b.shape != (len(net.edges),):
            raise ValueError(f"turn ratios must be one share per edge, shape ({len(net.edges)},)")
        if not np.isfinite(b).all():
            raise ValueError("turn ratios must be finite")
        if (b < 0).any():
            raise ValueError("turn ratios must be nonnegative")
        self.edge_from = net.edge_from
        self.edge_to = net.edge_to
        self.edge_beta = b
        sums = np.bincount(self.edge_from, weights=b, minlength=net.n_segments)
        bad = np.flatnonzero((net.out_degree > 0) & (np.abs(sums - 1.0) > ROW_SUM_TOL))
        if bad.size:
            i = bad[0]
            raise ValueError(f"turn ratios out of segment {i} sum to {sums[i]!r}, not 1")

    @classmethod
    def uniform(cls, net: RoadNetwork) -> "TurnRatios":
        """Equal split over each segment's downstream neighbours."""
        return cls(1.0 / net.out_degree[net.edge_from], net)


@dataclass(frozen=True)
class TrafficState:
    """Counts at one time index: the initial state simulate() starts from.

    create() still takes one speed per segment and checks its shape, but
    keeps no speeds: simulate() derives speeds from the counts.
    """

    counts: np.ndarray

    @classmethod
    def create(cls, counts, speeds, net: RoadNetwork) -> "TrafficState":
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (net.n_segments,) or np.shape(speeds) != (net.n_segments,):
            raise ValueError("state arrays must have one entry per segment")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        return cls(counts=counts)


@dataclass(frozen=True)
class FdArrays:
    """The triangular FD of Daganzo (1994) over per-segment parameter arrays.

    Every FD map in the package evaluates these methods: the scalar API
    below, the stepping kernel and the feature build. Built once per
    (segments, FdParams, bin width); the methods broadcast over arrays
    whose last axis runs over the segments. build is the one place the
    FD speeds are checked against each segment's free flow speed, so
    linearize reads its speeds from here too.
    """

    qmax: np.ndarray
    v_free: np.ndarray
    v_w: float
    rho_jam: np.ndarray
    b_crit: np.ndarray

    @classmethod
    def build(cls, segments, fd: FdParams, bin_seconds: float) -> "FdArrays":
        qmax = np.array([max_storage(s, bin_seconds) for s in segments])
        for seg in segments:
            vf = seg.free_flow_mps
            if fd.wave_speed >= vf or fd.crit_speed >= vf:
                raise ValueError(f"segment {seg.id}: fd speeds must stay below free flow {vf}")
        v_free = np.array([s.free_flow_mps for s in segments])
        rho_jam = np.array([fd.jam_pseudo(s) for s in segments])
        return cls(qmax, v_free, fd.wave_speed, rho_jam, fd.crit_speed / v_free)

    def branch_densities(self, b):
        """(free-branch, congested-branch) pseudo-density at speed ratio b."""
        vf = self.v_free
        return (self.qmax / vf) * (1.0 - b) * vf / (vf - self.v_w), self.rho_jam * (1.0 - b)

    def density(self, b):
        free, congested = self.branch_densities(b)
        return np.where(b >= self.b_crit, free, congested)

    def ratio(self, rho):
        """Branch-wise inverse of density: the speed ratio b."""
        b_free = 1.0 - rho * (self.v_free - self.v_w) / self.qmax
        b_cong = np.clip(1.0 - rho / self.rho_jam, 0.0, 1.0)
        return np.where(b_free >= self.b_crit, np.minimum(b_free, 1.0), b_cong)

    def demand(self, rho):
        return np.minimum(rho * self.v_free, self.qmax)

    def supply(self, rho):
        return np.maximum(0.0, np.minimum(self.v_w * (self.rho_jam - rho), self.qmax))


def density_from_speed(b: float, seg: Segment, fd: FdParams, bin_seconds: float) -> float:
    """Pseudo-density from a speed ratio, piecewise at b = v_crit / v_free.

    Free branch (b at or above the threshold): rho = (Q_max / v_free)
    * (1 - b) * v_free / (v_free - v_w). Congested branch: rho =
    rho_jam * (1 - b).
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"speed ratio {b} outside [0, 1]")
    return float(FdArrays.build((seg,), fd, bin_seconds).density(b)[0])


def demand(rho: float, seg: Segment, fd: FdParams, bin_seconds: float) -> float:
    """Vehicles segment i offers downstream this bin: min(rho v_free, Q_max)."""
    return float(FdArrays.build((seg,), fd, bin_seconds).demand(rho)[0])


def supply(rho: float, seg: Segment, fd: FdParams, bin_seconds: float) -> float:
    """Vehicles segment j can absorb this bin: min(v_w (rho_jam - rho), Q_max), floored at 0."""
    return float(FdArrays.build((seg,), fd, bin_seconds).supply(rho)[0])


def _step_kernel(q, fdk: FdArrays, sink, beta, bc_in):
    """Advance counts by one bin; returns (q_next, speeds, link_flows, exits).

    Per-edge flow is min(D_i beta_ij, S_j beta_ij); total link outflow of a
    segment is additionally capped at its current count. Segments with no
    downstream edges discharge their demand out of the network. Emitted
    speeds invert the density map on the residual (unserved) vehicles, so
    unimpeded flow reports free flow exactly.
    """
    n = len(q)
    vf = fdk.v_free
    rho = q / vf
    dem = fdk.demand(rho)
    sup = fdk.supply(rho)

    # the network's int edge arrays index and bincount fine when empty
    ef, et, eb = beta.edge_from, beta.edge_to, beta.edge_beta
    flows = np.minimum(dem[ef] * eb, sup[et] * eb)
    out_sum = np.bincount(ef, weights=flows, minlength=n)
    # no segment emits more than it holds
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(out_sum > q, np.where(out_sum > 0, q / out_sum, 1.0), 1.0)
    flows = flows * scale[ef]
    out_sum = np.bincount(ef, weights=flows, minlength=n)
    in_sum = np.bincount(et, weights=flows, minlength=n)

    # implicit discharge at sink segments
    exit_out = np.minimum(np.where(sink, dem, 0.0), np.maximum(q - out_sum, 0.0))

    q_next = np.maximum(q + in_sum - out_sum + bc_in - exit_out, 0.0)
    residual = np.maximum(q - out_sum - exit_out, 0.0)
    speeds = fdk.ratio(residual / vf) * vf
    return q_next, speeds, flows, exit_out


@dataclass
class SimulationResult:
    """Per-bin trajectory emitted by simulate.

    counts[i, t] is the occupancy of segment i at the start of bin t;
    speeds[i, t] the FD-consistent speed during bin t; boundary_in /
    boundary_out the realized boundary exchanges during bin t;
    link_flows[k, t] the flow over edge k during bin t.
    """

    counts: CountMatrix
    speeds: np.ndarray
    boundary_in: np.ndarray
    boundary_out: np.ndarray
    link_flows: np.ndarray

    def speed_ratios(self, net: RoadNetwork) -> np.ndarray:
        return self.speeds / net.free_flow()[:, None]


def simulate(
    net: RoadNetwork,
    fd: FdParams,
    beta: TurnRatios,
    demand_profile: np.ndarray,
    bin_seconds: float,
    start_time,
    initial: TrafficState | None = None,
) -> SimulationResult:
    """Step the network over a boundary demand profile.

    demand_profile has shape (n_segments, n_bins), is nonnegative and must
    be supported on boundary segments. Mass balance is checked every step:
    the change in total count equals net boundary exchange to within 1e-9
    of scale, or RuntimeError names the bin and the drift.
    """
    n = net.n_segments
    profile = np.asarray(demand_profile, dtype=float)
    if profile.ndim != 2 or profile.shape[0] != n:
        raise ValueError("demand profile must be (n_segments, n_bins)")
    if (profile < 0).any():
        raise ValueError("demand profile must be nonnegative")
    bset = set(boundary_segments(net))
    bad = [int(i) for i in np.nonzero(profile.max(axis=1))[0] if int(i) not in bset]
    if bad:
        raise ValueError(f"demand profile supported off the boundary set at segments {bad}")
    horizon = profile.shape[1]
    counts = np.zeros((n, horizon))
    speeds = np.zeros((n, horizon))
    bc_out_hist = np.zeros((n, horizon))
    flow_hist = np.zeros((len(net.edges), horizon))
    fdk = FdArrays.build(net.segments, fd, bin_seconds)
    sink = net.out_degree == 0
    q = np.zeros(n) if initial is None else initial.counts.copy()
    for t in range(horizon):
        counts[:, t] = q
        before = q.sum()
        q_next, spd, flows, bc_out = _step_kernel(q, fdk, sink, beta, profile[:, t])
        drift = float(abs(q_next.sum() - before - profile[:, t].sum() + bc_out.sum()))
        if drift > 1e-9 * max(1.0, before + profile[:, t].sum()):
            raise RuntimeError(f"mass balance violated in bin {t}: drift {drift!r} vehicles")
        speeds[:, t] = spd
        bc_out_hist[:, t] = bc_out
        flow_hist[:, t] = flows
        q = q_next
    cm = CountMatrix(counts, int(bin_seconds), start_time)
    return SimulationResult(
        counts=cm,
        speeds=speeds,
        boundary_in=profile.copy(),
        boundary_out=bc_out_hist,
        link_flows=flow_hist,
    )
