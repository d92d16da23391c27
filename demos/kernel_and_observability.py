"""Turn per-edge probe move counts into a flow kernel, then score camera placements."""

import datetime as dt

import numpy as np

from trafficfuse.ctm import default_fd_params, simulate
from trafficfuse.harness import GRID_CAMERAS, demand_profile, grid_network
from trafficfuse.network import CountMatrix
from trafficfuse.observability import analyze
from trafficfuse.propagation import build_transition, diffuse, localization_vectors
from trafficfuse.util import substream


def main():
    net, beta, sources = grid_network()
    fd = default_fd_params(net, 900)
    start = dt.datetime(2024, 3, 4)
    shell = CountMatrix(np.zeros((1, 96)), 900, start)
    sim = simulate(net, fd, beta, demand_profile(net, shell, sources, 700.0), 900, start)

    # pretend only a 10% probe fleet reports its edge moves
    totals = sim.link_flows.sum(axis=1)
    moves = substream(42, "trajectories").binomial(np.rint(totals).astype(np.int64), 0.1)
    flows = np.zeros((net.n_segments, net.n_segments))
    flows[beta.edge_from, beta.edge_to] = moves
    print(f"{len(moves)} edges, {flows.sum():.0f} observed moves")

    trans = build_transition(flows)
    moving = trans.p.sum(axis=1) > 0
    print(f"row-stochastic on {moving.sum()} of {net.n_segments} segments; "
          f"diffusion row sums max deviation "
          f"{np.abs(trans.w_eff.sum(axis=1) - 1.0).max():.1e}")

    cameras = GRID_CAMERAS["calibration"]
    loc = localization_vectors(trans, cameras)
    cam = cameras[1]  # segment 14, middle of the second row
    vec = loc[cam]
    order = np.argsort(vec)[::-1]
    near = ", ".join(f"{i}:{vec[i]:.2f}" for i in order[:5])
    print(f"camera {cam} influence (top 5): {near}")
    reached = np.vstack([np.zeros(net.n_segments), *loc.values()]).any(axis=0)
    far = np.flatnonzero(~reached).tolist()
    print(f"{len(far)} segments outside every camera footprint: {far}")

    # a constant field is a fixed point of the diffusion; a spike spreads
    const = np.full(net.n_segments, 0.3)
    assert np.array_equal(diffuse(const[None], trans)[0], const)
    spike = np.zeros(net.n_segments)
    spike[cam] = 1.0
    spread = diffuse(spike[None], trans)[0]
    print(f"diffused spike: kept {spread[cam]:.3f}, "
          f"sent {spread.sum() - spread[cam]:.3f} to {np.count_nonzero(spread) - 1} neighbors")

    rep = analyze(net, fd, cameras, beta=beta)
    print(f"gramian rank index by regime: {rep.gamma_rank}")
    blind = int((rep.conf == 0.0).sum())
    print(f"spread placement: mean confidence {rep.conf.mean():.3f}, {blind} blind segments")

    clustered = tuple(range(10, 15))  # five cameras bunched on one row
    rep2 = analyze(net, fd, clustered, beta=beta)
    blind2 = int((rep2.conf == 0.0).sum())
    print(f"clustered placement: mean confidence {rep2.conf.mean():.3f}, {blind2} blind segments")


if __name__ == "__main__":
    main()
