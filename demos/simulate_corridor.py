"""Roll the traffic model over the built-in grid and watch the bottleneck queue."""

import datetime as dt

import numpy as np

from trafficfuse.ctm import default_fd_params, simulate
from trafficfuse.harness import demand_profile, grid_network
from trafficfuse.network import CountMatrix


def main():
    net, beta, sources = grid_network()
    fd = default_fd_params(net, 900)
    start = dt.datetime(2024, 3, 4)  # a Monday
    n_bins = 2 * 96  # two days of 15-minute bins

    shell = CountMatrix(np.zeros((1, n_bins)), 900, start)
    profile = demand_profile(net, shell, sources, peak=700.0)
    sim = simulate(net, fd, beta, profile, 900, start)

    counts = sim.counts.values
    entered = sim.boundary_in.sum()
    left = sim.boundary_out.sum()
    # counts[:, t] is the occupancy when bin t opens, so the post-run total
    # still owes the last bin's boundary exchange
    end_total = counts[:, -1].sum() + sim.boundary_in[:, -1].sum() - sim.boundary_out[:, -1].sum()
    print(f"{net.n_segments} segments, {n_bins} bins")
    print(f"vehicles in {entered:.0f}, out {left:.0f}, on network at end {end_total:.0f}")
    print(f"conservation residual {entered - left - end_total + counts[:, 0].sum():.2e}")

    # the reduced-capacity cell at (2,5) backs traffic up into segment 24
    feeder = counts[24]
    peak_bin = int(feeder.argmax())
    print(f"bottleneck feeder peaks at {feeder.max():.0f} vehicles "
          f"({sim.counts.bin_start(peak_bin):%a %H:%M})")

    ratios = sim.speed_ratios(net)
    print(f"speed ratio at the feeder: min {ratios[24].min():.2f}, "
          f"median {np.median(ratios[24]):.2f}")


if __name__ == "__main__":
    main()
