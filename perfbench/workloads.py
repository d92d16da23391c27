"""Seeded input generators for the benchmark workloads.

    python3 perfbench/workloads.py WORKLOAD SEED DIRECTORY

Each workload turns a seed into the files the program reads: an
experiment config JSON and, for the mesh workloads, a network directory
written with ``network.save_network``. Run as a script, this writes one
workload's inputs under DIRECTORY together with a manifest of their paths
(``inputs.json``); the runner times that process as the set-up.

The mesh is the benchmark's own generator, not ``harness.grid_network``:
loaded through ``network_path``, the program treats every boundary segment
without upstream neighbours as a demand source, so a large
``grid_network`` (whose connector at column 0 gives every western cell
but the first an upstream) would carry traffic only from cell (0, 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from trafficfuse.network import RoadNetwork, Segment, save_network

WORKLOADS = ("grid-twin", "city-mesh", "corridor-season", "placement")
MANIFEST = "inputs.json"

# Connectors start at column 2 so every western cell keeps an empty
# upstream set and enters demand, and every eastern cell keeps an empty
# downstream set and discharges.
MESH_CONNECTOR_EVERY = 3
MESH_CONNECTOR_FIRST = 2
MESH_BOTTLENECK_CAPACITY = 1700.0

CITY_ROWS, CITY_COLS = 10, 20
CITY_CALIBRATION_SHARE = 0.05
CITY_VALIDATION_SHARE = 0.04

PLACEMENT_ROWS, PLACEMENT_COLS = 10, 25
PLACEMENT_SETS = 3
PLACEMENT_CAMERAS = 22
PLACEMENT_CHECK_SEGMENTS = 8

# Run settings per pipeline workload. They are shortened from the sizes in
# README.md's workload notes so that several operations fit in one measured
# run.
PIPELINE_SETTINGS = {
    "grid-twin": {"twin": "grid", "days": 4, "forecast_days": 1, "train_steps": 50},
    "city-mesh": {"days": 2, "forecast_days": 1, "train_steps": 10, "bin_seconds": 3600},
    "corridor-season": {"twin": "chain", "days": 28, "forecast_days": 7, "train_steps": 100},
}


def mesh_network(rows: int, cols: int, bottleneck: tuple) -> RoadNetwork:
    """Eastbound rows linked southward every third column.

    Western cells are entries, eastern cells exits (both flagged as
    boundary), and one cell has reduced capacity so that peaks queue.
    """

    def sid(r, c):
        return r * cols + c

    flagged = {sid(r, 0) for r in range(rows)} | {sid(r, cols - 1) for r in range(rows)}
    segs = tuple(
        Segment(
            id=sid(r, c), length_m=500.0, lanes=2,
            capacity_vph=MESH_BOTTLENECK_CAPACITY if (r, c) == bottleneck else 3600.0,
            free_flow_mps=10.0, is_boundary=sid(r, c) in flagged,
        )
        for r in range(rows)
        for c in range(cols)
    )
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((sid(r, c), sid(r, c + 1)))
            if r + 1 < rows and c % MESH_CONNECTOR_EVERY == MESH_CONNECTOR_FIRST and c + 1 < cols:
                edges.append((sid(r, c), sid(r + 1, c)))
    names = tuple(f"m{r}_{c}" for r in range(rows) for c in range(cols))
    return RoadNetwork(segs, tuple(edges), names)


def _interior(rows: int, cols: int) -> np.ndarray:
    """Segments that are neither entries nor exits: where cameras may go."""
    return np.array([r * cols + c for r in range(rows) for c in range(1, cols - 1)])


def _bottleneck(rng: np.random.Generator, rows: int, cols: int) -> tuple:
    return int(rng.integers(1, rows - 1)), int(rng.integers(cols // 3, 2 * cols // 3))


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs."""

    directory: str
    config: str | None = None  # pipeline workloads
    network: str | None = None  # mesh workloads
    camera_sets: str | None = None  # placement
    check_segments: tuple = ()  # placement: segments checked against the oracle


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def generate(workload: str, seed: int, directory: str) -> Inputs:
    """Write one workload's inputs for a seed under directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    if workload == "placement":
        rows, cols = PLACEMENT_ROWS, PLACEMENT_COLS
        net_dir = os.path.join(directory, "network")
        save_network(mesh_network(rows, cols, _bottleneck(rng, rows, cols)), net_dir)
        interior = _interior(rows, cols)
        sets = [sorted(int(i) for i in rng.choice(interior, PLACEMENT_CAMERAS, replace=False))
                for _ in range(PLACEMENT_SETS)]
        sets_path = os.path.join(directory, "camera_sets.json")
        _write_json(sets_path, sets)
        check = tuple(sorted(int(i) for i in rng.choice(rows * cols, PLACEMENT_CHECK_SEGMENTS, replace=False)))
        return Inputs(directory, network=net_dir, camera_sets=sets_path, check_segments=check)

    settings = dict(PIPELINE_SETTINGS[workload])
    net_dir = None
    if workload == "city-mesh":
        net_dir = os.path.join(directory, "network")
        save_network(mesh_network(CITY_ROWS, CITY_COLS, _bottleneck(rng, CITY_ROWS, CITY_COLS)), net_dir)
        n = CITY_ROWS * CITY_COLS
        n_cal = round(CITY_CALIBRATION_SHARE * n)
        n_val = round(CITY_VALIDATION_SHARE * n)
        picked = rng.choice(_interior(CITY_ROWS, CITY_COLS), n_cal + n_val, replace=False)
        settings.update(
            twin=None, network_path=net_dir,
            cameras_calibration=sorted(int(i) for i in picked[:n_cal]),
            cameras_validation=sorted(int(i) for i in picked[n_cal:]),
        )
    settings["seed"] = seed
    cfg_path = os.path.join(directory, "config.json")
    _write_json(cfg_path, settings)
    return Inputs(directory, config=cfg_path, network=net_dir)


def load_manifest(directory: str) -> Inputs:
    """The Inputs that ``main`` recorded under directory."""
    with open(os.path.join(directory, MANIFEST)) as fh:
        fields = json.load(fh)
    fields["check_segments"] = tuple(fields["check_segments"])
    return Inputs(**fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one benchmark workload's inputs")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("directory")
    args = parser.parse_args(argv)
    inputs = generate(args.workload, args.seed, args.directory)
    _write_json(os.path.join(args.directory, MANIFEST), dataclasses.asdict(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
