"""Per-segment, per-bin feature vectors for the graph predictor.

Each segment/bin pair yields a 22-entry vector laid out as

    [q_traj | temporal(7) | q_boundary | speed-density(9) | spatial(4)]

Indicator entries are exactly 0 or 1 and are never normalized; all other
entries get per-feature mean/scale statistics computed over the training
columns only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctm import FdArrays, FdParams
from .network import CountMatrix, RoadNetwork, boundary_segments

__all__ = [
    "FEATURE_NAMES",
    "INDICATOR_FEATURES",
    "FeatureTensor",
    "temporal_features",
    "build_tensor",
]

FEATURE_NAMES = (
    "q_traj",
    "hour_sin",
    "hour_cos",
    "day_sin",
    "day_cos",
    "is_weekend",
    "is_rush",
    "is_night",
    "q_boundary",
    "b",
    "b_complement",
    "demand_ratio",
    "supply_ratio",
    "volume_ratio",
    "los",
    "is_congested",
    "is_near_capacity",
    "q_rel_max",
    "b_downstream",
    "b_downstream_gap",
    "b_upstream",
    "b_upstream_gap",
)

INDICATOR_FEATURES = ("is_weekend", "is_rush", "is_night", "is_congested", "is_near_capacity")

# calendar policy: Monday is day 0
WEEKEND_DAYS = frozenset({5, 6})
RUSH_HOURS = frozenset({7, 8, 9, 16, 17, 18})
NIGHT_HOURS = frozenset({22, 23, 0, 1, 2, 3, 4, 5})

_LOS_THRESHOLDS = np.array([0.35, 0.55, 0.75, 0.9, 1.0])
_LOS_VALUES = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


def temporal_features(hour: int, day: int) -> np.ndarray:
    """Cyclic hour/day encodings plus weekend, rush and night indicators."""
    if not 0 <= hour <= 23:
        raise ValueError(f"hour {hour} outside [0, 23]")
    if not 0 <= day <= 6:
        raise ValueError(f"day {day} outside [0, 6]")
    return np.array(
        [
            np.sin(2.0 * np.pi * hour / 24.0),
            np.cos(2.0 * np.pi * hour / 24.0),
            np.sin(2.0 * np.pi * day / 7.0),
            np.cos(2.0 * np.pi * day / 7.0),
            float(day in WEEKEND_DAYS),
            float(hour in RUSH_HOURS),
            float(hour in NIGHT_HOURS),
        ]
    )


@dataclass
class FeatureTensor:
    """Raw feature values plus the statistics that normalize them.

    values has shape (n_segments, n_bins, 22) and is kept unnormalized;
    normalized() applies mean and scale, which come from the training
    columns only. n_imputed_speed and n_imputed_count count the missing
    inputs that build_tensor filled in.
    """

    values: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    n_imputed_speed: int = 0
    n_imputed_count: int = 0

    def normalized(self) -> np.ndarray:
        return (self.values - self.mean) / self.scale


def build_tensor(
    net: RoadNetwork,
    fd: FdParams,
    counts: CountMatrix,
    speeds: np.ndarray,
    boundary_in: np.ndarray | None = None,
    boundary_out: np.ndarray | None = None,
    *,
    train_cols: int,
) -> FeatureTensor:
    """Assemble the (n_segments, n_bins, 22) tensor from aligned inputs.

    speeds is in m/s with NaN for missing bins; missing speeds impute free
    flow (b = 1) and missing counts impute 0, both counted on the result.
    The first train_cols columns give n_max and the normalization
    statistics. The neighbour means sum over net's edges in their
    (from, to) order, so in ascending neighbour id.
    """
    n, t = counts.values.shape
    if not 0 < train_cols <= t:
        raise ValueError("train_cols must lie in (0, n_bins]")

    q = counts.values.copy()
    n_imp_count = int(np.isnan(q).sum())
    q[np.isnan(q)] = 0.0

    fdk = FdArrays.build(net.segments, fd, counts.bin_seconds)
    vf = fdk.v_free[:, None]
    speeds = np.asarray(speeds, dtype=float)
    if speeds.shape != (n, t):
        raise ValueError("speeds must align with counts")
    n_imp_speed = int(np.isnan(speeds).sum())
    b = np.clip(np.where(np.isnan(speeds), vf, speeds) / vf, 0.0, 1.0)

    # the FD methods broadcast over a trailing segment axis
    rho = fdk.density(b.T)
    qmax = fdk.qmax[:, None]
    dem = fdk.demand(rho).T
    sup = fdk.supply(rho).T
    vc = q / qmax
    los = _LOS_VALUES[np.searchsorted(_LOS_THRESHOLDS, vc, side="right")]

    n_max = np.maximum(q[:, :train_cols].max(axis=1), 1.0)

    # one row per (hour, day) pair, looked up per bin
    table = np.array([[temporal_features(h, d) for d in range(7)] for h in range(24)])
    temp = table[counts.hours(), counts.days()]  # (t, 7)

    bset = boundary_segments(net)
    q_bc = np.zeros((n, t))
    if boundary_in is not None or boundary_out is not None:
        bi = np.zeros((n, t)) if boundary_in is None else np.asarray(boundary_in, dtype=float)
        bo = np.zeros((n, t)) if boundary_out is None else np.asarray(boundary_out, dtype=float)
        if bi.shape != (n, t) or bo.shape != (n, t):
            raise ValueError("boundary arrays must align with counts")
        q_bc[bset] = (bi[bset] - bo[bset]) / qmax[bset]

    # spatial means over the edges; empty sides fall back to own b
    sum_ds, sum_us = np.zeros_like(b), np.zeros_like(b)
    np.add.at(sum_ds, net.edge_from, b[net.edge_to])
    np.add.at(sum_us, net.edge_to, b[net.edge_from])
    out_deg = net.out_degree[:, None]
    in_deg = net.in_degree[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_ds = np.where(out_deg > 0, sum_ds / out_deg, b)
        mean_us = np.where(in_deg > 0, sum_us / in_deg, b)

    x = np.empty((n, t, 22))
    x[:, :, 0] = q
    x[:, :, 1:8] = temp[None, :, :]
    x[:, :, 8] = q_bc
    x[:, :, 9] = b
    x[:, :, 10] = 1.0 - b
    x[:, :, 11] = dem / qmax
    x[:, :, 12] = sup / qmax
    x[:, :, 13] = vc
    x[:, :, 14] = los
    x[:, :, 15] = (b < 0.5).astype(float)
    x[:, :, 16] = ((vc > 0.7) & (vc < 0.9)).astype(float)
    x[:, :, 17] = q / n_max[:, None]
    x[:, :, 18] = mean_ds
    x[:, :, 19] = b - mean_ds
    x[:, :, 20] = mean_us
    x[:, :, 21] = b - mean_us

    train = x[:, :train_cols, :].reshape(-1, 22)
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    scale = np.where(std < 1e-12, 1.0, std)
    ind = np.array([nm in INDICATOR_FEATURES for nm in FEATURE_NAMES])
    mean[ind] = 0.0
    scale[ind] = 1.0

    return FeatureTensor(
        values=x,
        mean=mean,
        scale=scale,
        n_imputed_speed=n_imp_speed,
        n_imputed_count=n_imp_count,
    )
