"""Flow-weighted propagation of calibration information.

A row-stochastic transition matrix built from aggregated trajectory
transitions drives three things: localization of filter gains (a camera
only updates segments within three flow hops), spatial diffusion of the
calibration field, and the confidence-weighted shrinkage that produces
the final calibrated counts. Flow-isolated segments are left alone by
all three and revert to the network prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import RoadNetwork
from .util import write_csv

__all__ = [
    "TransitionMatrix",
    "build_transition",
    "localization_vector",
    "localization_vectors",
    "diffuse",
    "update_confidence",
    "shrink_blend",
    "calibrate_counts",
    "export_transition",
    "export_localization",
]

CONFIDENCE_DECAY = 0.999  # per-step decay of a segment's running confidence


@dataclass(frozen=True)
class TransitionMatrix:
    """P and its derived kernels; the kernels are immutable after build.

    p: row-stochastic on segments with outflow, zero rows elsewhere
    w: symmetrized decayed kernel gamma_pd * (P + P^T) / 2
    w_eff: diffusion matrix, every row sums to exactly 1
    edges: W_eff's nonzeros as (rows, cols, weights), row-major, built once

    member_slots fills a cache, one index array per ensemble size. Building
    the slots in every diffuse call gives the same bits but took 16 against
    10 us on the chain twin, 177 against 121 us on the grid twin and about
    1,100 against 639 us on the 200-segment city mesh, so the cache stays.
    """

    p: np.ndarray
    w: np.ndarray
    w_eff: np.ndarray
    gamma_pd: float
    s: float
    edges: tuple = field(init=False, repr=False, compare=False)
    _slots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, cols = np.nonzero(self.w_eff)
        object.__setattr__(self, "edges", (rows, cols, self.w_eff[rows, cols]))
        object.__setattr__(self, "_slots", {})

    def member_slots(self, m: int) -> np.ndarray:
        """Flat index into an (m, N) field of each (edge, member) pair's row, cached per m."""
        if m not in self._slots:
            n = self.w_eff.shape[0]
            self._slots[m] = (self.edges[0][:, None] + n * np.arange(m)).ravel()
        return self._slots[m]


def _effective_rows(w: np.ndarray) -> np.ndarray:
    """Off-diagonal from W, self-loop absorbing the remainder.

    W rows can sum past 1 after symmetrization; such rows are scaled down
    so the invariant (row sum exactly 1, diagonal >= 0) always holds.
    """
    out = np.array(w, dtype=float)
    np.fill_diagonal(out, 0.0)
    total = out.sum(axis=1)
    big = total > 1.0
    out[big] /= total[big, None]
    total[big] = out[big].sum(axis=1)
    # float residue from the division; shave each such row's largest entry
    over = np.flatnonzero(total > 1.0)
    out[over, out[over].argmax(axis=1)] -= total[over] - 1.0
    total[over] = 1.0
    np.fill_diagonal(out, np.where(total < 1.0, 1.0 - total, 0.0))
    return out


def build_transition(link_flows: np.ndarray, gamma_pd: float = 0.8, s: float = 0.1) -> TransitionMatrix:
    """Turn aggregated directed trajectory counts into the kernel family.

    link_flows[i, j] counts observed moves from segment i to j; rows with
    no recorded outflow stay all-zero and end up flow-isolated.
    """
    q = np.asarray(link_flows, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("link flows must be a square matrix")
    bad = ~np.isfinite(q) | (q < 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"trajectory flow {q[i, j]} at ({i}, {j}) must be finite and nonnegative")
    if not 0.0 < gamma_pd < 1.0:
        raise ValueError("gamma_pd must lie in (0, 1)")
    if not 0.0 <= s < 1.0:
        raise ValueError("smoothing coefficient must lie in [0, 1)")
    totals = q.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(totals > 0, q / totals, 0.0)
    w = gamma_pd * 0.5 * (p + p.T)
    return TransitionMatrix(p=p, w=w, w_eff=_effective_rows(w), gamma_pd=gamma_pd, s=s)


def localization_vector(t: TransitionMatrix, segment: int) -> np.ndarray:
    """Geometric hop-decay influence of a camera at `segment`, in [0, 1].

    rho = c1 + c2/2 + c3/4 over hop columns c1 = W e_i, c(k+1) = gamma_pd W ck.
    """
    n = t.w.shape[0]
    if not 0 <= segment < n:
        raise ValueError(f"segment {segment} outside the network")
    c1 = t.w[:, segment]
    c2 = t.gamma_pd * (t.w @ c1)
    c3 = t.gamma_pd * (t.w @ c2)
    rho = c1 + 0.5 * c2 + 0.25 * c3
    rho = np.clip(rho, 0.0, 1.0)
    rho[segment] = 1.0
    return rho


def localization_vectors(t: TransitionMatrix, cameras) -> dict:
    return {int(i): localization_vector(t, int(i)) for i in cameras}


def diffuse(beta: np.ndarray, t: TransitionMatrix) -> np.ndarray:
    """One diffusion step, (1-s) * beta + s * W_eff beta, for each row
    (member) of the (M, N) field beta, at the kernel's own smoothing
    coefficient s = t.s.

    Written in difference form beta_i + s * sum_j w_ij (beta_j - beta_i),
    summed over the nonzero entries of W_eff only (the edge list kept on
    t), so a spatially constant field passes through bitwise unchanged.
    """
    b = np.asarray(beta, dtype=float)
    m, n = b.shape
    rows, cols, weights = t.edges
    # pairwise differences keep the consensus state an exact fixed point;
    # edge-major (E, m) terms flatten without a copy, and each (member, row)
    # slot still sums its edges in ascending order
    terms = b.T[cols] - b.T[rows]
    terms *= weights[:, None]
    pulled = np.bincount(t.member_slots(m), weights=terms.ravel(), minlength=m * n).reshape(m, n)
    return b + t.s * pulled


def update_confidence(delta_prev: np.ndarray, alpha_mean: np.ndarray, alpha_var: np.ndarray, cameras) -> np.ndarray:
    """Confidence rises as the ensemble coefficient of variation falls.

    delta = max(CONFIDENCE_DECAY * previous, 1 / (1 + cv)), pinned to 1 on
    cameras, the segments a camera observed this step.
    """
    alpha_mean = np.asarray(alpha_mean, dtype=float)
    alpha_var = np.asarray(alpha_var, dtype=float)
    if (alpha_mean <= 0).any():
        raise ValueError("alpha mean must be positive")
    cv = np.sqrt(np.maximum(alpha_var, 0.0)) / alpha_mean
    delta = np.maximum(CONFIDENCE_DECAY * np.asarray(delta_prev, dtype=float), 1.0 / (1.0 + cv))
    # clip to [0, 1] in place
    np.minimum(np.maximum(delta, 0.0, out=delta), 1.0, out=delta)
    cams = list(cameras)
    if cams:
        delta[cams] = 1.0
    return delta


def shrink_blend(alpha_mean: np.ndarray, delta: np.ndarray, alpha_star: float) -> np.ndarray:
    """Confidence-weighted interpolation between segment and network scale."""
    delta = np.asarray(delta, dtype=float)
    return delta * np.asarray(alpha_mean, dtype=float) + (1.0 - delta) * alpha_star


def calibrate_counts(q_hat: np.ndarray, alpha_c: np.ndarray) -> np.ndarray:
    """Scale predictor counts by the blended calibration field, one factor
    per segment and bin (alpha_c has q_hat's shape)."""
    alpha_c = np.asarray(alpha_c, dtype=float)
    if (alpha_c <= 0).any():
        raise ValueError("calibration factors must be positive")
    q_hat = np.asarray(q_hat, dtype=float)
    if alpha_c.shape != q_hat.shape:
        raise ValueError(f"calibration factors {alpha_c.shape} do not match counts {q_hat.shape}")
    return alpha_c * q_hat


def export_transition(t: TransitionMatrix, net: RoadNetwork, path: str) -> None:
    """Sparse triplets (from_id, to_id, p) using external segment ids."""
    write_csv(path, ["from_id", "to_id", "p"], (
        [net.external_ids[i], net.external_ids[j], repr(float(t.p[i, j]))] for i, j in np.argwhere(t.p > 0)
    ))


def export_localization(vectors: dict, net: RoadNetwork, path: str) -> None:
    """Long-form CSV (camera_id, segment_id, rho), one block per camera.

    Only the nonzero entries are written; a (camera, segment) pair with no
    row has rho 0.
    """
    write_csv(path, ["camera_id", "segment_id", "rho"], (
        [net.external_ids[cam], net.external_ids[j], repr(float(vectors[cam][j]))]
        for cam in sorted(vectors) for j in np.flatnonzero(vectors[cam])
    ))
