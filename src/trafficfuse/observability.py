"""Linearized observability analysis for camera placement.

The simulator's update is linearized around a nominal regime into
x(t+1) = A x(t) + B u(t), y = C x with C selecting camera segments. In
free flow a perturbation advects forward along turn-ratio-weighted edges
and dissipates at downstream exits; in congestion the influence pattern
is transposed (spillback moves upstream) and dissipates at entries. Rank
of the stacked observability matrix and the Gramian diagonal then score
how well each segment is seen by a set of cameras. Both come from the
blocks C A^k, built over the nonzeros of A, so scoring forms neither
the N x N Gramian nor the stacked Nm x N matrix; the dense finite- and
infinite-horizon Gramians are kept as references.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .ctm import FdParams, TurnRatios
from .network import RoadNetwork, boundary_segments
from .util import atomic_write_text, canonical_json

__all__ = [
    "LinearSystem",
    "ObservabilityReport",
    "linearize",
    "selection_matrix",
    "observability_rank",
    "gramian",
    "spectral_radius",
    "lyapunov_gramian",
    "segment_scores",
    "analyze",
    "report_to_json",
    "report_to_csv",
]

REGIMES = ("free", "congested")


@dataclass(frozen=True)
class LinearSystem:
    """One-regime linear surrogate of the network dynamics."""

    a: np.ndarray  # (N, N)
    b: np.ndarray  # (N, p)
    c: np.ndarray  # (m, N) stacked basis rows
    regime: str

    def __post_init__(self):
        a, c = np.asarray(self.a), np.asarray(self.c)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if not np.isfinite(a).all():
            raise ValueError("A must be finite")
        if c.ndim != 2 or c.shape[1] != a.shape[0]:
            raise ValueError("C must be (m, N)")
        for r, row in enumerate(c):
            if not (np.count_nonzero(row) == 1 and row.max() == 1.0):
                raise ValueError(f"C row {r} is not a standard basis vector")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def cameras(self) -> tuple:
        return tuple(int(np.argmax(row)) for row in self.c)


def selection_matrix(cameras, n: int) -> np.ndarray:
    cams = [int(i) for i in cameras]
    for i in cams:
        if not 0 <= i < n:
            raise ValueError(f"camera segment {i} outside the network")
    c = np.zeros((len(cams), n))
    for r, i in enumerate(cams):
        c[r, i] = 1.0
    return c


def _inflow_shares(net: RoadNetwork, beta: TurnRatios) -> np.ndarray:
    """Per edge (i, j) of net.edges: fraction of segment j's inflow arriving from i."""
    src, dst, ratio = beta.edge_from, beta.edge_to, beta.edge_beta
    # each inflow adds its terms in upstream-id order, whatever the order of net.edges
    by_row = np.argsort(src, kind="stable")
    inflow = np.bincount(dst[by_row], weights=ratio[by_row], minlength=len(net.segments))
    into = inflow[dst]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(into > 0, ratio / into, 0.0)


def linearize(
    net: RoadNetwork,
    fd: FdParams,
    regime: str,
    beta: TurnRatios | None = None,
    bin_seconds: int = 900,
    cameras=(),
) -> LinearSystem:
    """Regime-dependent propagation matrix from segment kinematics.

    Free flow: a fraction f_i = min(1, v_free dt / l_i) of segment i's
    perturbation advances along its outgoing edges (split by turn ratios),
    the rest is retained; exits at segments without downstream neighbours.
    Congestion: the same construction on the reversed influence graph at
    the backward wave speed, split by inflow shares.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    if beta is None:
        beta = TurnRatios.uniform(net)
    fd.validate(net)
    n = len(net.segments)
    a = np.zeros((n, n))
    lengths = net.lengths()
    src, dst = beta.edge_from, beta.edge_to
    # edges are distinct and never self-loops, so each scatter writes a
    # fresh off-diagonal entry once
    if regime == "free":
        frac = np.minimum(1.0, net.free_flow() * bin_seconds / lengths)
        a[dst, src] = beta.edge_beta * frac[src]
    else:
        frac = np.minimum(1.0, fd.wave_speed * bin_seconds / lengths)
        a[src, dst] = _inflow_shares(net, beta) * frac[dst]
    np.fill_diagonal(a, 1.0 - frac)
    boundary = sorted(boundary_segments(net))
    b = selection_matrix(boundary, n).T if boundary else np.zeros((n, 0))
    return LinearSystem(a=a, b=b, c=selection_matrix(cameras, n), regime=regime)


def _markov_blocks(sys: LinearSystem, horizon: int):
    """Yield the observability blocks C, CA, ..., CA^(horizon-1), each (m, N).

    Each product sums over the nonzeros of A only. The sweep ends at the
    first all-zero block, since every later block is then zero too.
    """
    n, m = sys.n, sys.c.shape[0]
    rows, cols = np.nonzero(sys.a)
    weights = sys.a[rows, cols]
    # (blk @ A)[r, j] = sum over nonzeros (i, j) of blk[r, i] * A[i, j]
    slots = (np.arange(m)[:, None] * n + cols).ravel()
    blk = sys.c
    for _ in range(horizon):
        if not blk.any():
            return
        yield blk
        blk = np.bincount(slots, weights=(blk[:, rows] * weights).ravel(), minlength=m * n).reshape(m, n)


def observability_rank(sys: LinearSystem):
    """Numerical rank of [C; CA; ...; CA^(N-1)] and the coverage index rank/N.

    Deflated block Krylov: an orthonormal basis of the row space grows one
    block at a time. Each block is projected off the basis twice, and the
    right singular vectors of the m x N residual above
    max(N*m, N) * eps * max(1, ||block||_2) join it. Once a block adds no
    direction, the row space is A-invariant and no later block can add one.
    """
    n = sys.n
    basis = np.empty((n, n))
    rank = 0
    for blk in _markov_blocks(sys, n):
        q = basis[:rank]
        resid = blk - (blk @ q.T) @ q
        resid -= (resid @ q.T) @ q
        _, sv, vt = np.linalg.svd(resid, full_matrices=False)
        tol = max(n * blk.shape[0], n) * np.finfo(float).eps * max(1.0, np.linalg.norm(blk, 2))
        new = vt[sv > tol]
        if not len(new):
            break
        basis[rank:rank + len(new)] = new
        rank += len(new)
    return rank, rank / n


def gramian(sys: LinearSystem, horizon: int | None = None) -> np.ndarray:
    """Finite-horizon observability Gramian sum_k (CA^k)' CA^k, default horizon N.

    Dense, O(N^2) memory: the reference that the scores of ``analyze``
    are checked against.
    """
    if horizon is None:
        horizon = sys.n
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    blk = sys.c
    total = blk.T @ blk
    for _ in range(horizon - 1):
        blk = blk @ sys.a
        total += blk.T @ blk
    return 0.5 * (total + total.T)


def _gramian_diagonal(sys: LinearSystem, horizon: int) -> np.ndarray:
    """diag(gramian(sys, horizon)) as sum_k colsum((CA^k)^2), with no N x N array."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    diag = np.zeros(sys.n)
    for blk in _markov_blocks(sys, horizon):
        diag += (blk * blk).sum(axis=0)
    return diag


def spectral_radius(a: np.ndarray, iterations: int = 500) -> float:
    """Power-iteration estimate; exact enough for the stability gate."""
    a = np.asarray(a, dtype=float)
    x = np.full(a.shape[0], 1.0 / np.sqrt(a.shape[0]))
    rho = 0.0
    for _ in range(iterations):
        y = a @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        rho = norm
        x = y / norm
    return float(rho)


def lyapunov_gramian(sys: LinearSystem, tol: float = 1e-10, max_iterations: int = 200_000) -> np.ndarray:
    """Infinite-horizon Gramian as the fixed point of W <- A'WA + C'C."""
    rho = spectral_radius(sys.a)
    if rho >= 1.0 - 1e-12:
        raise ValueError(f"A is not Schur-stable (estimated spectral radius {rho:.6f})")
    q = sys.c.T @ sys.c
    w = q.copy()
    for _ in range(max_iterations):
        w_next = sys.a.T @ w @ sys.a + q
        change = np.abs(w_next - w).max()
        w = w_next
        if change < tol:
            break
    else:
        raise RuntimeError(f"Lyapunov iteration did not reach {tol} in {max_iterations} steps")
    residual = np.abs(sys.a.T @ w @ sys.a + q - w).max()
    if residual >= 10 * tol:
        raise RuntimeError(f"Lyapunov residual {residual:.3e} exceeds 10 * tol")
    return 0.5 * (w + w.T)


@dataclass(frozen=True)
class ObservabilityReport:
    """Per-segment scores plus the per-regime summary numbers."""

    obs: np.ndarray  # (N,) max-over-regimes Gramian diagonal
    conf: np.ndarray  # (N,) obs / max(obs), zeros if nothing observed
    gamma_rank: dict  # regime -> rank index
    spectral_radius: dict  # regime -> power-iteration estimate
    horizon: int
    cameras: tuple


def segment_scores(diagonals: dict) -> tuple:
    """Max-over-regimes Gramian diagonal and its normalized confidence.

    diagonals maps each regime to its (N,) Gramian diagonal.
    """
    if not diagonals:
        raise ValueError("need at least one regime's Gramian diagonal")
    diags = np.stack(list(diagonals.values()))
    if diags.ndim != 2:
        raise ValueError("Gramian diagonals must be 1-D (N,) vectors; pass np.diag(w) for a Gramian w")
    obs = diags.max(axis=0)
    top = obs.max()
    if top <= 0.0:
        warnings.warn("all-zero Gramian: no segment is observed", stacklevel=2)
        return obs, np.zeros_like(obs)
    return obs, obs / top


def analyze(
    net: RoadNetwork,
    fd: FdParams,
    cameras,
    regimes=REGIMES,
    horizon: int | None = None,
    beta: TurnRatios | None = None,
    bin_seconds: int = 900,
) -> ObservabilityReport:
    """Rank index, Gramian scores, and stability estimates for a placement."""
    n = len(net.segments)
    horizon = n if horizon is None else horizon
    diagonals: dict = {}
    gamma: dict = {}
    radius: dict = {}
    for regime in regimes:
        sys = linearize(net, fd, regime, beta=beta, bin_seconds=bin_seconds, cameras=cameras)
        _, gamma[regime] = observability_rank(sys)
        radius[regime] = spectral_radius(sys.a)
        diagonals[regime] = _gramian_diagonal(sys, horizon)
    obs, conf = segment_scores(diagonals)
    return ObservabilityReport(
        obs=obs, conf=conf, gamma_rank=gamma, spectral_radius=radius,
        horizon=horizon, cameras=tuple(int(i) for i in cameras),
    )


def report_to_json(report: ObservabilityReport, net: RoadNetwork, path: str) -> None:
    payload = {
        "horizon": report.horizon,
        "cameras": [net.external_ids[i] for i in report.cameras],
        "gamma_rank": report.gamma_rank,
        "spectral_radius": report.spectral_radius,
        "segments": {
            net.external_ids[i]: {"obs": float(report.obs[i]), "conf": float(report.conf[i])}
            for i in range(len(report.obs))
        },
    }
    atomic_write_text(path, canonical_json(payload))


def report_to_csv(report: ObservabilityReport, net: RoadNetwork, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["segment_id", "obs", "conf"])
        for i in range(len(report.obs)):
            w.writerow([net.external_ids[i], repr(float(report.obs[i])), repr(float(report.conf[i]))])
