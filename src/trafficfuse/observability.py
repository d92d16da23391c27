"""Linearized observability analysis for camera placement.

The simulator's update is linearized around a nominal regime into
x(t+1) = A x(t) + B u(t), y = C x with C selecting camera segments; no
score reads B, so it is left empty. In free flow a perturbation advects
forward along turn-ratio-weighted edges and dissipates at downstream
exits; in congestion the influence pattern is transposed (spillback
moves upstream) and dissipates at entries. Rank of the stacked
observability matrix and the Gramian diagonal then score how well each
segment is seen by a set of cameras. Both come from the blocks C A^k,
built over the nonzeros of A that LinearSystem finds once, so scoring
forms neither the N x N Gramian nor the stacked Nm x N matrix; the dense
finite- and infinite-horizon Gramians are kept as references. The rank
takes one SVD per block: row and Frobenius norms bracket its tolerance,
and the block's exact 2-norm is computed only for a singular value
inside the bracket.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ctm import FdArrays, FdParams, TurnRatios
from .network import BIN_SECONDS, RoadNetwork
from .util import write_csv, write_json

__all__ = [
    "LinearSystem",
    "ObservabilityReport",
    "linearize",
    "selection_matrix",
    "observability_rank",
    "gramian",
    "spectral_radius",
    "lyapunov_gramian",
    "analyze",
    "report_to_json",
    "report_to_csv",
]

REGIMES = ("free", "congested")
LYAPUNOV_ITERATIONS = 200_000


@dataclass(frozen=True)
class LinearSystem:
    """One-regime linear surrogate of the network dynamics.

    linearize leaves b empty, (N, 0). a_nonzeros holds the (rows, cols,
    values) of A's nonzeros in row-major order as read-only arrays, found
    once at construction and left out of equality; every product with A
    sums over them in that order.
    """

    a: np.ndarray  # (N, N)
    b: np.ndarray  # (N, p)
    c: np.ndarray  # (m, N) stacked basis rows
    regime: str
    a_nonzeros: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, c = np.asarray(self.a), np.asarray(self.c)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if not np.isfinite(a).all():
            raise ValueError("A must be finite")
        if c.ndim != 2 or c.shape[1] != a.shape[0]:
            raise ValueError("C must be (m, N)")
        bad = np.flatnonzero((np.count_nonzero(c, axis=1) != 1) | ~(c == 1.0).any(axis=1))
        if bad.size:
            raise ValueError(f"C row {bad[0]} is not a standard basis vector")
        rows, cols = np.nonzero(a)
        nonzeros = (rows, cols, a[rows, cols])
        for arr in nonzeros:
            arr.flags.writeable = False
        object.__setattr__(self, "a_nonzeros", nonzeros)

    @property
    def n(self) -> int:
        return self.a.shape[0]


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
    dst, ratio = beta.edge_to, beta.edge_beta
    into = np.bincount(dst, weights=ratio, minlength=len(net.segments))[dst]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(into > 0, ratio / into, 0.0)


def linearize(
    net: RoadNetwork,
    fd: FdParams,
    regime: str,
    beta: TurnRatios | None = None,
    bin_seconds: int = BIN_SECONDS,
    *,
    cameras,
) -> LinearSystem:
    """Regime-dependent propagation matrix from segment kinematics.

    Free flow: a fraction f_i = min(1, v_free dt / l_i) of segment i's
    perturbation advances along its outgoing edges (split by turn ratios),
    the rest is retained; exits at segments without downstream neighbours.
    Congestion: the same construction on the reversed influence graph at
    the backward wave speed, split by inflow shares. Both speeds come from
    FdArrays, so an fd whose speeds reach a segment's free flow speed
    fails there, naming the segment.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    if beta is None:
        beta = TurnRatios.uniform(net)
    fdk = FdArrays.build(net.segments, fd, bin_seconds)
    n = len(net.segments)
    a = np.zeros((n, n))
    lengths = net.lengths()
    src, dst = beta.edge_from, beta.edge_to
    # edges are distinct and never self-loops, so each scatter writes a
    # fresh off-diagonal entry once
    if regime == "free":
        frac = np.minimum(1.0, fdk.v_free * bin_seconds / lengths)
        a[dst, src] = beta.edge_beta * frac[src]
    else:
        frac = np.minimum(1.0, fdk.v_w * bin_seconds / lengths)
        a[src, dst] = _inflow_shares(net, beta) * frac[dst]
    np.fill_diagonal(a, 1.0 - frac)
    return LinearSystem(a=a, b=np.zeros((n, 0)), c=selection_matrix(cameras, n), regime=regime)


def _markov_blocks(sys: LinearSystem, horizon: int):
    """Yield the observability blocks C, CA, ..., CA^(horizon-1), each (m, N).

    Each product sums over the nonzeros of A only. The sweep ends at the
    first all-zero block, since every later block is then zero too.
    """
    n, m = sys.n, sys.c.shape[0]
    rows, cols, weights = sys.a_nonzeros
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
    tol = max(N*m, N) * eps * max(1, ||block||_2) join it. Once a block adds
    no direction, the row space is A-invariant and no later block can add
    one.

    max row norm <= ||block||_2 <= ||block||_F brackets tol, so the 2-norm
    (an SVD of its own) is computed only when a singular value of the
    residual falls inside that bracket; the bracket is widened by a
    relative 1e-12 so that rounding in the bounds cannot flip a decision.
    """
    n = sys.n
    basis = np.empty((n, n))
    rank = 0
    for blk in _markov_blocks(sys, n):
        q = basis[:rank]
        resid = blk - (blk @ q.T) @ q
        resid -= (resid @ q.T) @ q
        _, sv, vt = np.linalg.svd(resid, full_matrices=False)
        scale = max(n * blk.shape[0], n) * np.finfo(float).eps
        row_sq = (blk * blk).sum(axis=1)
        lo = scale * max(1.0, np.sqrt(row_sq.max())) * (1.0 - 1e-12)
        hi = scale * max(1.0, np.sqrt(row_sq.sum())) * (1.0 + 1e-12)
        tol = scale * max(1.0, np.linalg.norm(blk, 2)) if ((sv > lo) & (sv <= hi)).any() else lo
        new = vt[sv > tol]
        if not len(new):
            break
        basis[rank:rank + len(new)] = new
        rank += len(new)
    return rank, rank / n


def gramian(sys: LinearSystem, horizon: int) -> np.ndarray:
    """Finite-horizon observability Gramian sum_k (CA^k)' CA^k for k < horizon.

    Dense, O(N^2) memory: the reference that the scores of ``analyze``
    are checked against.
    """
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


def spectral_radius(a: np.ndarray) -> float:
    """Power-iteration estimate (500 steps); exact enough for the stability gate."""
    a = np.asarray(a, dtype=float)
    x = np.full(a.shape[0], 1.0 / np.sqrt(a.shape[0]))
    rho = 0.0
    for _ in range(500):
        y = a @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        rho = norm
        x = y / norm
    return float(rho)


def lyapunov_gramian(sys: LinearSystem, tol: float) -> np.ndarray:
    """Infinite-horizon Gramian as the fixed point of W <- A'WA + C'C."""
    rho = spectral_radius(sys.a)
    if rho >= 1.0 - 1e-12:
        raise ValueError(f"A is not Schur-stable (estimated spectral radius {rho:.6f})")
    q = sys.c.T @ sys.c
    w = q.copy()
    for _ in range(LYAPUNOV_ITERATIONS):
        w_next = sys.a.T @ w @ sys.a + q
        change = np.abs(w_next - w).max()
        w = w_next
        if change < tol:
            break
    else:
        raise RuntimeError(f"Lyapunov iteration did not reach {tol} in {LYAPUNOV_ITERATIONS} steps")
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


def analyze(
    net: RoadNetwork,
    fd: FdParams,
    cameras,
    beta: TurnRatios | None = None,
    bin_seconds: int = BIN_SECONDS,
) -> ObservabilityReport:
    """Rank index, Gramian scores, and stability estimates for a placement,
    in both regimes and over the full horizon N (the segment count).

    A segment's score obs is the larger of its two regimes' Gramian
    diagonals, and conf is obs over the largest score. An all-zero Gramian
    (no segment observed) warns and leaves conf at zero.
    """
    n = len(net.segments)
    obs = np.zeros(n)
    gamma: dict = {}
    radius: dict = {}
    for regime in REGIMES:
        sys = linearize(net, fd, regime, beta=beta, bin_seconds=bin_seconds, cameras=cameras)
        _, gamma[regime] = observability_rank(sys)
        radius[regime] = spectral_radius(sys.a)
        obs = np.maximum(obs, _gramian_diagonal(sys, n))
    top = obs.max()
    if top <= 0.0:
        warnings.warn("all-zero Gramian: no segment is observed", stacklevel=2)
        conf = np.zeros_like(obs)
    else:
        conf = obs / top
    return ObservabilityReport(
        obs=obs, conf=conf, gamma_rank=gamma, spectral_radius=radius,
        horizon=n, cameras=tuple(int(i) for i in cameras),
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
    write_json(path, payload)


def report_to_csv(report: ObservabilityReport, net: RoadNetwork, path: str) -> None:
    write_csv(path, ["segment_id", "obs", "conf"], (
        [net.external_ids[i], repr(float(report.obs[i])), repr(float(report.conf[i]))] for i in range(len(report.obs))
    ))
