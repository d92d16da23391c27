"""Shared test fixtures: tiny networks, feature tensors, gradient checks."""

from __future__ import annotations

import os

import numpy as np
import pytest

from trafficfuse.autodiff import no_grad
from trafficfuse.features import FeatureTensor
from trafficfuse.model import forward, init_params, loss_components, normalized_adjacency
from trafficfuse.network import RoadNetwork, Segment

# pyproject's pythonpath puts src/ on this process's path; tests that start
# the CLI in a child interpreter need it on PYTHONPATH too.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def make_network(
    edges,
    n=None,
    length=500.0,
    lanes=2,
    capacity=1800.0,
    vfree=10.0,
    boundary=(),
):
    """Build a network with homogeneous segments; per-segment overrides via dicts."""
    if n is None:
        n = max(max(i, j) for i, j in edges) + 1 if edges else 1
    segs = []
    for i in range(n):
        segs.append(
            Segment(
                id=i,
                length_m=length,
                lanes=lanes,
                capacity_vph=capacity if np.isscalar(capacity) else capacity[i],
                free_flow_mps=vfree if np.isscalar(vfree) else vfree[i],
                is_boundary=i in boundary,
            )
        )
    ext = tuple(f"s{i}" for i in range(n))
    return RoadNetwork(tuple(segs), tuple(edges), ext)


def make_chain(n, **kw):
    return make_network([(i, i + 1) for i in range(n - 1)], n=n, **kw)


def make_ring(n, **kw):
    return make_network([(i, (i + 1) % n) for i in range(n)], n=n, **kw)


@pytest.fixture
def chain3():
    return make_chain(3)


@pytest.fixture
def ring10():
    return make_ring(10)


def make_feature_tensor(values):
    """Wrap a raw (N, T, F) array with identity normalization stats."""
    values = np.asarray(values, dtype=float)
    f = values.shape[2]
    return FeatureTensor(values=values, mean=np.zeros(f), scale=np.ones(f))


def check_transition_invariants(n_networks=100, seed=0, n_max=12):
    """Random sparse directed graphs: structural guarantees of the flow kernel.

    Checks row-stochastic P on its support, symmetry of W, row sums and
    nonnegative diagonal of W_eff, identity rows for isolated segments,
    localization range and its 3-hop zero pattern, and the convex-hull
    bound of one diffusion step. Returns the number of networks checked.
    """
    import math

    from trafficfuse.propagation import build_transition, diffuse, localization_vector

    rng = np.random.default_rng(seed)
    for _ in range(n_networks):
        n = int(rng.integers(2, n_max + 1))
        density = rng.uniform(0.05, 0.5)
        flows = rng.uniform(0.5, 50.0, size=(n, n)) * (rng.random((n, n)) < density)
        np.fill_diagonal(flows, 0.0)
        gamma = float(rng.uniform(0.3, 0.95))
        s = float(rng.uniform(0.0, 0.5))
        t = build_transition(flows, gamma_pd=gamma, s=s)

        row_tot = t.p.sum(axis=1)
        assert np.all((np.abs(row_tot - 1.0) < 1e-9) | (row_tot == 0.0))
        assert np.array_equal(t.w, t.w.T)
        assert (np.diag(t.w_eff) >= 0.0).all()
        for i in range(n):
            assert abs(math.fsum(t.w_eff[i]) - 1.0) < 1e-12
            if row_tot[i] == 0.0 and t.w[i].sum() == 0.0:
                e = np.zeros(n)
                e[i] = 1.0
                assert np.array_equal(t.w_eff[i], e)

        support = t.w > 0
        reach = support.copy()
        reach_2 = support @ support
        reach_3 = reach_2 @ support
        within = reach | reach_2 | reach_3
        cam = int(rng.integers(0, n))
        rho = localization_vector(t, cam)
        assert (rho >= 0.0).all() and (rho <= 1.0).all()
        assert rho[cam] == 1.0
        for j in range(n):
            if j != cam and not within[j, cam]:
                assert rho[j] == 0.0

        beta = rng.normal(size=(3, n))
        out = diffuse(beta, t)
        for mem in range(3):
            for i in range(n):
                sup = np.flatnonzero(t.w_eff[i] > 0)
                vals = np.append(beta[mem, sup], beta[mem, i])
                assert out[mem, i] >= vals.min() - 1e-12
                assert out[mem, i] <= vals.max() + 1e-12
    return n_networks


def model_grad_fd_err(cfg, n_segments=3, batch=2, seed=7, h_rel=1e-5, shared=False):
    """Max relative gap between backprop and central finite differences.

    Perturbs every parameter away from its (partly zero) init so all of
    them carry gradient, then sweeps each entry. The per-parameter error
    is the largest entrywise difference scaled by that parameter's
    gradient magnitude. Windows read disjoint bins, as in training, or
    with shared=True consecutive windows that share all but one bin, as
    in prediction.
    """
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)
    a = rng.random((n_segments, n_segments)) * (rng.random((n_segments, n_segments)) < 0.6)
    np.fill_diagonal(a, 0.0)
    a_hat = normalized_adjacency(a)
    if shared:
        windows = np.arange(batch)[:, None] + np.arange(cfg.history)
    else:
        windows = np.arange(batch * cfg.history).reshape(batch, cfg.history)
    bins = rng.normal(size=(windows.max() + 1, n_segments, cfg.n_features))
    anchor = rng.uniform(5.0, 20.0, size=(batch, n_segments))
    target = anchor[:, :, None] + rng.normal(scale=2.0, size=(batch, n_segments, cfg.horizon))
    qmax = rng.uniform(8.0, 25.0, size=n_segments)
    n_tot = target[:, :, 0].sum(axis=1) + rng.normal(scale=1.0, size=batch)

    def loss_value():
        pred = forward(params, cfg, a_hat, bins, windows, anchor)
        return loss_components(pred, target, qmax, n_tot)["total"]

    loss = loss_value()
    loss.backward()
    grads = {k: p.grad.copy() for k, p in params.items()}
    worst = 0.0
    for k, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                x0 = flat[i]
                step = h_rel * max(1.0, abs(x0))
                flat[i] = x0 + step
                up = loss_value().item()
                flat[i] = x0 - step
                dn = loss_value().item()
                flat[i] = x0
                fd[i] = (up - dn) / (2.0 * step)
        g = grads[k].reshape(-1)
        denom = max(np.abs(fd).max(), np.abs(g).max(), 1e-8)
        worst = max(worst, np.abs(g - fd).max() / denom)
    return worst
