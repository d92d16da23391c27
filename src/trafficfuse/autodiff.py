"""Reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor wraps an ndarray and records the operations applied to it;
backward() walks the tape in reverse topological order and accumulates
exact gradients into the leaves. Broadcasting follows numpy semantics
with gradients summed back over broadcast axes. Everything stays in
float64, which is what lets the gradient checks hold to 1e-4 relative
against central finite differences.

backward() frees the tape as it walks it: once an interior node has
passed its gradient on, its gradient, parents and backward closure are
dropped, so a tape can be walked only once and a training step holds
at most one tape. The CLI keeps the freed pages in the process (see
cli._keep_freed_memory), so the next step does not fault them in again.

Affine maps, layer norm and softmax are fused nodes with analytic
backward passes. No gradient is ever mutated in place, so a node stores
the first gradient it is handed without copying it.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

__all__ = ["Tensor", "no_grad", "affine", "gelu", "layer_norm", "softmax"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _selects_once(idx) -> bool:
    """True when idx cannot pick an element twice, so the gradient of a
    selection can be scattered instead of accumulated with np.add.at."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    arrays = [np.asarray(p) for p in parts if not isinstance(p, (int, np.integer, slice, type(None), type(Ellipsis)))]
    return not arrays or (len(arrays) == 1 and np.unique(arrays[0]).size == arrays[0].size)


class Tensor:
    """Array node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _node(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor._lift(other)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._node(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._node(-a.data, (a,), backward)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor._lift(other)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._node(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._lift(other)

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._node(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def __matmul__(self, other):
        a, b = self, Tensor._lift(other)
        if b.ndim == 2:
            return affine(a, b)

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._node(a.data @ b.data, (a, b), backward)

    # -- shape -------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(old))

        return Tensor._node(a.data.reshape(shape), (a,), backward)

    def swapaxes(self, i, j):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.swapaxes(g, i, j))

        return Tensor._node(np.swapaxes(a.data, i, j), (a,), backward)

    def __getitem__(self, idx):
        a = self

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                if _selects_once(idx):
                    full[idx] = g
                else:
                    np.add.at(full, idx, g)
                a._accumulate(full)

        return Tensor._node(a.data[idx], (a,), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def backward(g):
            if not a.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape))

        return Tensor._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * out_data)

        return Tensor._node(out_data, (a,), backward)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * 0.5 / out_data)

        return Tensor._node(out_data, (a,), backward)

    def abs(self):
        a = self
        sign = np.sign(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * sign)

        return Tensor._node(np.abs(a.data), (a,), backward)

    def relu(self):
        a = self
        mask = a.data > 0

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return Tensor._node(a.data * mask, (a,), backward)

    # -- autodiff driver ------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf,
        freeing the tape behind it."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # pop rather than iterate, and cut each interior node loose once its
        # adjoint has been passed on: every consumer has already run, so
        # nothing reads it again, and its activations can go
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = None

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x)."""
    a = x
    # phi = 0.5 * (1 + erf(x / sqrt 2)), in place: a fresh temporary per
    # step costs more than the arithmetic at these sizes
    phi = a.data / _SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out_data = a.data * phi

    def backward(g):
        if a.requires_grad:
            # g * (phi + x * exp(-x^2 / 2) / sqrt(2 pi))
            d = -0.5 * a.data
            d *= a.data
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= a.data
            d += phi
            d *= g
            a._accumulate(d)

    return Tensor._node(out_data, (a,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift cancels, so the gradient
    is exact."""
    y = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            # y * (g - sum(g * y))
            gy = g * y
            np.subtract(g, gy.sum(axis=axis, keepdims=True), out=gy)
            gy *= y
            x._accumulate(gy)

    return Tensor._node(y, (x,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for a 2-D w and a 1-D b, as one GEMM over the flattened
    leading axes of x; the weight gradient is one GEMM too."""
    k, n = w.shape
    x2 = x.data.reshape(-1, k)
    out = x2 @ w.data
    if b is not None:
        out += b.data
    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, n)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    return Tensor._node(out.reshape(x.shape[:-1] + (n,)), parents, backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    inv_d = 1.0 / x.shape[-1]
    # C order, so a following affine flattens it without a copy
    xhat = np.subtract(x.data, x.data.sum(axis=-1, keepdims=True) * inv_d, order="C")
    std = np.sqrt(np.square(xhat).sum(axis=-1, keepdims=True) * inv_d + eps)
    xhat /= std
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        if x.requires_grad:
            # (gh - mean(gh) - xhat * mean(gh * xhat)) / std, gh = g * gain
            gh = g * gain.data
            t = gh * xhat
            m = t.mean(axis=-1, keepdims=True)
            np.multiply(xhat, m, out=t)
            gh -= gh.mean(axis=-1, keepdims=True)
            gh -= t
            gh /= std
            x._accumulate(gh)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))

    return Tensor._node(out, (x, gain, bias), backward)
