"""Reverse-mode automatic differentiation over numpy float32 or float64 arrays.

A Tensor wraps an ndarray; when a gradient flows to it, it also has a
node on the tape. A node keeps only gradient routing: the adjoint
received so far, its parent nodes and a backward closure. It never
holds a value. Each closure captures at forward time exactly the arrays
and shapes its backward pass reads, and only for the inputs that need a
gradient: `+`, `reshape`, `swapaxes`, `sum` and indexing keep shapes or
indices, `x * c` keeps c, `affine` keeps the weight for the input's
gradient and the input for the weight's, `layer_norm` and `softmax`
keep what they compute (the normalized input, the output), never their
input, and `gelu` keeps its input alone. A value that is cheap to
rebuild is rebuilt in backward rather than kept (recomputation in the
style of Chen et al. 2016): gelu's tanh value, and the a @ z of
`neighbour_affine`. So an activation that no backward pass reads is
freed as soon as the forward code drops it. backward() walks the tape in reverse
topological order and accumulates exact gradients into the leaves.
Broadcasting follows numpy semantics with gradients summed back over
broadcast axes. A walk of the tape starts at a tensor's _node, and reshape
takes its sizes as separate integers.

The dtype follows the input. A Tensor keeps a float32 array as float32
and makes anything else float64; every op allocates its values and
gradients in its input's dtype, and a plain number or array that meets
a tensor in an op takes that tensor's dtype, since NumPy 2 lets a 0-d
float64 array promote a float32 one. So a float32 input gives a float32
tape end to end (the predictor's, model.DTYPE), and a float64 input runs
every op in float64. The gradient checks build float64 inputs: that is
what lets them hold to 1e-4 relative against central finite differences.

backward() frees the tape as it walks it: once an interior node has
passed its gradient on, its gradient, parents and backward closure are
dropped, so a tape can be walked only once and a training step holds
at most one tape. The CLI keeps the freed pages in the process (see
cli._keep_freed_memory), so the next step does not fault them in again.

Affine maps, the neighbour product (a @ z) @ w, layer norm, softmax and
GELU are fused nodes with analytic backward passes. The row sums of layer
norm and softmax and the bias gradients' column sums are BLAS mat-vecs
against a vector of ones, which beat ufunc.reduce over a short axis. No
gradient is ever mutated in place, so a node stores the first gradient it
is handed without copying it.

GELU is the tanh form of Hendrycks & Gimpel (2016), within 5e-4 of the
exact x Phi(x); it needs only np.tanh, so the tape needs numpy alone. Its
node keeps the input alone; its backward rebuilds the tanh value with the
forward's own operations, one fixed-size pass at a time, into the
gradient array, so it allocates no other input-sized array. gelu always
writes its output over its tanh temporary, and layer_norm does so where
no backward will read the normalized input (under no_grad), so each
holds one output-sized array.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = ["Tensor", "no_grad", "grad_enabled", "affine", "neighbour_affine", "gelu", "layer_norm", "softmax"]

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


def grad_enabled() -> bool:
    """False inside no_grad, where no op records a tape."""
    return _GRAD_ENABLED


def _axis_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(-1, keepdims=True) as BLAS mat-vecs against ones: ufunc.reduce
    over a short axis pays a loop per row. One mat-vec over the flattened
    rows where a is C-contiguous, numpy's stacked product elsewhere, which
    needs no copy of a."""
    ones = np.ones(a.shape[-1], dtype=a.dtype)
    if a.flags.c_contiguous:
        return (a.reshape(-1, a.shape[-1]) @ ones).reshape(a.shape[:-1] + (1,))
    return (a @ ones)[..., None]


def _col_sums(a2: np.ndarray) -> np.ndarray:
    """a2.sum(axis=0) for a 2-D a2, as one BLAS mat-vec."""
    return np.ones(a2.shape[0], dtype=a2.dtype) @ a2


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    if len(shape) == 1 and grad.shape[-1] == shape[0] and grad.flags.c_contiguous:
        return _col_sums(grad.reshape(-1, shape[0]))
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A tensor's place on the tape: its adjoint so far, the nodes it was
    computed from and the closure that passes its adjoint on to them."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g


def _tape(*tensors) -> tuple:
    """Each tensor's node, or None where no gradient flows to it (for
    every tensor under no_grad). An op keeps the arrays an input's
    gradient reads only when that input has a node."""
    if not _GRAD_ENABLED:
        return (None,) * len(tensors)
    return tuple([None if t is None else t._node for t in tensors])


def _result(data, nodes, backward) -> "Tensor":
    """A new tensor holding data, on the tape if any input has a node.
    A node repeated in nodes stays repeated, in order: the traversal in
    backward() depends on it, and with it the order gradients are summed."""
    out = Tensor(data)
    parents = tuple([n for n in nodes if n is not None])
    if parents:
        out._node = _Node(parents, backward)
    return out


class Tensor:
    """An array and, when a gradient flows to it, its node on the tape.
    A float32 array stays float32; anything else becomes float64."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self._node = _Node() if requires_grad else None

    def _lift(self, x) -> "Tensor":
        """x as a Tensor; a number or array takes this tensor's dtype."""
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.data.dtype))

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        b = self._lift(other)
        na, nb = _tape(self, b)
        sa, sb = self.shape, b.shape

        def backward(g):
            if na is not None:
                na._accumulate(_unbroadcast(g, sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(g, sb))

        return _result(self.data + b.data, (na, nb), backward)

    __radd__ = __add__

    def __neg__(self):
        (na,) = _tape(self)

        def backward(g):
            na._accumulate(-g)

        return _result(-self.data, (na,), backward)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        b = self._lift(other)
        na, nb = _tape(self, b)
        sa, sb = self.shape, b.shape
        ad = self.data if nb is not None else None
        bd = b.data if na is not None else None

        def backward(g):
            if na is not None:
                na._accumulate(_unbroadcast(g * bd, sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(g * ad, sb))

        return _result(self.data * b.data, (na, nb), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._lift(other)
        na, nb = _tape(self, b)
        sa, sb = self.shape, b.shape
        ad = self.data if nb is not None else None
        bd = b.data

        def backward(g):
            if na is not None:
                na._accumulate(_unbroadcast(g / bd, sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(-g * ad / (bd * bd), sb))

        return _result(self.data / b.data, (na, nb), backward)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __matmul__(self, other):
        b = self._lift(other)
        if b.ndim == 2:
            return affine(self, b)
        na, nb = _tape(self, b)
        sa, sb = self.shape, b.shape
        ad = self.data if nb is not None else None
        bd = b.data if na is not None else None

        def backward(g):
            if na is not None:
                na._accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb))

        return _result(self.data @ b.data, (na, nb), backward)

    # -- shape -------------------------------------------------------------

    def reshape(self, *shape):
        (na,) = _tape(self)
        old = self.shape

        def backward(g):
            na._accumulate(g.reshape(old))

        return _result(self.data.reshape(shape), (na,), backward)

    def swapaxes(self, i, j):
        (na,) = _tape(self)

        def backward(g):
            na._accumulate(np.swapaxes(g, i, j))

        return _result(np.swapaxes(self.data, i, j), (na,), backward)

    def __getitem__(self, idx):
        (na,) = _tape(self)
        shape = self.shape

        def backward(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, idx, g)
            na._accumulate(full)

        return _result(self.data[idx], (na,), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        (na,) = _tape(self)
        shape = self.shape

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            na._accumulate(np.broadcast_to(g, shape))

        return _result(self.data.sum(axis=axis, keepdims=keepdims), (na,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ------------------------------------------

    def exp(self):
        (na,) = _tape(self)
        out_data = np.exp(self.data)

        def backward(g):
            na._accumulate(g * out_data)

        return _result(out_data, (na,), backward)

    def sqrt(self):
        (na,) = _tape(self)
        out_data = np.sqrt(self.data)

        def backward(g):
            na._accumulate(g * 0.5 / out_data)

        return _result(out_data, (na,), backward)

    def abs(self):
        (na,) = _tape(self)
        sign = np.sign(self.data) if na is not None else None

        def backward(g):
            na._accumulate(g * sign)

        return _result(np.abs(self.data), (na,), backward)

    def relu(self):
        (na,) = _tape(self)
        mask = self.data > 0

        def backward(g):
            na._accumulate(g * mask)

        return _result(self.data * mask, (na,), backward)

    # -- autodiff driver ------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf,
        freeing the tape behind it."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        root = self._node
        if root is None:
            return
        topo: list[_Node] = []
        seen = set()
        stack = [(root, False)]
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
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        # pop rather than iterate, and cut each interior node loose once its
        # adjoint has been passed on: every consumer has already run, so
        # nothing reads it again, and the arrays its closure kept can go
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
        if self._node is not None:
            self._node.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


# the tanh form of GELU (Hendrycks & Gimpel 2016): 0.5 x (1 + tanh(c (x + a x^3)))
_GELU_C = math.sqrt(2.0 / math.pi)  # a Python float, so a float32 pass stays float32
_GELU_A = 0.044715
# elements per pass of gelu's backward: its tanh scratch stays this size
_GELU_CHUNK = 1 << 14


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c x (1 + a x^2)) into out, in place: a fresh temporary per
    step costs more than the arithmetic at these sizes. gelu's forward and
    backward both call this, so the backward rebuilds the forward's bits."""
    np.multiply(x, x, out=out)
    out *= _GELU_C * _GELU_A
    out += _GELU_C
    out *= x
    return np.tanh(out, out=out)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit in its tanh form, within 5e-4 of x * Phi(x).

    The node keeps only the input. Its backward rebuilds the tanh value one
    _GELU_CHUNK-element pass at a time, writing into the gradient array, so
    neither pass holds more than its one output-sized array."""
    (nx,) = _tape(x)
    xd = x.data
    out = _gelu_tanh(xd, np.empty_like(xd))
    out += 1.0
    out *= xd
    out *= 0.5

    def backward(g):
        # g * 0.5 (1 + t) (1 + (1 - t) c x (1 + 3 a x^2)), from 1 - t^2 =
        # (1 - t)(1 + t)
        grad = np.empty_like(xd)
        scratch = np.empty(min(_GELU_CHUNK, xd.size), dtype=xd.dtype)
        passes = np.nditer(
            (xd, g, grad), flags=("external_loop", "buffered", "zerosize_ok"),
            op_flags=(["readonly"], ["readonly"], ["writeonly"]), order="K", buffersize=_GELU_CHUNK,
        )
        with passes:
            for xc, gc, d in passes:
                t = _gelu_tanh(xc, scratch[: xc.size])
                np.multiply(xc, xc, out=d)
                d *= 3.0 * _GELU_C * _GELU_A
                d += _GELU_C
                d *= xc
                np.subtract(1.0, t, out=t)
                d *= t
                d += 1.0
                np.subtract(2.0, t, out=t)
                d *= t
                d *= 0.5
                d *= gc
        nx._accumulate(grad)

    return _result(out, (nx,), backward)


def _max_keepdims(a: np.ndarray) -> np.ndarray:
    """np.max(a, -1, keepdims=True) as in-place np.maximum passes over
    the slices of a short last axis: the same bits, NaN included, without
    the reduction's per-row loop."""
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j : j + 1], out=m)
    return m


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis; the max shift
    cancels, so the gradient is exact."""
    (nx,) = _tape(x)
    y = x.data - _max_keepdims(x.data)
    np.exp(y, out=y)
    y /= _axis_sums(y)

    def backward(g):
        # y * (g - sum(g * y))
        gy = g * y
        np.subtract(g, _axis_sums(gy), out=gy)
        gy *= y
        nx._accumulate(gy)

    return _result(y, (nx,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for a 2-D w and a 1-D b, as one GEMM over the flattened
    leading axes of x; the weight gradient is one GEMM too."""
    nx, nw, nb = _tape(x, w, b)
    k, n = w.shape
    x2 = x.data.reshape(-1, k)
    out = x2 @ w.data
    if b is not None:
        out += b.data
    x_shape = x.shape
    wd = w.data if nx is not None else None
    xk = x2 if nw is not None else None

    def backward(g):
        g2 = g.reshape(-1, n)
        if nx is not None:
            nx._accumulate((g2 @ wd.T).reshape(x_shape))
        if nw is not None:
            nw._accumulate(xk.T @ g2)
        if nb is not None:
            nb._accumulate(_col_sums(g2))

    return _result(out.reshape(x_shape[:-1] + (n,)), (nx, nw, nb), backward)


def neighbour_affine(a: np.ndarray, z: Tensor, w: Tensor) -> Tensor:
    """(a @ z) @ w for a constant (N, N) a, a (..., N, k) z and a (k, n) w:
    the neighbour term of a graph-convolution layer, one node on the tape.
    a is cast to z's dtype. The node keeps z and w, not a @ z: the
    weight's gradient rebuilds a @ z with the forward's own call, and z's
    gradient is a.T @ (g @ w.T), which is what the two ops (a @ z) and
    (. @ w) would give."""
    nz, nw = _tape(z, w)
    a = np.asarray(a, dtype=z.data.dtype)
    k, n = w.shape
    out = (a @ z.data).reshape(-1, k) @ w.data
    z_shape = z.shape
    zd = z.data if nw is not None else None
    wd = w.data if nz is not None else None

    def backward(g):
        g2 = g.reshape(-1, n)
        if nz is not None:
            nz._accumulate(a.T @ (g2 @ wd.T).reshape(z_shape))
        if nw is not None:
            nw._accumulate((a @ zd).reshape(-1, k).T @ g2)

    return _result(out.reshape(z_shape[:-1] + (n,)), (nz, nw), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    nx, ng, nb = _tape(x, gain, bias)
    inv_d = 1.0 / x.shape[-1]
    # C order, so a following affine flattens it without a copy
    xhat = np.subtract(x.data, _axis_sums(x.data) * inv_d, order="C")
    std = np.sqrt(_axis_sums(np.square(xhat)) * inv_d + eps)
    xhat /= std
    g_shape, b_shape = gain.shape, bias.shape
    gd = gain.data if nx is not None else None
    sd = std if nx is not None else None
    xh = xhat if nx is not None or ng is not None else None
    # without a backward that reads xhat, the output overwrites it
    out = xhat * gain.data if xh is not None else np.multiply(xhat, gain.data, out=xhat)
    out += bias.data

    def backward(g):
        if nx is not None:
            # (gh - mean(gh) - xhat * mean(gh * xhat)) / std, gh = g * gain
            gh = np.multiply(g, gd, order="C")
            t = gh * xh
            m = _axis_sums(t) * inv_d
            np.multiply(xh, m, out=t)
            gh -= _axis_sums(gh) * inv_d
            gh -= t
            gh /= sd
            nx._accumulate(gh)
        if ng is not None:
            ng._accumulate(_unbroadcast(g * xh, g_shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g, b_shape))

    return _result(out, (nx, ng, nb), backward)
