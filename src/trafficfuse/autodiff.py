"""Reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor wraps an ndarray; when a gradient flows to it, it also has a
node on the tape. A node keeps only gradient routing: the adjoint
received so far, its parent nodes and a backward closure. It never
holds a value. Each closure captures at forward time exactly the arrays
and shapes its backward pass reads, and only for the inputs that need a
gradient: `+`, `reshape`, `swapaxes`, `sum` and indexing keep shapes or
indices, `x * c` keeps c, `affine` keeps the weight for the input's
gradient and the input for the weight's, and `layer_norm` and `softmax`
keep what they compute (the normalized input, the output), never their
input. So an activation that no backward pass reads is freed as soon as
the forward code drops it. backward() walks the tape in reverse
topological order and accumulates exact gradients into the leaves.
Broadcasting follows numpy semantics with gradients summed back over
broadcast axes. Everything stays in float64, which is what lets the
gradient checks hold to 1e-4 relative against central finite
differences.

backward() frees the tape as it walks it: once an interior node has
passed its gradient on, its gradient, parents and backward closure are
dropped, so a tape can be walked only once and a training step holds
at most one tape. The CLI keeps the freed pages in the process (see
cli._keep_freed_memory), so the next step does not fault them in again.

Affine maps, layer norm and softmax are fused nodes with analytic
backward passes. The row sums of layer norm and softmax and the bias
gradients' column sums are BLAS mat-vecs against a vector of ones, which
beat ufunc.reduce over a short axis. No gradient is ever mutated in place, so
a node stores the first gradient it is handed without copying it.

GELU's erf is a numpy port of the Cephes rational approximations, so the
tape needs numpy alone.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["Tensor", "no_grad", "affine", "erf", "gelu", "layer_norm", "softmax"]

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


def _axis_sums(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """a.sum(axis, keepdims=True) as BLAS mat-vecs against ones: ufunc.reduce
    over a short axis pays a loop per row. One mat-vec over the flattened
    rows where the swapped array is C-contiguous, numpy's stacked product
    elsewhere, which needs no copy of a."""
    a = a.swapaxes(axis, -1)
    ones = np.ones(a.shape[-1])
    if a.flags.c_contiguous:
        s = (a.reshape(-1, a.shape[-1]) @ ones).reshape(a.shape[:-1] + (1,))
    else:
        s = (a @ ones)[..., None]
    return s.swapaxes(axis, -1)


def _col_sums(a2: np.ndarray) -> np.ndarray:
    """a2.sum(axis=0) for a 2-D a2, as one BLAS mat-vec."""
    return np.ones(a2.shape[0]) @ a2


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


def _selects_once(idx) -> bool:
    """True when idx cannot pick an element twice, so the gradient of a
    selection can be scattered instead of accumulated with np.add.at."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    arrays = [np.asarray(p) for p in parts if not isinstance(p, (int, np.integer, slice, type(None), type(Ellipsis)))]
    return not arrays or (len(arrays) == 1 and np.unique(arrays[0]).size == arrays[0].size)


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
    """An array and, when a gradient flows to it, its node on the tape."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    # the tape as seen from a tensor, for walking it from a loss
    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        b = Tensor._lift(other)
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
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        b = Tensor._lift(other)
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
        b = Tensor._lift(other)
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
        return Tensor._lift(other) / self

    def __matmul__(self, other):
        b = Tensor._lift(other)
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
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
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
            full = np.zeros(shape)
            if _selects_once(idx):
                full[idx] = g
            else:
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


# Cephes ndtr.c rational approximations (Cody 1969): erf(x) = x T(x^2) / U(x^2)
# on |x| <= 1 and 1 - exp(-x^2) P(|x|) / Q(|x|) beyond, with sign; leading
# coefficients first, and U and Q monic
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(8) is 1e-29, so past 8 the second form already rounds to +-1
_ERF_CLIP = 8.0
# elements per pass: the buffers stay in cache, and no whole-array
# temporary raises the peak
_ERF_CHUNK = 16384


def _polevl(z: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """coef[0] z^n + ... + coef[n] by Horner's rule, into out."""
    np.multiply(z, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= z
    out += coef[-1]
    return out


def _p1evl(z: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """z^n + coef[0] z^(n-1) + ... + coef[n-1], the monic form, into out."""
    np.add(z, coef[0], out=out)
    for c in coef[1:]:
        out *= z
        out += c
    return out


def erf(x, out: np.ndarray | None = None) -> np.ndarray:
    """The error function, elementwise in float64, to within 1 ulp of
    Cephes: exact at +-0 (sign kept), +-1 at +-inf, NaN at NaN. out, a
    C-contiguous array of x's shape, may be x itself."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or not out.flags.c_contiguous:
        raise ValueError(f"erf: out must be a C-contiguous array of shape {x.shape}")
    if not x.size:
        return out
    src, dst = x.reshape(-1), out.reshape(-1)
    t, z, num, den = np.empty((4, min(src.size, _ERF_CHUNK)))
    far, x_far = [], []
    # a subnormal x underflows harmlessly in x^2 and x T / U
    with np.errstate(under="ignore"):
        for lo in range(0, src.size, _ERF_CHUNK):
            c, d = src[lo : lo + _ERF_CHUNK], dst[lo : lo + _ERF_CHUNK]
            k = c.size
            tk, zk, nk, dk = t[:k], z[:k], num[:k], den[:k]
            # clipped before squaring, so nothing overflows at +-inf; the
            # entries clipping changes (|x| > 1, and NaN, which the second
            # form passes through) are kept before d, which may be c, is written
            np.clip(c, -1.0, 1.0, out=tk)
            f = np.flatnonzero(tk != c)
            far.append(f + lo)
            x_far.append(c[f])
            np.square(tk, out=zk)
            _polevl(zk, _ERF_T, nk)
            nk *= tk
            np.divide(nk, _p1evl(zk, _ERF_U, dk), out=d)
        # the far entries of every chunk in one pass, not one pass per chunk
        far, x_far = np.concatenate(far), np.concatenate(x_far)
        for lo in range(0, far.size, _ERF_CHUNK):
            xf = x_far[lo : lo + _ERF_CHUNK]
            k = xf.size
            a = np.minimum(np.abs(xf, out=t[:k]), _ERF_CLIP, out=t[:k])
            e = np.square(a, out=z[:k])
            np.negative(e, out=e)
            np.exp(e, out=e)
            e *= _polevl(a, _ERFC_P, num[:k])
            e /= _p1evl(a, _ERFC_Q, den[:k])
            np.subtract(1.0, e, out=e)
            dst[far[lo : lo + k]] = np.copysign(e, xf, out=e)
    return out


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x)."""
    (nx,) = _tape(x)
    xd = x.data
    # phi = 0.5 * (1 + erf(x / sqrt 2)), in place: a fresh temporary per
    # step costs more than the arithmetic at these sizes
    phi = xd / _SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out_data = xd * phi

    def backward(g):
        # g * (phi + x * exp(-x^2 / 2) / sqrt(2 pi))
        d = -0.5 * xd
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= xd
        d += phi
        d *= g
        nx._accumulate(d)

    return _result(out_data, (nx,), backward)


def _max_keepdims(a: np.ndarray, axis: int) -> np.ndarray:
    """np.max(a, axis, keepdims=True) as in-place np.maximum passes over
    the slices of a short axis: the same bits, NaN included, without the
    reduction's per-row loop."""
    a = np.moveaxis(a, axis, -1)
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j : j + 1], out=m)
    return np.moveaxis(m, -1, axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift cancels, so the gradient
    is exact."""
    (nx,) = _tape(x)
    y = x.data - _max_keepdims(x.data, axis)
    np.exp(y, out=y)
    y /= _axis_sums(y, axis)

    def backward(g):
        # y * (g - sum(g * y))
        gy = g * y
        np.subtract(g, _axis_sums(gy, axis), out=gy)
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    nx, ng, nb = _tape(x, gain, bias)
    inv_d = 1.0 / x.shape[-1]
    # C order, so a following affine flattens it without a copy
    xhat = np.subtract(x.data, _axis_sums(x.data) * inv_d, order="C")
    std = np.sqrt(_axis_sums(np.square(xhat)) * inv_d + eps)
    xhat /= std
    out = xhat * gain.data
    out += bias.data
    g_shape, b_shape = gain.shape, bias.shape
    gd = gain.data if nx is not None else None
    sd = std if nx is not None else None
    xh = xhat if nx is not None or ng is not None else None

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
