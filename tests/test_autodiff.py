"""Tape-based gradients verified against central finite differences."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from trafficfuse import autodiff
from trafficfuse.autodiff import Tensor, affine, gelu, layer_norm, neighbour_affine, no_grad, softmax


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def central_differences(f, base, h=1e-6):
    """Central-difference gradient of the scalar f(array) at base, flat."""
    work = base.copy()
    flat = work.reshape(-1)
    num = np.zeros(flat.size)
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + h
        fp = f(work)
        flat[k] = keep - h
        fm = f(work)
        flat[k] = keep
        num[k] = (fp - fm) / (2.0 * h)
    return num


def gradcheck(fn, *arrays, h=1e-6, tol=1e-6):
    """Compare tape gradients of a scalar-valued fn against central FD."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    out.backward()
    for i, leaf in enumerate(leaves):
        num = central_differences(
            lambda work: fn(*[Tensor(work if j == i else a) for j, a in enumerate(arrays)]).item(), arrays[i], h
        )
        err = rel_err(leaf.grad.reshape(-1), num)
        assert err < tol, f"gradient mismatch {err}"


RNG = np.random.default_rng(11)


def test_add_mul_broadcast():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    c = RNG.normal(size=(3, 1))
    gradcheck(lambda x, y, z: ((x + y) * z).sum(), a, b, c)


def test_sub_div():
    a = RNG.normal(size=(2, 5)) + 3.0
    b = RNG.normal(size=(5,)) + 3.0
    gradcheck(lambda x, y: (x / y - y).sum(), a, b)


def test_scalar_mixing():
    a = RNG.normal(size=(4,))
    gradcheck(lambda x: (2.0 * x + 1.0 - x / 3.0).sum(), a)
    gradcheck(lambda x: (1.0 / (x + 10.0)).sum(), a)


@pytest.mark.parametrize(
    "sa,sb",
    [
        ((3, 4), (4, 2)),
        ((2, 3, 4), (4, 5)),
        ((2, 3, 4), (2, 4, 5)),
        ((3, 4), (2, 4, 1)),
        ((1, 2, 3, 4), (5, 1, 4, 2)),
    ],
)
def test_matmul_broadcast_shapes(sa, sb):
    a = RNG.normal(size=sa)
    b = RNG.normal(size=sb)
    gradcheck(lambda x, y: (x @ y).sum(), a, b)
    # nonuniform downstream gradient
    w = RNG.normal(size=np.matmul(a, b).shape)
    gradcheck(lambda x, y: ((x @ y) * w).sum(), a, b)


def test_reductions():
    a = RNG.normal(size=(3, 4, 5))
    gradcheck(lambda x: x.sum(), a)
    gradcheck(lambda x: (x.sum(axis=1) ** 2 if False else (x.sum(axis=1) * x.sum(axis=1))).sum(), a)
    gradcheck(lambda x: (x.mean(axis=-1, keepdims=True) * x).sum(), a)
    gradcheck(lambda x: x.mean(), a)


def test_getitem_slices():
    a = RNG.normal(size=(4, 6))
    gradcheck(lambda x: (x[1:3, ::2] * 2.0).sum(), a)
    gradcheck(lambda x: x[:, 0].sum(), a)


def test_getitem_integer_arrays():
    # distinct entries scatter their gradient; repeated ones must accumulate
    a = RNG.normal(size=(5, 3))
    w = RNG.normal(size=(2, 4, 3))
    gradcheck(lambda x: (x[np.array([[4, 0, 2, 1], [3, 1, 0, 2]])] * w).sum(), a)
    gradcheck(lambda x: (x[np.array([[0, 1, 2, 3], [1, 2, 3, 4]])] * w).sum(), a)
    gradcheck(lambda x: (x[:, np.array([2, 2, 0])] * x[:, np.array([2, 2, 0])]).sum(), a)


def test_transpose_reshape():
    a = RNG.normal(size=(2, 3, 4))
    gradcheck(lambda x: (x.swapaxes(-1, -2) @ x).sum(), a)
    gradcheck(lambda x: (x.reshape(6, 4) @ x.reshape(4, 6)).sum(), a)


def test_elementwise_nonlinear():
    a = RNG.normal(size=(3, 4))
    gradcheck(lambda x: (x.exp() / (1.0 + x.exp())).sum(), a)
    gradcheck(lambda x: (x * x + 1.0).sqrt().sum(), a)
    # keep |x| and relu away from their kinks
    b = np.where(np.abs(a) < 0.2, a + 0.5, a)
    gradcheck(lambda x: x.abs().sum(), b)
    gradcheck(lambda x: x.relu().sum(), b)
    gradcheck(lambda x: gelu(x).sum(), a, tol=1e-5)


def test_gelu_tanh_form_tracks_the_exact_form_and_keeps_one_scratch_array():
    x = np.linspace(-10.0, 10.0, 20_001)
    exact = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    assert np.abs(gelu(Tensor(x)).data - exact).max() <= 5e-4
    assert gelu(Tensor(np.zeros(1))).data[0] == 0.0
    # forward and backward raise no float warning over |x| <= 1e3
    wide = Tensor(np.linspace(-1e3, 1e3, 100_001), requires_grad=True)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        gelu(wide).sum().backward()
    assert np.isfinite(wide.grad).all()
    # the backward allocates one input-sized array, the gradient itself
    big = Tensor(RNG.normal(size=1_000_000) * 3.0, requires_grad=True)
    loss = gelu(big).sum()
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert big.grad.shape == big.shape
    assert peak <= 1.05 * big.data.nbytes, f"backward peaked at {peak} bytes"


def _gelu_grad_one_pass(x, g):
    """gelu's gradient as one whole-array pass, in the op order of the
    backward's chunked passes."""
    c, a = autodiff._GELU_C, autodiff._GELU_A
    t = np.tanh((x * x * (c * a) + c) * x)
    d = (x * x * (3.0 * c * a) + c) * x
    d *= 1.0 - t
    d += 1.0
    d *= 2.0 - (1.0 - t)
    d *= 0.5
    return d * g


@pytest.mark.parametrize("size", [1, autodiff._GELU_CHUNK - 1, autodiff._GELU_CHUNK, 3 * autodiff._GELU_CHUNK + 5])
def test_gelu_chunked_backward_matches_one_pass_bit_for_bit(size):
    x = RNG.normal(size=size) * 3.0
    up = RNG.normal(size=size)
    leaf = Tensor(x.copy(), requires_grad=True)
    (gelu(leaf) * up).sum().backward()
    assert np.array_equal(leaf.grad, _gelu_grad_one_pass(x, up))


def test_gelu_chunked_backward_over_swapped_axes_matches_one_pass():
    x = (RNG.normal(size=(5, 7, autodiff._GELU_CHUNK // 9)) * 3.0).swapaxes(0, 2)
    up = RNG.normal(size=x.shape)
    leaf = Tensor(x, requires_grad=True)
    assert not leaf.data.flags.c_contiguous
    (gelu(leaf) * up).sum().backward()
    assert np.array_equal(leaf.grad, _gelu_grad_one_pass(x, up))


def _in_degree_three():
    """Row-normalized 5-node graph: node 0 averages three neighbours."""
    a = np.zeros((5, 5))
    a[0, [1, 2, 4]] = 1.0
    a[1, 2] = a[2, 3] = a[3, 0] = 1.0
    return a / np.maximum(a.sum(axis=1, keepdims=True), 1.0)


def test_neighbour_affine_matches_the_two_op_form_bit_for_bit():
    a = _in_degree_three()
    x = RNG.normal(size=(4, 5, 3))
    w = RNG.normal(size=(3, 2))
    up = RNG.normal(size=(4, 5, 2))
    v_op, g_op = _value_and_grads(lambda xx, ww: (neighbour_affine(a, xx, ww) * up).sum(), [x, w])
    v_two, g_two = _value_and_grads(lambda xx, ww: (((Tensor(a) @ xx) @ ww) * up).sum(), [x, w])
    assert np.array_equal(neighbour_affine(a, Tensor(x), Tensor(w)).data, ((Tensor(a) @ Tensor(x)) @ Tensor(w)).data)
    assert v_op == v_two
    assert np.array_equal(g_op[0], g_two[0]) and np.array_equal(g_op[1], g_two[1])


def test_neighbour_affine_gradient():
    a = _in_degree_three()
    up = RNG.normal(size=(4, 5, 2))
    gradcheck(lambda xx, ww: (neighbour_affine(a, xx, ww) * up).sum(),
              RNG.normal(size=(4, 5, 3)), RNG.normal(size=(3, 2)))


def test_softmax_gradient():
    a = RNG.normal(size=(2, 3, 5)) * 3.0
    w = RNG.normal(size=(2, 3, 5))
    gradcheck(lambda x: (softmax(x) * w).sum(), a)


def test_softmax_rows_sum_to_one():
    a = Tensor(RNG.normal(size=(4, 7)) * 10.0)
    s = softmax(a).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s >= 0).all()


def _softmax_by_reduction(x):
    y = x - np.max(x, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def test_softmax_max_shift_matches_the_reduction_bit_for_bit():
    x = RNG.normal(size=(6, 5, 7)) * 1e300  # large magnitudes
    x[0, 0] = -np.inf  # a whole row of -inf
    x[1, 1, 2] = -np.inf
    x[2, 2, 3] = np.inf
    x[3, 3, 4] = np.nan
    x[4, :, 0] = np.nan
    x[5, 0, :2] = [-0.0, 0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        got = softmax(Tensor(x)).data
        want = _softmax_by_reduction(x)
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _weighted_sum(t):
    """A scalar whose gradient differs in every entry of t."""
    return (t * np.cos(np.arange(t.data.size)).reshape(t.shape)).sum()


_ROWS = np.linspace(0.5, 1.5, 4)

# ops whose backward reads no value of x, only shapes, indices or constants
_KEEPS_NO_INPUT = {
    "add": lambda x: _weighted_sum(x + Tensor(np.ones(4), requires_grad=True)),
    "sub": lambda x: _weighted_sum(x - 1.0),
    "rsub": lambda x: _weighted_sum(1.0 - x),
    "mul_constant": lambda x: _weighted_sum(x * 3.0),
    "reshape": lambda x: _weighted_sum(x.reshape(6, 4)),
    "swapaxes": lambda x: _weighted_sum(x.swapaxes(0, 2)),
    "getitem_slice": lambda x: _weighted_sum(x[1:, ::2]),
    "getitem_array": lambda x: _weighted_sum(x[:, np.array([2, 0, 2])]),
    "sum": lambda x: _weighted_sum(x.sum(axis=1)),
    "mean": lambda x: _weighted_sum(x.mean(axis=-1)),
    "layer_norm": lambda x: _weighted_sum(
        layer_norm(x, Tensor(_ROWS, requires_grad=True), Tensor(-_ROWS, requires_grad=True), 1e-5)
    ),
    "softmax": lambda x: _weighted_sum(softmax(x)),
    "constant_left_matmul": lambda x: _weighted_sum(Tensor(np.outer(_ROWS[:3], _ROWS[1:])) @ x),
}


@pytest.mark.parametrize("name", sorted(_KEEPS_NO_INPUT))
def test_tape_does_not_keep_an_input_its_backward_does_not_read(name):
    op = _KEEPS_NO_INPUT[name]
    a = RNG.normal(size=(2, 3, 4))
    leaf = Tensor(a.copy(), requires_grad=True)
    x = leaf * 2.0
    alive = weakref.ref(x.data)
    loss = op(x)
    del x
    assert alive() is None, f"{name} keeps its input on the tape"
    loss.backward()
    num = central_differences(lambda w: op(Tensor(w) * 2.0).item(), a)
    assert rel_err(leaf.grad.reshape(-1), num) < 1e-6


def test_diamond_reuse_accumulates():
    a = RNG.normal(size=(3,))
    gradcheck(lambda x: (x * x + x.exp() * x).sum(), a)
    # the same tensor feeding two branches of one op
    t = Tensor(a.copy(), requires_grad=True)
    out = (t + t).sum()
    out.backward()
    assert np.allclose(t.grad, 2.0)


def _layer_norm_composite(x, gg, bb, eps=1e-5):
    m = x.mean(axis=-1, keepdims=True)
    v = ((x - m) * (x - m)).mean(axis=-1, keepdims=True)
    return ((x - m) / (v + eps).sqrt()) * gg + bb


def test_layernorm_composite():
    a = RNG.normal(size=(2, 5, 8))
    g = RNG.normal(size=(8,))
    b = RNG.normal(size=(8,))
    gradcheck(lambda x, gg, bb: _layer_norm_composite(x, gg, bb).sum(), a, g, b)


def test_layer_norm_gradient():
    a = RNG.normal(size=(2, 5, 8)) * 2.0 + 1.0
    g = RNG.normal(size=(8,))
    b = RNG.normal(size=(8,))
    w = RNG.normal(size=(2, 5, 8))
    gradcheck(lambda x, gg, bb: (layer_norm(x, gg, bb, 1e-5) * w).sum(), a, g, b)


def test_affine_gradient_on_4d_input():
    x = RNG.normal(size=(2, 3, 4, 5))
    w = RNG.normal(size=(5, 3))
    b = RNG.normal(size=(3,))
    up = RNG.normal(size=(2, 3, 4, 3))
    gradcheck(lambda xx, ww, bb: (affine(xx, ww, bb) * up).sum(), x, w, b)
    gradcheck(lambda xx, ww: ((xx @ ww) * up).sum(), x, w)


def _value_and_grads(fn, arrays):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    out.backward()
    return out.item(), [leaf.grad for leaf in leaves]


@pytest.mark.parametrize(
    "fused,composite,shapes",
    [
        (lambda x, g, b: layer_norm(x, g, b, 1e-5), _layer_norm_composite, [(3, 4, 6), (6,), (6,)]),
        # a (1, k, n) right operand takes the general broadcast matmul path
        (affine, lambda x, w, b: x @ w.reshape(1, *w.shape) + b, [(2, 3, 4, 5), (5, 7), (7,)]),
    ],
)
def test_fused_nodes_match_composite_forms(fused, composite, shapes):
    arrays = [RNG.normal(size=s) for s in shapes]
    up = RNG.normal(size=fused(*[Tensor(a) for a in arrays]).shape)
    v_fused, g_fused = _value_and_grads(lambda *t: (fused(*t) * up).sum(), arrays)
    v_comp, g_comp = _value_and_grads(lambda *t: (composite(*t) * up).sum(), arrays)
    assert abs(v_fused - v_comp) <= 1e-12 * abs(v_comp)
    for gf, gc in zip(g_fused, g_comp):
        assert rel_err(gf, gc) < 1e-12


def test_weight_gradient_skips_the_outer_product_tensor():
    x = Tensor(RNG.normal(size=(8, 200, 6, 24)), requires_grad=True)
    w = Tensor(RNG.normal(size=(24, 24)), requires_grad=True)
    loss = (x @ w).sum()
    outer_bytes = 8 * 200 * 24 * 24 * 8  # the (8, 200, 24, 24) batched x^T g
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.shape == (24, 24) and x.grad.shape == x.shape
    assert peak < outer_bytes, f"backward peaked at {peak} bytes"


def test_mlp_composite():
    x = RNG.normal(size=(6, 4))
    w1 = RNG.normal(size=(4, 8)) * 0.5
    b1 = RNG.normal(size=(8,)) * 0.1
    w2 = RNG.normal(size=(8, 2)) * 0.5

    def mlp(xx, a, c, d):
        h = gelu(xx @ a + c)
        return ((h @ d) * (h @ d)).mean()

    gradcheck(mlp, x, w1, b1, w2, tol=1e-5)


def test_no_grad_builds_no_tape():
    t = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (t * 5.0).sum()
    assert out._node is None and not out.requires_grad


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_grad_not_tracked_for_constants():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    out = (a * b).sum()
    assert not out.requires_grad
