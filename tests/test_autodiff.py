"""Tensor engine tests: forward oracles, finite-difference gradients, Adam.

Gradient checks run at float64 with h = 1e-5 and a 1e-4 relative-error
bound; the relative error uses a 1e-4 denominator floor so near-zero
entries compare absolutely.
"""

import math

import numpy as np
import pytest

import vqagpt.autodiff as ad
from vqagpt.autodiff import AdamState, Tensor, adam_step

from oracles import (
    adam_first_step_delta,
    conv2d_gemm_reference,
    conv2d_reference,
    fd_gradient,
    gelu_erf_reference,
    gelu_reference,
    layer_norm_reference,
    max_rel_err,
    softmax_reference,
    triple_loop_matmul,
)

H = 1e-5
TOL = 1e-4


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def check_grads(build_loss, tensors):
    """build_loss() -> scalar Tensor over ``tensors``; FD-check each of them."""
    for x in tensors:
        x.grad = None
    loss = build_loss()
    ad.backward(loss)
    for i, x in enumerate(tensors):
        fd = fd_gradient(lambda: float(build_loss().data), x.data, h=H)
        err = max_rel_err(x.grad, fd, floor=TOL)
        assert err < TOL, f"tensor {i}: rel err {err}"


# ---------------------------------------------------------------------------
# forward-value oracles


def test_matmul_identity_and_scalar():
    a = t([[1.0, 2.0], [3.0, 4.0]], grad=False)
    eye = t(np.eye(2), grad=False)
    assert np.array_equal(ad.matmul(a, eye).data, a.data)
    assert np.array_equal(ad.matmul(t([[1.0]], False), t([[3.0]], False)).data, [[3.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    got = ad.matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - triple_loop_matmul(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_softmax_uniform_shift_closed_form():
    x = ad.softmax(Tensor(np.zeros(3)))
    assert np.allclose(x.data, 1.0 / 3.0, atol=0, rtol=1e-15)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(7)
    a = ad.softmax(Tensor(v)).data
    b = ad.softmax(Tensor(v + 3.7)).data
    assert np.max(np.abs(a - b)) < 1e-12
    two = ad.softmax(Tensor(np.array([0.0, np.log(2.0)]))).data
    assert np.max(np.abs(two - np.array([1 / 3, 2 / 3]))) < 1e-12
    batch = rng.standard_normal((4, 5, 6))
    rows = ad.softmax(Tensor(batch)).data
    assert np.all(rows >= 0) and np.all(rows <= 1)
    assert np.max(np.abs(rows.sum(axis=-1) - 1.0)) < 1e-6
    assert np.max(np.abs(rows - np.apply_along_axis(softmax_reference, -1, batch))) < 1e-12


def test_softmax_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ad.softmax(Tensor(np.array([0.0, np.nan])))


def test_gelu_zero_and_reference():
    assert ad.gelu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]
    x = np.linspace(-3, 3, 13)
    assert np.max(np.abs(ad.gelu(Tensor(x)).data - gelu_reference(x))) < 1e-12


def test_gelu_tanh_form_stays_within_5e_4_of_the_erf_form():
    x = np.linspace(-6, 6, 1201)
    assert np.max(np.abs(gelu_reference(x) - gelu_erf_reference(x))) < 5e-4
    assert np.max(np.abs(ad.gelu(Tensor(x)).data - gelu_erf_reference(x))) < 5e-4


def test_layer_norm_constant_vector_is_near_zero():
    x = Tensor(np.full((4, 6), 2.5))
    out = ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
    assert np.max(np.abs(out.data)) < 1e-3  # epsilon absorbs the zero variance


def test_layer_norm_f32_stays_within_1e_6_of_the_reference():
    rng = np.random.default_rng(12)
    x = (rng.standard_normal((8, 16, 64)) * 3.0 + 2.0).astype(np.float32)
    gain = (1.0 + 0.1 * rng.standard_normal(64)).astype(np.float32)
    bias = (0.1 * rng.standard_normal(64)).astype(np.float32)
    out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert out.dtype == np.float32
    assert np.max(np.abs(out - layer_norm_reference(x, gain, bias))) < 1e-6


def test_cross_entropy_uniform_logits_is_log_c():
    for c in (2, 5, 18):
        logits = Tensor(np.zeros((3, c)))
        loss = ad.cross_entropy(logits, np.array([0, 1, c - 1]))
        assert abs(float(loss.data) - np.log(c)) < 1e-12


def test_cross_entropy_label_range_error():
    with pytest.raises(ValueError, match="label out of range"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError, match="label out of range"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


def test_embedding_lookup_forward_and_range_error():
    table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
    ids = np.array([[0, 3], [1, 1]])
    out = ad.embedding_lookup(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    with pytest.raises(IndexError):
        ad.embedding_lookup(table, np.array([4]))
    with pytest.raises(IndexError):
        ad.embedding_lookup(table, np.array([-1]))


def test_conv2d_matches_scipy_reference():
    rng = np.random.default_rng(2)
    for stride, pad in ((1, 0), (1, 1), (2, 1), (4, 0)):
        x = rng.standard_normal((2, 8, 8, 3))
        w = rng.standard_normal((5, 3, 3, 3)) if stride != 4 else rng.standard_normal((5, 3, 4, 4))
        b = rng.standard_normal(5)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).data
        ref = conv2d_reference(x, w, b, stride, pad)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-10


# Every window layout conv2d branches on: overlapping windows take the
# input gradient as a gather of the dilated output gradient, disjoint ones
# (kernel <= stride) as a block copy through col2im.
CONV_LAYOUTS = [
    # (c_in, c_out, h, w, k, stride, pad)
    (3, 5, 6, 6, 3, 1, 1),  # overlapping, C_in != C_out
    (2, 3, 7, 8, 3, 2, 1),  # overlapping, stride 2, leftover column
    (3, 4, 8, 8, 4, 4, 0),  # tiling
    (3, 4, 9, 9, 4, 4, 0),  # tiling, leftover row and column
    (2, 3, 8, 8, 2, 3, 0),  # stride > kernel
]


@pytest.mark.parametrize("layout", CONV_LAYOUTS)
def test_conv2d_window_layouts_match_scipy_and_finite_differences(layout):
    c_in, c_out, h, w_, k, stride, pad = layout
    rng = np.random.default_rng(11)
    x = t(rng.standard_normal((2, h, w_, c_in)))
    w = t(rng.standard_normal((c_out, c_in, k, k)))
    b = t(rng.standard_normal(c_out))
    got = ad.conv2d(x, w, b, stride=stride, pad=pad).data
    ref = conv2d_reference(x.data, w.data, b.data, stride, pad)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-10
    m = Tensor(rng.standard_normal(ref.shape))
    check_grads(lambda: ad.sum_(ad.mul(ad.conv2d(x, w, b, stride=stride, pad=pad), m)), [x, w, b])


# (c_in, c_out, size, k, stride, pad): the tokenizer's residual pair and
# grid conv at desk scale, and the stride-2 layout of test_grad_conv2d.
BLOCKED_CONV_LAYOUTS = [(8, 16, 16, 3, 1, 1), (16, 8, 16, 3, 1, 1), (8, 64, 16, 8, 8, 0),
                        (3, 4, 6, 3, 2, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", BLOCKED_CONV_LAYOUTS)
def test_blocked_conv2d_is_bitwise_the_whole_batch_gemm(layout, dtype):
    # conv2d gathers and multiplies CONV_BLOCK_ROWS patch rows at a time;
    # at these batches the blocks end mid-batch and the last one is short.
    # Its output and all three gradients must be the whole-batch
    # formulation's bytes, recording or not.
    c_in, c_out, size, k, stride, pad = layout
    rng = np.random.default_rng(70)
    for batch in (1, 3, 4, 5, 17, 64):
        x = rng.standard_normal((batch, size, size, c_in)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype)
        out = ad.conv2d(*(Tensor(a, requires_grad=True) for a in (x, w, b)), stride, pad)
        g = rng.standard_normal(out.shape).astype(dtype)
        want = conv2d_gemm_reference(x, w, b, stride, pad, g)
        ad.backward(out, g)
        got = (out.data,) + tuple(p.grad for p in out._parents)
        for name, a, e in zip(("out", "dx", "dw", "db"), got, want):
            assert a.dtype == e.dtype and a.tobytes() == e.tobytes(), (name, batch)
        with ad.no_grad():
            quiet = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        assert quiet.tobytes() == want[0].tobytes(), batch


# ---------------------------------------------------------------------------
# gradient checks, op by op


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(3)
    a = t(rng.standard_normal((4, 5)))
    b = t(rng.standard_normal((4, 5)))
    c = t(rng.standard_normal(5))  # broadcast addend
    check_grads(lambda: ad.sum_(ad.mul(ad.add(a, c), b)), [a, b, c])


def test_grad_matmul_2d_and_batched():
    rng = np.random.default_rng(4)
    a = t(rng.standard_normal((3, 4)))
    b = t(rng.standard_normal((4, 2)))
    check_grads(lambda: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])
    ab = t(rng.standard_normal((2, 3, 4)))
    bb = t(rng.standard_normal((4, 6)))  # broadcast over the batch dim
    check_grads(lambda: ad.mean(ad.gelu(ad.matmul(ab, bb))), [ab, bb])


def test_grad_linear_2d_and_3d():
    rng = np.random.default_rng(13)
    w = t(rng.standard_normal((4, 5)))
    b = t(rng.standard_normal(5))
    for shape in ((3, 4), (2, 3, 4)):
        x = t(rng.standard_normal(shape))
        m = Tensor(rng.standard_normal(shape[:-1] + (5,)))
        check_grads(lambda: ad.sum_(ad.mul(ad.linear(x, w, b), m)), [x, w, b])


def causal_mask(length, dtype=np.float64):
    return np.triu(np.full((length, length), -1e9, dtype=dtype), k=1)


def key_pad_mask(key_pad, dtype=np.float64):
    """(B, 1, L, L): the causal mask plus -1e9 on every padding key."""
    pad = np.where(key_pad, -1e9, 0.0).astype(dtype)
    return causal_mask(key_pad.shape[1], dtype)[None, None] + pad[:, None, None, :]


def unfused_attention(qkv, mask, n_heads):
    """The attention core as separate tape ops: matmul, mul, add, softmax, matmul."""
    bsz, length, width = qkv.shape
    d = width // 3
    hd = d // n_heads

    def heads(s):
        part = ad.getitem(qkv, (Ellipsis, slice(s * d, (s + 1) * d)))
        return ad.transpose(ad.reshape(part, (bsz, length, n_heads, hd)), (0, 2, 1, 3))

    q, k, v = heads(0), heads(1), heads(2)
    scale = Tensor(np.asarray(1.0 / math.sqrt(hd), dtype=qkv.dtype))
    att = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)
    att = ad.softmax(ad.add(att, Tensor(mask)))
    o = ad.matmul(att, v)
    return ad.reshape(ad.transpose(o, (0, 2, 1, 3)), (bsz, length, d))


KEY_PAD = np.array([[False] * 5, [False, False, False, True, True]])


@pytest.mark.parametrize("masked", ["causal", "key_pad", "queries_from_row_2",
                                    "queries_of_rows_1_to_3"])
def test_grad_attention(masked):
    # Rows outside [first, end) give keys and values only: their dq is zero.
    rng = np.random.default_rng(14)
    qkv = t(rng.standard_normal((2, 5, 18)))  # d = 6, 2 heads of 3
    rows = {"queries_from_row_2": (2, 5), "queries_of_rows_1_to_3": (1, 4)}
    first, end = rows.get(masked, (0, 5))
    mask = key_pad_mask(KEY_PAD) if masked == "key_pad" else causal_mask(5)[first:end]
    m = Tensor(rng.standard_normal((2, end - first, 6)))
    check_grads(lambda: ad.sum_(ad.mul(ad.attention(qkv, mask, 2, first, end), m)), [qkv])
    dq = qkv.grad[..., :6]  # exact zeros: a stale buffer can hold values too small for FD
    assert not dq[:, :first].any() and not dq[:, end:].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_forward_is_bitwise_the_unfused_composition(dtype):
    rng = np.random.default_rng(15)
    qkv = Tensor(rng.standard_normal((3, 7, 24)).astype(dtype))  # d = 8, 4 heads of 2
    key_pad = np.zeros((3, 7), dtype=bool)
    key_pad[1, 5:] = key_pad[2, 3:] = True
    for mask in (causal_mask(7, dtype), key_pad_mask(key_pad, dtype)):
        fused = ad.attention(qkv, mask, 4).data
        assert fused.dtype == dtype
        assert fused.tobytes() == unfused_attention(qkv, mask, 4).data.tobytes()


def test_grad_gelu_softmax():
    rng = np.random.default_rng(5)
    x = t(rng.standard_normal((3, 7)))
    w = t(rng.standard_normal(7))
    check_grads(lambda: ad.sum_(ad.mul(ad.gelu(x), w)), [x, w])
    check_grads(lambda: ad.sum_(ad.mul(ad.softmax(x), w)), [x, w])


def test_grad_layer_norm():
    rng = np.random.default_rng(6)
    x = t(rng.standard_normal((2, 3, 5)))
    g = t(rng.standard_normal(5))
    b = t(rng.standard_normal(5))
    w = Tensor(rng.standard_normal((2, 3, 5)))
    check_grads(lambda: ad.sum_(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b])


def test_grad_embedding_lookup_accumulates_repeats():
    rng = np.random.default_rng(7)
    table = t(rng.standard_normal((6, 4)))
    ids = np.array([0, 2, 2, 5, 0])
    w = Tensor(rng.standard_normal((5, 4)))
    check_grads(lambda: ad.sum_(ad.mul(ad.embedding_lookup(table, ids), w)), [table])


def test_grad_cross_entropy():
    rng = np.random.default_rng(8)
    logits = t(rng.standard_normal((6, 5)))
    labels = np.array([0, 1, 2, 3, 4, 2])
    check_grads(lambda: ad.cross_entropy(logits, labels), [logits])


def test_grad_conv2d():
    rng = np.random.default_rng(9)
    x = t(rng.standard_normal((2, 6, 6, 3)))
    w = t(rng.standard_normal((4, 3, 3, 3)))
    b = t(rng.standard_normal(4))
    m = Tensor(rng.standard_normal((2, 3, 3, 4)))
    check_grads(
        lambda: ad.sum_(ad.mul(ad.conv2d(x, w, b, stride=2, pad=1), m)), [x, w, b]
    )


def test_grad_structural_ops():
    rng = np.random.default_rng(10)
    a = t(rng.standard_normal((3, 4)))
    b = t(rng.standard_normal((2, 4)))
    w = Tensor(rng.standard_normal((5, 4)))

    def loss():
        cat = ad.concat([a, b], axis=0)  # (5, 4)
        moved = ad.transpose(cat, (1, 0))  # (4, 5)
        back = ad.reshape(moved, (5, 4))
        return ad.sum_(ad.mul(back, w))

    check_grads(loss, [a, b])
    c = t(rng.standard_normal((4, 6)))
    w2 = Tensor(rng.standard_normal((2, 3)))
    check_grads(lambda: ad.sum_(ad.mul(ad.getitem(c, (slice(1, 3), slice(None, None, 2))), w2)), [c])
    d = t(rng.standard_normal((3, 4)))
    check_grads(lambda: ad.getitem(ad.mean(ad.mul(d, d), axis=1, keepdims=False), 1), [d])


def test_getitem_rejects_array_and_list_indices():
    # Gathers by id belong to embedding_lookup; getitem keeps basic indexing.
    x = t(np.arange(12.0).reshape(3, 4))
    for idx in (np.array([0, 2]), [0, 2], (slice(None), np.array([1, 1])), (0, [1, 3])):
        with pytest.raises(TypeError, match="basic indices"):
            ad.getitem(x, idx)
    with pytest.raises(TypeError, match="basic indices"):
        ad.getitem(x, np.array([True, False, True]))
    basic = (slice(1, None), None, Ellipsis, 2)
    assert np.array_equal(ad.getitem(x, basic).data, x.data[basic])


def test_backward_sum_gives_ones_and_two_path_accumulation():
    x = t(np.array([1.0, -2.0, 3.0]))
    loss = ad.sum_(x)
    ad.backward(loss)
    assert np.array_equal(x.grad, np.ones(3))

    y = t(np.array([1.0, -2.0, 3.0]))
    loss2 = ad.sum_(ad.mul(y, y))  # d/dy sum(y*y) = 2y
    ad.backward(loss2)
    assert np.allclose(y.grad, 2 * y.data, rtol=0, atol=1e-15)

    z = t(np.array([0.5, 1.5]))
    loss3 = ad.add(ad.sum_(ad.mul(z, z)), ad.sum_(z))  # two paths: 2z + 1
    ad.backward(loss3)
    assert np.allclose(z.grad, 2 * z.data + 1.0, rtol=0, atol=1e-15)


def test_backward_errors():
    x = t(np.ones((2, 2)))
    y = ad.mul(x, x)
    with pytest.raises(RuntimeError, match="non-scalar"):
        ad.backward(y)
    loss = ad.sum_(y)
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="already ran"):
        ad.backward(loss)
    with pytest.raises(RuntimeError, match="does not require grad"):
        ad.backward(ad.sum_(Tensor(np.ones(3))))


def test_no_grad_disables_graph():
    x = t(np.ones(3))
    with ad.no_grad():
        y = ad.sum_(ad.mul(x, x))
    assert not y.requires_grad
    assert y._parents == ()


def test_unbroadcast_shapes():
    a = t(np.ones((2, 1, 3)))
    b = t(np.ones((4, 3)))
    out = ad.add(a, b)
    assert out.shape == (2, 4, 3)
    ad.backward(ad.sum_(out))
    assert a.grad.shape == (2, 1, 3)
    assert np.all(a.grad == 4)
    assert b.grad.shape == (4, 3)
    assert np.all(b.grad == 2)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_matches_closed_form():
    rng = np.random.default_rng(11)
    p = Tensor(rng.standard_normal(10), requires_grad=True)
    g = rng.standard_normal(10)
    before = p.data.copy()
    state = AdamState(lr=1e-3)
    adam_step(p.data, g, state)
    delta = p.data - before
    expected = adam_first_step_delta(g, lr=1e-3, eps=state.eps)
    assert np.max(np.abs(delta - expected)) < 1e-12
    assert state.step == 1


def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    before = p.data.copy()
    state = AdamState(lr=0.5)
    adam_step(p.data, np.zeros(2), state)
    assert np.array_equal(p.data, before)


def test_adam_missing_or_misshapen_gradient_errors():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="shape"):
        adam_step(p.data, np.ones(4), AdamState())


def test_adam_default_lr_is_1e_minus_5():
    assert AdamState().lr == 1e-5


def test_adam_moments_converge_to_constant_gradient():
    # With a constant gradient the step size approaches -lr * sign(g).
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    g = np.array([0.3, -0.7])
    state = AdamState(lr=1e-2)
    for _ in range(200):
        prev = p.data.copy()
        adam_step(p.data, g, state)
    last_delta = p.data - prev
    assert np.max(np.abs(last_delta - (-1e-2) * np.sign(g))) < 1e-4
