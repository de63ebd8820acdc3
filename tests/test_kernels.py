"""Kernel tests: the numpy kernels against reference oracles.

Equality assertions against the oracles are exact, not approximate (the
fused Adam step too, bit for bit in f32 and f64); the col2im check is the
adjoint identity, which holds to rounding, on every disjoint-window
shape; col2im rejects overlapping windows.
"""

import numpy as np
import pytest

from vqagpt import kernels

from oracles import adam_update_reference, im2col_reference

SHAPES = [
    # (b, c, h, w, kh, kw, stride, pad)
    (2, 3, 8, 8, 3, 3, 1, 1),
    (1, 3, 8, 8, 3, 3, 2, 1),
    (2, 16, 8, 8, 4, 4, 4, 0),
    (3, 1, 5, 7, 2, 3, 1, 0),
    (1, 4, 6, 6, 6, 6, 6, 0),
]


def padded(x: np.ndarray, pad: int) -> np.ndarray:
    """(B, H, W, C) ``x`` with ``pad`` zero rows and columns on each side, as conv2d pads it."""
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


@pytest.mark.parametrize("shape", SHAPES)
def test_im2col_numpy_matches_reference(shape):
    b, c, h, w, kh, kw, stride, pad = shape
    rng = np.random.default_rng(1)
    x = rng.standard_normal((b, h, w, c))
    ref = im2col_reference(x, kh, kw, stride, pad)
    assert np.array_equal(kernels.im2col(padded(x, pad), kh, kw, stride), ref)


# Disjoint windows with gaps between them (stride > kernel) and padding.
STRIDE_PAST_KERNEL = (2, 3, 7, 9, 2, 2, 3, 1)


@pytest.mark.parametrize("shape", SHAPES + [STRIDE_PAST_KERNEL])
def test_col2im_is_adjoint_of_im2col(shape):
    # <im2col(x), y> == <x, col2im(y)> characterizes the adjoint exactly.
    b, c, h, w, kh, kw, stride, pad = shape
    rng = np.random.default_rng(2)
    x = rng.standard_normal((b, h, w, c))
    cols = kernels.im2col(padded(x, pad), kh, kw, stride)
    y = rng.standard_normal(cols.shape)
    if kh > stride or kw > stride:
        with pytest.raises(ValueError, match="disjoint windows only"):
            kernels.col2im(y, x.shape, kh, kw, stride, pad)
        return
    back = kernels.col2im(y, x.shape, kh, kw, stride, pad)
    lhs = float((cols * y).sum())
    rhs = float((x * back).sum())
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_scatter_add_rows_accumulates_duplicates():
    rng = np.random.default_rng(3)
    ids = np.array([0, 2, 2, 5, 0, 2], dtype=np.int64)
    rows = rng.standard_normal((6, 4))
    expected = np.zeros((6, 4))
    np.add.at(expected, ids, rows)
    got = np.zeros((6, 4))
    kernels.scatter_add_rows(got, ids, rows)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_update_is_bitwise_the_plain_expression(dtype):
    rng = np.random.default_rng(4)
    p, m, v = rng.standard_normal(257).astype(dtype), np.zeros(257, dtype), np.zeros(257, dtype)
    rp, rm, rv = p.copy(), m.copy(), v.copy()
    beta1, beta2 = 0.9, 0.95
    for step in range(1, 6):
        grad = (rng.standard_normal(257) * 10.0**-step).astype(dtype)
        grad[::7] = 0
        hyper = (4e-4, beta1, beta2, 1e-8, 1.0 - beta1**step, 1.0 - beta2**step)
        kernels.adam_update(p, grad, m, v, *hyper)
        adam_update_reference(rp, grad, rm, rv, *hyper)
        for a, b in ((p, rp), (m, rm), (v, rv)):
            assert a.dtype == dtype and a.tobytes() == b.tobytes(), step
