"""Hot inner-loop kernels in plain numpy.

Everything here is a gather, scatter, or fused elementwise update that
dominates profile time outside of BLAS matmuls: the im2col/col2im pair
behind ``autodiff.conv2d``, the duplicate-safe row scatter behind the
embedding gradient, and the fused Adam update.  Large matrix products are
left to numpy BLAS.
"""

from __future__ import annotations

import numpy as np


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (B, C, H, W) into (B, OH*OW, C*kh*kw) patch rows.

    Row p of sample b holds the receptive field of output pixel p in
    channel-major, then kernel-row, then kernel-column order, which makes
    convolution a single matmul against a (C*kh*kw, C_out) weight matrix.
    """
    b, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :, :] = xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    return np.ascontiguousarray(cols.transpose(0, 4, 5, 1, 2, 3)).reshape(
        b, oh * ow, c * kh * kw
    )


def col2im(
    cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of ``im2col``: scatter patch rows back, summing overlaps."""
    b, c, h, w = x_shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols6 = cols.reshape(b, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            # Within one (i, j) the strided windows are disjoint, so += is safe.
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[
                :, :, i, j, :, :
            ]
    if pad:
        return np.ascontiguousarray(xp[:, :, pad : pad + h, pad : pad + w])
    return xp


def scatter_add_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """table[ids[i]] += rows[i] with repeated ids accumulating. In place."""
    np.add.at(table, ids, rows)


def adam_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    bc1: float,
    bc2: float,
) -> None:
    """One fused Adam step, in place.  bc1/bc2 are 1 - beta**t, precomputed.

    Every coefficient is rounded to the parameter dtype first, so the whole
    update runs in same-width arithmetic.
    """
    dt = param.dtype.type
    lr, b1, b2, eps, c1, c2 = dt(lr), dt(beta1), dt(beta2), dt(eps), dt(bc1), dt(bc2)
    omb1, omb2 = dt(1.0 - beta1), dt(1.0 - beta2)
    m *= b1
    m += omb1 * grad
    v *= b2
    v += omb2 * (grad * grad)
    mhat = m / c1
    vhat = v / c2
    param -= lr * (mhat / (np.sqrt(vhat) + eps))
