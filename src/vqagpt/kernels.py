"""Hot inner-loop kernels in plain numpy.

Everything here is a gather, scatter, or fused elementwise update that
dominates profile time outside of BLAS matmuls: the channels-last patch
gather behind ``autodiff.conv2d`` and its disjoint-window adjoint, the
duplicate-safe row scatter behind the embedding gradient, and the fused
Adam update.  Large matrix products are left to numpy BLAS.

The patch kernels work on channels-last (B, H, W, C) images.  A patch row
then lists its kernel taps row-major with the channels of each tap
adjacent, so the gather copies runs of kw*C contiguous values, and the
patch rows times the (kh*kw*C, C_out) weight matrix are the convolution.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _out_size(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, out=None) -> np.ndarray:
    """Gather (B, H, W, C) into (B*OH*OW, kh*kw*C) patch rows, with no padding.

    Row b*OH*OW + p holds the receptive field of output pixel p of sample
    b in kernel-row, then kernel-column, then channel order.  ``x`` may be
    any strided view, padded by the caller; the one copy is the reshape of
    the (B, OH, OW, kh, kw, C) window view, or its copy into ``out``, a
    C-contiguous array of the result's shape, when one is given.
    """
    b, h, w, c = x.shape
    oh, ow = _out_size(h, kh, stride, 0), _out_size(w, kw, stride, 0)
    sb, sh, sw, sc = x.strides
    win = as_strided(x, (b, oh, ow, kh, kw, c), (sb, stride * sh, stride * sw, sh, sw, sc),
                     writeable=False)
    if out is None:
        return win.reshape(b * oh * ow, kh * kw * c)
    out.reshape(win.shape)[...] = win
    return out


def col2im(
    cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of ``im2col`` for disjoint windows (kernel <= stride), as ``conv2d`` uses it.

    The padded image, cut into stride x stride blocks, takes each patch in
    the corner of its block, so the scatter is one block copy and a crop.
    """
    if kh > stride or kw > stride:
        raise ValueError(f"col2im takes disjoint windows only, not {kh}x{kw} at stride {stride}")
    b, h, w, c = x_shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    nh = max(oh, -(-(h + 2 * pad) // stride))
    nw = max(ow, -(-(w + 2 * pad) // stride))
    xp = np.zeros((b, nh * stride, nw * stride, c), dtype=cols.dtype)
    blocks = xp.reshape(b, nh, stride, nw, stride, c)
    cols6 = cols.reshape(b, oh, ow, kh, kw, c)
    blocks[:, :oh, :kh, :ow, :kw] = cols6.transpose(0, 1, 3, 2, 4, 5)
    return xp[:, pad : pad + h, pad : pad + w]


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
    update runs in same-width arithmetic.  Two scratch arrays hold every
    intermediate, in the operation order of the plain expressions.
    """
    dt = param.dtype.type
    lr, b1, b2, eps, c1, c2 = dt(lr), dt(beta1), dt(beta2), dt(eps), dt(bc1), dt(bc2)
    omb1, omb2 = dt(1.0 - beta1), dt(1.0 - beta2)
    s, u = np.empty_like(param), np.empty_like(param)
    m *= b1
    m += np.multiply(omb1, grad, out=s)
    v *= b2
    v += np.multiply(omb2, np.multiply(grad, grad, out=s), out=s)
    np.divide(m, c1, out=s)  # mhat
    np.sqrt(np.divide(v, c2, out=u), out=u)  # sqrt(vhat)
    u += eps
    s /= u
    param -= np.multiply(lr, s, out=s)
