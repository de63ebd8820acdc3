"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and records, per operation, a closure that
maps the output gradient onto the input gradients.  The graph is built
define-by-run; ``backward`` walks it once in reverse topological order and
accumulates into ``.grad``, so a value used in several places receives the
sum of all its downstream contributions.

The decoder runs on two fused ops: ``linear`` (x @ W + b, one node per
projection) and ``attention`` (a block's attention core, one node).
``getitem`` drops the rows before the readout from the last block
(``model.decoder_forward``).  The unfused ``softmax``, ``mul``, ``sum_``,
``mean`` and ``transpose`` serve only tests, and they, ``sub`` and ``neg``
stay because the span tracer in ``perfbench/spans.py`` wraps every op it
names.

Design constraints, in rough order of importance:

* Gradients must survive a finite-difference check at 1e-4 relative error,
  so every activation here is smooth (tanh-form GELU, softmax, layer norm).
* Arrays keep whatever dtype they were created with; nothing silently
  casts.  Precision is chosen where parameters are created (f32 for
  training speed, f64 for gradient checking) and propagates from there.
* Calling ``backward`` twice on the same graph would double-accumulate,
  so the second call raises instead.

Allocator policy, on glibc only, with fixed values (no key, flag or
variable): ``keep_heap_resident`` sets the mmap threshold (32 MiB) and the
trim threshold (512 MiB), so a train step's freed arrays stay on a heap
that does not shrink and the next step faults no pages.  Both are needed,
since any ``mallopt`` call freezes glibc's self-tuning thresholds.  Each
process allocates from one thread, in the same order every step.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import kernels

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715
# Patch rows per ``conv2d`` block (4 samples of a 16x16 map): they stay in
# cache from the gather to the GEMM.
CONV_BLOCK_ROWS = 1024


class no_grad:
    """Context manager that disables graph recording (for eval loops)."""

    recording = True  # whether ops record graph nodes, outside every no_grad

    def __enter__(self):
        self._prev, no_grad.recording = no_grad.recording, False
        return self

    def __exit__(self, *exc):
        no_grad.recording = self._prev
        return False


def keep_heap_resident() -> bool:
    """Set the allocator policy of the module docstring; False where there is no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h.
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 512 << 20))


class Tensor:
    """An ndarray with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data) expects an array-like, not a Tensor")
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._done = False

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    Ownership rule: a first contribution is copied in unless ``fresh``
    says the op has just allocated ``g`` (of ``t``'s shape and dtype) and
    nobody else holds it; then ``t.grad`` adopts it.  Anything else is
    copied: ``g`` may be a view of another node's gradient (``reshape``,
    ``transpose``, ``concat``), ``add`` hands the same ``g`` to both of its
    parents, and ``backward`` seeds the root with the caller's array.
    """
    if t.grad is not None:
        t.grad += g
    elif fresh:
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if no_grad.recording:
        grad_parents = tuple(p for p in parents if p.requires_grad)
        if grad_parents:
            out.requires_grad = True
            out._parents = grad_parents
            out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g):
        _accum(a, -g)

    return _make(-a.data, (a,), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product via np.matmul broadcasting; inputs must be >=2-D."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects tensors with at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul shape mismatch: {tuple(a.data.shape)} x {tuple(b.data.shape)}"
        )

    def backward_fn(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(np.matmul(a.data, b.data), (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for rows x (..., k), a weight w (k, n) and a bias b (n,).

    The forward is np.matmul's stack of per-sample products, then the bias
    added in place, so a sample's output does not depend on its batch.  The
    backward folds every leading dim into the rows of one GEMM per gradient
    and takes the bias gradient as one row sum.
    """
    if x.data.ndim < 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(
            f"linear shape mismatch: {tuple(x.data.shape)} x {tuple(w.data.shape)}"
        )
    out = np.matmul(x.data, w.data)
    out += b.data

    def backward_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accum(x, np.matmul(g2, w.data.T).reshape(x.data.shape), fresh=True)
        if w.requires_grad:
            _accum(w, np.matmul(x.data.reshape(-1, x.data.shape[-1]).T, g2))
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))

    return _make(out, (x, w, b), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward_fn(g):
        _accum(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward_fn)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def backward_fn(g):
        _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(t, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward_fn)


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing only; gathers by id go through ``embedding_lookup``."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    if any(isinstance(i, (np.ndarray, list)) for i in parts):
        raise TypeError("getitem takes basic indices only; gather by id with embedding_lookup")

    def backward_fn(g):
        z = np.zeros_like(a.data)
        z[idx] += g  # basic slices never alias
        _accum(a, z)

    return _make(a.data[idx], (a,), backward_fn)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape).astype(a.data.dtype, copy=False))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward_fn)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in np.atleast_1d(axis)]
    )

    def backward_fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        scaled = gg / count
        _accum(a, np.broadcast_to(scaled, a.data.shape).astype(a.data.dtype, copy=False))

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward_fn)


# ---------------------------------------------------------------------------
# neural-net ops


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh form GPT-2 uses: 0.5 x (1 + t), t = tanh(c (x + k x^3)).

    Here c = sqrt(2/pi) and k = 0.044715.  It is smooth everywhere, so
    finite differences agree, and it stays within 5e-4 of the erf form.
    The derivative factors as 0.5 (1 + t)(1 + c x (1 + 3k x^2)(1 - t)).
    The backward builds it in one new array and in ``t``'s buffer, which no
    one reads after it: a graph's backward runs once.
    """
    x = a.data
    t = x * x
    t *= _GELU_C * _GELU_K
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def backward_fn(g):
        d = x * x
        d *= 3.0 * _GELU_C * _GELU_K
        d += _GELU_C
        d *= x
        np.subtract(1.0, t, out=t)
        d *= t
        d += 1.0
        np.subtract(2.0, t, out=t)  # 1 + t
        d *= t
        d *= 0.5
        d *= g
        _accum(a, d, fresh=True)

    return _make(out, (a,), backward_fn)


def _softmax_(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of ``x`` over its last axis, in place; returns ``x``.

    Additive masks of -1e9 underflow to exactly 0.0 after the shift and
    exp, which is what makes the causal-masking test exact rather than
    approximate.  numpy's max over a short last axis costs ~0.1 us a row,
    so the row maxima are taken over the first axis of the transposed
    rows; a max is exact, so this equals ``x.max(axis=-1)`` bit for bit.
    """
    rows_t = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
    x -= rows_t.max(axis=0).reshape(x.shape[:-1] + (1,))
    np.exp(x, out=x)
    x /= np.einsum("...i->...", x)[..., None]
    return x


def _softmax_grad_(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Turn ``g``, the gradient at softmax output ``y``, into the input gradient in place."""
    g -= np.einsum("...i,...i->...", g, y)[..., None]
    g *= y
    return g


def softmax(a: Tensor) -> Tensor:
    """Max-shifted softmax over the last axis (see ``_softmax_``); NaN input raises ``ValueError``."""
    x = a.data
    if np.isnan(x).any():
        raise ValueError("softmax received NaN input")
    y = _softmax_(x.copy())

    def backward_fn(g):
        _accum(a, _softmax_grad_(g.copy(), y))

    return _make(y, (a,), backward_fn)


def attention(qkv: Tensor, mask: np.ndarray, n_heads: int, first: int = 0,
              end: int | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over ``qkv`` (B, L, 3d), as one tape node.

    q, k and v are views of the three column blocks of ``qkv``, each split
    into ``n_heads`` heads; the queries are rows ``first`` to ``end`` (L
    when None), the keys and values all L rows.  ``mask``, (Q, L) or
    (B, 1, Q, L) for the Q = end - first queries, is added to the scaled
    scores, which are softmaxed in place.  The output is the heads' value
    mixtures side by side, (B, Q, d).  The backward writes dq (zero outside
    [first, end)), dk and dv into one (B, L, 3d) array.
    """
    bsz, length, width = qkv.data.shape
    if width % (3 * n_heads):
        raise ValueError(f"attention: width {width} is not 3 x {n_heads} heads")
    end = length if end is None else end
    hd = width // (3 * n_heads)
    scale = 1.0 / math.sqrt(hd)
    # (B, L, 3, heads, hd) -> three (B, heads, L, hd) views
    q, k, v = qkv.data.reshape(bsz, length, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)
    q = q[:, :, first:end]
    att = np.matmul(q, k.swapaxes(-1, -2))
    att *= scale
    att += mask
    _softmax_(att)
    out = np.matmul(att, v).transpose(0, 2, 1, 3).reshape(bsz, end - first, width // 3)

    def backward_fn(g):
        go = g.reshape(bsz, end - first, n_heads, hd).transpose(0, 2, 1, 3)
        dqkv = np.empty_like(qkv.data)
        dq, dk, dv = dqkv.reshape(bsz, length, 3, n_heads, hd).transpose(2, 0, 3, 1, 4)
        np.matmul(att.swapaxes(-1, -2), go, out=dv)
        ds = _softmax_grad_(np.matmul(go, v.swapaxes(-1, -2)), att)
        ds *= scale
        dq[:, :, :first] = 0
        dq[:, :, end:] = 0
        np.matmul(ds, k, out=dq[:, :, first:end])
        np.matmul(ds.swapaxes(-1, -2), q, out=dk)
        _accum(qkv, dqkv, fresh=True)

    return _make(out, (qkv,), backward_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply learned gain and bias.

    The sums are ``np.einsum`` reductions, which add a row's entries in
    the same order whatever the number of rows.  The backward overwrites
    ``xhat``, which no one reads after it: it runs once.
    """
    n = a.data.shape[-1]
    x = a.data.reshape(-1, n)
    xhat = x - (np.einsum("ij->i", x) / n)[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / n
    inv = (1.0 / np.sqrt(var + eps))[:, None]
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        if gain.requires_grad:
            _accum(gain, np.einsum("ij,ij->j", g2, xhat))
        if bias.requires_grad:
            _accum(bias, np.einsum("ij->j", g2))
        if a.requires_grad:
            dxhat = g2 * gain.data
            mean_d = np.einsum("ij->i", dxhat) / n
            proj = np.multiply(xhat, (np.einsum("ij,ij->i", dxhat, xhat) / n)[:, None], out=xhat)
            dxhat -= mean_d[:, None]
            dxhat -= proj
            dxhat *= inv
            _accum(a, dxhat.reshape(a.data.shape), fresh=True)

    return _make(out.reshape(a.data.shape), (a, gain, bias), backward_fn)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer id; grads scatter-add back."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )

    def backward_fn(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        kernels.scatter_add_rows(
            table.grad, ids.reshape(-1), g.reshape(-1, table.data.shape[-1])
        )

    return _make(table.data[ids], (table,), backward_fn)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits`` (B, C)."""
    labels = np.asarray(labels)
    x = logits.data
    if x.ndim != 2:
        raise ValueError("cross_entropy expects (batch, classes) logits")
    b = x.shape[0]
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= x.shape[1]):
        raise ValueError(
            f"label out of range [0, {x.shape[1]}): min {labels.min()}, max {labels.max()}"
        )
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(z)
    nll = -log_probs[np.arange(b), labels]
    out = np.asarray(nll.mean(), dtype=x.dtype)

    def backward_fn(g):
        p = e / z
        p[np.arange(b), labels] -= 1.0
        _accum(logits, p * (np.asarray(g) / b), fresh=True)

    return _make(out, (logits,), backward_fn)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation of channels-last maps as a patch gather and a GEMM.

    x: (B, H, W, C_in), w: (C_out, C_in, kh, kw), b: (C_out,); the output is
    (B, OH, OW, C_out).  The input is padded once; then, block by block of
    ``CONV_BLOCK_ROWS`` patch rows, ``kernels.im2col`` gathers the rows and
    one GEMM per sample meets them with the weight permuted to
    (C_out, kh, kw, C_in), so the bits do not depend on the blocks.

    Backward: the bias and weight gradients are one reduction each over all
    B*OH*OW rows.  Where windows overlap (kernel > stride), the input
    gradient is the transposed convolution: the gather of the stride-dilated,
    padded output gradient against the flipped weight.  Where they do not,
    it is the output gradient's rows times the weight, put back by
    ``kernels.col2im`` as a block copy.
    """
    bsz, h, wi, c_in = x.data.shape
    c_out, c_in2, kh, kw = w.data.shape
    if c_in != c_in2:
        raise ValueError(f"conv2d channel mismatch: input {c_in}, weight {c_in2}")
    xp = x.data
    if pad:
        xp = np.zeros((bsz, h + 2 * pad, wi + 2 * pad, c_in), dtype=x.data.dtype)
        xp[:, pad : pad + h, pad : pad + wi] = x.data
    wmat = w.data.transpose(0, 2, 3, 1).reshape(c_out, -1)  # (C_out, kh*kw*C_in)
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wi + 2 * pad - kw) // stride + 1
    rows = oh * ow
    per = max(1, CONV_BLOCK_ROWS // rows)  # samples per block
    out = np.empty((bsz, rows, c_out), dtype=np.result_type(xp, wmat))
    # Backward keeps the (B*OH*OW, kh*kw*C_in) patch rows; a no-grad
    # forward holds one block of them at a time.
    cols = np.empty((bsz * rows, wmat.shape[1]), xp.dtype) if no_grad.recording else None
    for lo in range(0, bsz, per):
        hi = min(bsz, lo + per)
        part = None if cols is None else cols[lo * rows : hi * rows]
        part = kernels.im2col(xp[lo:hi], kh, kw, stride, out=part)
        # One GEMM per sample, not one over all B*OH*OW rows: BLAS takes another
        # kernel for small products (the grid conv at batch 4 has 16 rows), so
        # folding the batch would make a sample's output depend on its batch.
        np.matmul(part.reshape(hi - lo, rows, -1), wmat.T, out=out[lo:hi])
        out[lo:hi] += b.data
    out = out.reshape(bsz, oh, ow, c_out)

    def backward_fn(g):
        gmat = g.reshape(-1, c_out)  # (B*OH*OW, C_out)
        if b.requires_grad:
            _accum(b, gmat.sum(axis=0))
        if w.requires_grad:
            gw = np.matmul(gmat.T, cols).reshape(c_out, kh, kw, c_in)
            _accum(w, gw.transpose(0, 3, 1, 2))
        if not x.requires_grad:
            return
        if kh <= stride and kw <= stride:
            dx = kernels.col2im(np.matmul(gmat, wmat), x.data.shape, kh, kw, stride, pad)
        else:
            # Output pixel (oy, ox) reads padded input rows oy*stride + i, so
            # its gradient lands at kh-1 + oy*stride in a frame kh-1 rows
            # above the padded input; the crop keeps rows that hit x itself.
            hp, wp = h + 2 * pad, wi + 2 * pad
            gd = np.zeros((bsz, hp + kh - 1, wp + kw - 1, c_out), dtype=g.dtype)
            gd[:, kh - 1 : kh - 1 + stride * oh : stride,
               kw - 1 : kw - 1 + stride * ow : stride] = g
            gd = gd[:, pad : pad + h + kh - 1, pad : pad + wi + kw - 1]
            wflip = w.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c_in)
            dx = np.matmul(kernels.im2col(gd, kh, kw, 1), wflip)
            dx = dx.reshape(bsz, h, wi, c_in)
        _accum(x, dx, fresh=True)

    return _make(out, (x, w, b), backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list:
    order: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents always precede their consumers


def backward(root: Tensor, grad=None) -> None:
    """Propagate gradients from ``root`` to every reachable parameter.

    ``grad`` seeds the root gradient and defaults to 1 for scalars.  The
    same graph cannot be walked twice: gradients accumulate with +=, so a
    second walk would silently double every gradient.
    """
    if not root.requires_grad:
        raise RuntimeError("backward() on a tensor that does not require grad")
    if root._done:
        raise RuntimeError(
            "backward() already ran on this graph; rebuild the forward pass "
            "(and zero gradients) before differentiating again"
        )
    if grad is None:
        if root.data.ndim != 0:
            raise RuntimeError("backward() on a non-scalar requires an explicit grad")
        grad = np.ones_like(root.data)
    _accum(root, np.asarray(grad, dtype=root.data.dtype))
    order = _topo_order(root)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    root._done = True


def zero_grad(grad: np.ndarray) -> None:
    """Zero a gradient buffer in place; the parameters' ``.grad`` views follow."""
    grad.fill(0)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam hyperparameters, step count, and moments (allocated on the first step)."""

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of ``param`` (a model's ``flat``), in one kernel call.

    An entry whose gradient is zero on every step keeps m = v = 0, so its
    update is 0 / (0 + eps) and it stays bitwise unchanged.
    """
    if grad.shape != param.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter {param.shape}")
    if state.m is None:
        state.m = np.zeros_like(param)
        state.v = np.zeros_like(param)
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    kernels.adam_update(
        param, grad, state.m, state.v,
        state.lr, state.beta1, state.beta2, state.eps, bc1, bc2,
    )
