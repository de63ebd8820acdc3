"""Independent oracles the tests check the package against.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, scipy reference routines, regex question parsing), or, where
a test pins bits, as the plain numpy formulation the package must keep
(``conv2d_gemm_reference``).  Nothing shares a code path with the package,
except the reference bodies at the end.
These were written and frozen before the tests that rely on them; expected
values are computed, never invented.
"""

import math
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import correlate2d


# ---------------------------------------------------------------------------
# numeric oracles


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def conv2d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int):
    """Cross-correlation oracle built on scipy.signal.correlate2d, on (B, H, W, C) maps."""
    bsz, h, wi, c_in = x.shape
    c_out = w.shape[0]
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - w.shape[2]) // stride + 1
    ow = (wi + 2 * pad - w.shape[3]) // stride + 1
    out = np.zeros((bsz, oh, ow, c_out), dtype=x.dtype)
    for n in range(bsz):
        for co in range(c_out):
            acc = np.zeros((x.shape[1] - w.shape[2] + 1, x.shape[2] - w.shape[3] + 1), dtype=x.dtype)
            for ci in range(c_in):
                acc += correlate2d(x[n, :, :, ci], w[co, ci], mode="valid")
            out[n, :, :, co] = acc[::stride, ::stride] + b[co]
    return out


def conv2d_gemm_reference(x, w, b, stride: int, pad: int, g=None):
    """conv2d as one whole-batch patch gather and a stacked per-sample GEMM.

    The formulation ``autodiff.conv2d`` keeps bit for bit, in plain numpy:
    ``np.pad`` of the (B, H, W, C_in) input, the (B*OH*OW, kh*kw*C_in) patch
    rows of the whole batch, one GEMM per sample against the (kh, kw, C_in)
    -ordered weight, then the bias.  Given an output gradient ``g``, it
    returns (out, dx, dw, db): the bias and weight gradients are one
    reduction and one product over all rows; the input gradient is the
    rows times the weight put back in place (disjoint windows), or the
    patch rows of the stride-dilated, padded ``g`` against the flipped
    weight (overlapping ones).
    """
    bsz, h, wi, c_in = x.shape
    c_out, _, kh, kw = w.shape
    oh, ow = (h + 2 * pad - kh) // stride + 1, (wi + 2 * pad - kw) // stride + 1

    def patch_rows(img, rows, cols, step):
        win = sliding_window_view(img, (kh, kw), axis=(1, 2))[:, : step * rows : step,
                                                              : step * cols : step]
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(len(img) * rows * cols, -1)

    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = patch_rows(xp, oh, ow, stride)
    wmat = w.transpose(0, 2, 3, 1).reshape(c_out, -1)
    out = np.matmul(cols.reshape(bsz, oh * ow, -1), wmat.T)
    out += b
    out = out.reshape(bsz, oh, ow, c_out)
    if g is None:
        return out
    gmat = g.reshape(-1, c_out)
    db = gmat.sum(axis=0)
    dw = np.matmul(gmat.T, cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
    if kh <= stride and kw <= stride:
        taps = np.matmul(gmat, wmat).reshape(bsz, oh, ow, kh, kw, c_in)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] = taps[:, :, :, i, j]
        dx = dxp[:, pad : pad + h, pad : pad + wi]
    else:
        gd = np.zeros((bsz, h + 2 * pad + kh - 1, wi + 2 * pad + kw - 1, c_out), dtype=g.dtype)
        gd[:, kh - 1 : kh - 1 + stride * oh : stride,
           kw - 1 : kw - 1 + stride * ow : stride] = g
        gd = gd[:, pad : pad + h + kh - 1, pad : pad + wi + kw - 1]
        wflip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c_in)
        dx = np.matmul(patch_rows(gd, h, wi, 1), wflip).reshape(bsz, h, wi, c_in)
    return out, dx, dw, db


def im2col_reference(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Naive channels-last patch gather: (B, H, W, C) -> (B*OH*OW, kh*kw*C)."""
    b, h, w, c = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b * oh * ow, kh * kw * c), dtype=x.dtype)
    for n in range(b):
        for p in range(oh * ow):
            r0 = (p // ow) * stride
            c0 = (p % ow) * stride
            k = 0
            for i in range(kh):
                for j in range(kw):
                    for ch in range(c):
                        out[n * oh * ow + p, k] = x[n, r0 + i, c0 + j, ch]
                        k += 1
    return out


def fd_gradient(loss_fn, param: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one array, in place."""
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """max |a-b| / max(|a|, |b|, floor); the floor guards near-zero entries."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# metrics oracle (pure Python, no numpy vectorization)


def brute_force_metrics(preds, labels, n_classes: int) -> dict:
    preds = [int(p) for p in preds]
    labels = [int(x) for x in labels]
    conf = [[0] * n_classes for _ in range(n_classes)]
    for p, t in zip(preds, labels):
        conf[t][p] += 1
    total = len(labels)
    correct = sum(conf[c][c] for c in range(n_classes))
    acc = correct / total
    recalls, fscores = [], []
    for c in range(n_classes):
        support = sum(conf[c])
        predicted = sum(conf[r][c] for r in range(n_classes))
        if support == 0:
            continue
        recall = conf[c][c] / support
        precision = conf[c][c] / predicted if predicted > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        recalls.append(recall)
        fscores.append(f1)
    macro_recall = sum(recalls) / len(recalls) if recalls else 0.0
    macro_f = sum(fscores) / len(fscores) if fscores else 0.0
    return {
        "confusion": conf,
        "acc": acc,
        "macro_recall": macro_recall,
        "macro_fscore": macro_f,
    }


# ---------------------------------------------------------------------------
# scene / question re-parser (independent of the generator's answer logic)

_POSITIONS = {
    "top left": 0,
    "top right": 1,
    "bottom left": 2,
    "bottom right": 3,
}
_COUNT_WORDS = ["zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]
_SHAPES = ("square", "circle", "triangle")


def reparse_answer(question: str, scene) -> str:
    """Recover the ground-truth answer from the question text and scene."""
    q = question.lower()
    m = re.search(r"(square|circle|triangle)s", q)
    if m:  # count question: the only type that pluralizes a shape
        shape = m.group(1)
        n = sum(1 for cell in scene if cell[0] == shape)
        return _COUNT_WORDS[n]
    for name, idx in _POSITIONS.items():
        if name in q:
            if "color" in q:
                return scene[idx][1]
            if "shape" in q:
                return scene[idx][0]
    raise AssertionError(f"unparseable question: {question!r}")


# The cnn_lite frozen bank's 3x3 kernels, written out here on their own.
_BANK_KERNELS = (
    [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]],  # edge x
    [[-1, -2, -1], [0, 0, 0], [1, 2, 1]],  # edge y
    [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]],  # diagonal a
    [[2, 1, 0], [1, 0, -1], [0, -1, -2]],  # diagonal b
    [[0, 1, 0], [1, -4, 1], [0, 1, 0]],  # laplacian
)


def frozen_bank_reference(images: np.ndarray) -> np.ndarray:
    """cnn_lite's frozen bank on raw (B, S, S, 3) images in [0, 1], pixel by pixel.

    Recentre to [-1, 1], mean-pool 2x2 blocks, take luma, then the absolute
    response of each kernel (divided by 4) over the edge-padded luma.  Out:
    (B, S/2, S/2, 8), the three pooled colors then the five responses.
    """
    b, s = images.shape[0], images.shape[1]
    half = s // 2
    out = np.zeros((b, half, half, 8))
    for n in range(b):
        pooled = [[[0.0] * half for _ in range(half)] for _ in range(3)]
        luma = [[0.0] * half for _ in range(half)]
        for i in range(half):
            for j in range(half):
                for c in range(3):
                    block = [2.0 * float(images[n, 2 * i + a, 2 * j + e, c]) - 1.0
                             for a in (0, 1) for e in (0, 1)]
                    pooled[c][i][j] = sum(block) / 4.0
                    out[n, i, j, c] = pooled[c][i][j]
                luma[i][j] = (0.299 * pooled[0][i][j] + 0.587 * pooled[1][i][j]
                              + 0.114 * pooled[2][i][j])
        for k, kern in enumerate(_BANK_KERNELS):
            for i in range(half):
                for j in range(half):
                    acc = 0.0
                    for a in range(3):
                        for e in range(3):
                            r = min(max(i + a - 1, 0), half - 1)  # edge padding
                            c = min(max(j + e - 1, 0), half - 1)
                            acc += kern[a][e] / 4.0 * luma[r][c]
                    out[n, i, j, 3 + k] = abs(acc)
    return out


# ---------------------------------------------------------------------------
# small closed forms


def softmax_reference(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def layer_norm_reference(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Layer norm over the last axis, one row at a time in float64 with ``math.fsum``."""
    rows = np.asarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
    n = rows.shape[1]
    out = np.empty_like(rows)
    for r, row in enumerate(rows.tolist()):
        mu = math.fsum(row) / n
        inv = 1.0 / math.sqrt(math.fsum((v - mu) ** 2 for v in row) / n + eps)
        out[r] = [(v - mu) * inv * float(g) + float(b) for v, g, b in zip(row, gain, bias)]
    return out.reshape(x.shape)


def adam_first_step_delta(g: np.ndarray, lr: float, eps: float) -> np.ndarray:
    # After one bias-corrected step from zero moments: mhat = g, vhat = g*g.
    return -lr * g / (np.sqrt(g * g) + eps)


def adam_update_reference(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2) -> None:
    """The fused Adam step as plain numpy expressions, one temporary each, in place."""
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


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """GELU as GPT-2 defines it, the tanh form, one element at a time."""
    c = math.sqrt(2.0 / math.pi)
    return np.array(
        [0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v**3))) for v in x.reshape(-1)]
    ).reshape(x.shape)


def gelu_erf_reference(x: np.ndarray) -> np.ndarray:
    """The exact GELU, x * Phi(x), one element at a time."""
    return np.array(
        [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.reshape(-1)]
    ).reshape(x.shape)


# ---------------------------------------------------------------------------
# reference bodies


def one_part_train_step(batch, model, opt) -> float:
    """The train step as one part, whatever the batch size.

    One forward over the whole batch, one cross-entropy, one backward, then
    the non-finite checks and Adam.  Unlike the oracles above, it runs on
    the package's own forward and kernels: it pins the step's composition,
    not its arithmetic.
    """
    from vqagpt import autodiff as ad
    from vqagpt.errors import NonFiniteError
    from vqagpt.model import feature_logits

    features, question_ids, labels = batch
    ad.zero_grad(model.grad)
    logits = feature_logits(features, question_ids, model)
    loss = ad.cross_entropy(logits, labels)
    ad.backward(loss)
    value = float(loss.data)
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite loss {value}")
    if not np.isfinite(model.grad).all():
        name = next(n for n, p in model.params.items() if not np.isfinite(p.grad).all())
        raise NonFiniteError(f"non-finite gradient in {name}")
    ad.adam_step(model.flat, model.grad, opt)
    return value
