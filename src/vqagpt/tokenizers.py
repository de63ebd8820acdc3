"""Question and image tokenizers.

Words: a plain word-level vocabulary built from the training questions
(lowercase, punctuation stripped, whitespace split).  Ids 0 and 1 are
reserved for padding and unknown words.

Images: two interchangeable desk-scale backends that both emit g*g vision
tokens of width token_dim:

* ``cnn_lite``  - three conv stages: a frozen color/edge filter bank (the
  desk-scale stand-in for a pretrained backbone's early layers), a learned
  residual pair, and a final conv whose kernel/stride collapse the feature
  map to exactly g*g positions.
* ``vit_lite``  - non-overlapping patches, flattened and linearly
  projected, optionally plus a learned per-patch position table
  (``vit_internal_pose``), which deliberately duplicates the position
  information the sequence-level pose table can also supply.

Each runs in two stages.  ``image_features`` is the parameter-free one
(checks, cast, recentring, then the frozen bank or the patchify); it
depends on the image alone, so training and evaluation run it once per
dataset.  ``encode_images`` is the learned one, on those features.  All
learned state lives in the params dict so the model owns initialization
and updates.  Every image map is channels-last, (B, H, W, C), from the
image batch through the frozen bank to each ``autodiff.conv2d`` output.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import ModelConfig, ModelKeys
from .errors import DataError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _words(text: str) -> list:
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass
class Vocabulary:
    """Bidirectional token/id map with PAD=0 and UNK=1 fixed."""

    token_to_id: dict
    id_to_token: list

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def to_lines(self) -> list:
        # One token per line, line number = id; reserved rows included.
        return list(self.id_to_token)

    @classmethod
    def from_lines(cls, lines) -> "Vocabulary":
        id_to_token = list(lines)
        if len(id_to_token) < 2 or id_to_token[0] != PAD_TOKEN or id_to_token[1] != UNK_TOKEN:
            raise ValueError("vocabulary lines must start with the PAD and UNK rows")
        return cls({t: i for i, t in enumerate(id_to_token)}, id_to_token)


def build_vocab(corpus, min_count: int = 1) -> Vocabulary:
    """Build a Vocabulary from an iterable of question strings.

    Ids are assigned by descending frequency, ties broken lexicographically,
    so two builds over the same corpus agree exactly.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("build_vocab: empty corpus")
    counts = Counter()
    for q in corpus:
        counts.update(_words(q))
    if not counts:
        raise ValueError("build_vocab: empty corpus (no words found)")
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    id_to_token = [PAD_TOKEN, UNK_TOKEN] + kept
    return Vocabulary({t: i for i, t in enumerate(id_to_token)}, id_to_token)


def tokenize_question(q: str, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Map a question to exactly ``max_len`` ids: truncate, then right-pad."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids = [vocab.id_for(w) for w in _words(q)][:max_len]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return np.asarray(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# vision tokenizers


_CNN_STEM_CH = 16
_CNN_BANK_CH = 8  # 3 color + 4 edge orientations + 1 laplacian

# Classic 3x3 derivative kernels, scaled so responses stay near input range.
_KERN_EDGE_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64) / 4.0
_KERN_EDGE_Y = _KERN_EDGE_X.T.copy()
_KERN_DIAG_A = np.array([[0, 1, 2], [-1, 0, 1], [-2, -1, 0]], dtype=np.float64) / 4.0
_KERN_DIAG_B = np.array([[2, 1, 0], [1, 0, -1], [0, -1, -2]], dtype=np.float64) / 4.0
_KERN_LAPLACE = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64) / 4.0


def _corr3(padded: np.ndarray, kern: np.ndarray, size: int) -> np.ndarray:
    """3x3 cross-correlation over an edge-padded (B, size+2, size+2) map.

    The kernel is cast to the map's dtype, so an f32 map is summed in f32.
    """
    kern = kern.astype(padded.dtype, copy=False)
    out = np.zeros((padded.shape[0], size, size), dtype=padded.dtype)
    for i in range(3):
        for j in range(3):
            if kern[i, j] != 0.0:
                out += kern[i, j] * padded[:, i : i + size, j : j + size]
    return out


def _fixed_feature_maps(x: np.ndarray) -> np.ndarray:
    """Frozen feature bank for cnn_lite: (B, S, S, 3) -> (B, S/2, S/2, 8).

    A 2x2 mean pool, then per-pixel color plus rectified edge responses
    (two axis-aligned, two diagonal, one laplacian) on luminance: the 8
    channels are the three pooled colors, then the five responses.  These
    play the role a pretrained backbone's early layers play at full
    scale: the learned head starts from features that already separate
    color and contour instead of having to discover them end to end.
    """
    b, s = x.shape[:2]
    half = s // 2
    # The 2x2 mean pool as two pair sums: strided adds, not a strided
    # reduction, which costs ten times as much.
    v = x.reshape(b, half, 2, half, 2, 3)
    pooled = ((v[:, :, 0, :, 0] + v[:, :, 0, :, 1]) + (v[:, :, 1, :, 0] + v[:, :, 1, :, 1])) / 4
    luma = 0.299 * pooled[..., 0] + 0.587 * pooled[..., 1] + 0.114 * pooled[..., 2]
    padded = np.pad(luma, ((0, 0), (1, 1), (1, 1)), mode="edge")
    edges = [
        np.abs(_corr3(padded, k, half))
        for k in (_KERN_EDGE_X, _KERN_EDGE_Y, _KERN_DIAG_A, _KERN_DIAG_B, _KERN_LAPLACE)
    ]
    return np.concatenate([pooled, np.stack(edges, axis=-1)], axis=-1)


def init_tokenizer_params(cfg: ModelConfig, rng: np.random.Generator, dtype) -> dict:
    """Create the learned tensors for the configured backend.

    Conv and projection weights use fan-in scaling, biases zero, the
    learned patch pose table std 0.02 like the other embedding tables.
    Uniform tiny init starves the vision path: stacked 0.02-scale stages
    shrink features to ~1e-3 and the decoder learns to ignore the image.
    Insertion order is fixed so consuming rng draws is deterministic.
    The names are those of the model's ``tok.*`` parameters.
    """

    def w(shape, fan_in):
        std = math.sqrt(2.0 / fan_in)
        return ad.Tensor(
            (rng.standard_normal(shape) * std).astype(dtype), requires_grad=True
        )

    def table(*shape):
        return ad.Tensor(
            (rng.standard_normal(shape) * 0.02).astype(dtype), requires_grad=True
        )

    def zeros(*shape):
        return ad.Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    params: dict = {}
    if cfg.vision_backend == "cnn_lite":
        k = (cfg.image_size // 2) // cfg.patch_grid
        ch = _CNN_STEM_CH
        bank = _CNN_BANK_CH
        params["tok.res_a_w"] = w((ch, bank, 3, 3), fan_in=bank * 9)
        params["tok.res_a_b"] = zeros(ch)
        params["tok.res_b_w"] = w((bank, ch, 3, 3), fan_in=ch * 9)
        params["tok.res_b_b"] = zeros(bank)
        params["tok.out_w"] = w((cfg.token_dim, bank, k, k), fan_in=bank * k * k)
        params["tok.out_b"] = zeros(cfg.token_dim)
    else:
        p = cfg.image_size // cfg.patch_grid
        params["tok.proj_w"] = w((3 * p * p, cfg.token_dim), fan_in=3 * p * p)
        params["tok.proj_b"] = zeros(cfg.token_dim)
        if cfg.vit_internal_pose:
            params["tok.pose"] = table(cfg.n_tokens, cfg.token_dim)
    return params


def feature_shape(cfg: ModelKeys) -> tuple:
    """Per-sample ``image_features`` shape: cnn_lite (S/2, S/2, 8) maps, vit_lite (g*g, 3*p*p)."""
    if cfg.vision_backend == "cnn_lite":
        half = cfg.image_size // 2
        return (half, half, _CNN_BANK_CH)
    p = cfg.image_size // cfg.patch_grid
    return (cfg.n_tokens, 3 * p * p)


def image_features(imgs: np.ndarray, cfg: ModelKeys, dtype) -> np.ndarray:
    """Parameter-free image stage: (B, H, W, 3) floats -> (B, *feature_shape(cfg)).

    It depends on the image alone, and on each sample alone, so a caller
    may run it once per dataset, in any chunks, and feed ``encode_images``
    from the result.  The images are checked, cast to ``dtype`` (the model
    dtype, so the whole graph keeps one dtype) and recentred from [0, 1] to
    [-1, 1], so the first layer sees zero-mean inputs instead of an
    all-positive block that mostly trains its bias.  Then cnn_lite applies
    its frozen filter bank, and vit_lite cuts the image into patch rows.
    """
    imgs = np.asarray(imgs)
    if imgs.ndim != 4 or imgs.shape[3] != 3:
        raise DataError(f"expected image batch (B, H, W, 3), got shape {imgs.shape}")
    if imgs.shape[1] != cfg.image_size or imgs.shape[2] != cfg.image_size:
        raise DataError(
            f"image size {imgs.shape[1]}x{imgs.shape[2]} does not match "
            f"configured {cfg.image_size}x{cfg.image_size}"
        )
    x = 2.0 * imgs.astype(dtype, copy=False) - 1.0
    if cfg.vision_backend == "cnn_lite":
        return _fixed_feature_maps(x)
    # The patches tile the image, so patchify is a reshape and one transpose
    # copy: one row per patch, row-major over the grid, each row
    # channel-major then pixel row-major, the flattening proj_w expects.
    g = cfg.patch_grid
    p = cfg.image_size // g
    patches = x.reshape(x.shape[0], g, p, g, p, 3).transpose(0, 1, 3, 5, 2, 4)
    return patches.reshape(x.shape[0], g * g, 3 * p * p)


def encode_images(feats: np.ndarray, cfg: ModelConfig, params: dict) -> ad.Tensor:
    """Learned tokenizer stage: ``image_features`` output -> (B, g*g, token_dim).

    One path, recording or not; under ``ad.no_grad`` each ``conv2d`` holds
    one block of its patch rows at a time, never the whole batch's.
    """
    feats = np.asarray(feats)
    if feats.shape[1:] != feature_shape(cfg):
        raise DataError(
            f"expected image features of per-sample shape {feature_shape(cfg)}, got "
            f"{feats.shape[1:]}; raw images go through image_features first"
        )
    x = ad.Tensor(feats)
    if cfg.vision_backend == "cnn_lite":
        g = cfg.patch_grid
        # Stage 1, the frozen bank, ran in image_features; stages 2
        # (residual pair) and 3 (grid-collapsing conv) are learned.
        r = ad.gelu(ad.conv2d(x, params["tok.res_a_w"], params["tok.res_a_b"], stride=1, pad=1))
        r = ad.conv2d(r, params["tok.res_b_w"], params["tok.res_b_b"], stride=1, pad=1)
        h = ad.gelu(ad.add(x, r))
        k = (cfg.image_size // 2) // g
        out = ad.conv2d(h, params["tok.out_w"], params["tok.out_b"], stride=k, pad=0)
        # (B, g, g, token_dim) -> (B, g*g, token_dim), row-major over the grid
        return ad.reshape(out, (len(feats), g * g, cfg.token_dim))
    tokens = ad.linear(x, params["tok.proj_w"], params["tok.proj_b"])
    if cfg.vit_internal_pose:
        tokens = ad.add(tokens, params["tok.pose"])  # broadcasts over the batch
    return tokens
