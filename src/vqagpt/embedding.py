"""Token embedding and sequence assembly for the mixed word/vision input.

Every embedded token is the sum of at most three addends:

    word    e[i] = type_row(word)   + pos_row(i)        + word_table[ids[i]]
    vision  e[j] = type_row(vision) + pos_row(pose(j))   + v_x[j]

where v_x is the raw vision token, or its affine projection when the
tables hold one (exactly when its width differs from the model width).
Both segments get their (type + pose) addend from one helper, and differ
only in their rows and their pose ids.  Vision pose indices are
either all 0 ("zero" mode: one shared row, no order information) or
1..m ("actual" mode, restarting at 1 regardless of where the vision
segment sits in the sequence).  Word positions are always 0..n-1.

The sums are evaluated in a fixed association, (type + pose) + token, so
tests can re-derive any embedded row bitwise from the tables.  Toggling
``use_type_embedding`` off drops the type addend for both modalities,
leaving a two-addend sum.

The tables are the ``emb.*`` entries of a params dict: the model's
``params``, or the dict ``init_embedding_tables`` returns.  The embed
functions take that dict and read the tables by name.

The pose table has one size rule, ``RunConfig.validate``'s ``max_pos``
check, made where a config enters; a pose id past the table still stops
in ``embedding_lookup``.  Nothing caps the sequence length: the decoder
has no position table of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import ModelConfig

WORD_TYPE = 0
VISION_TYPE = 1


@dataclass
class TokenSequence:
    """Embedded input rows plus a per-position modality tag (0 word, 1 vision)."""

    embedded: ad.Tensor  # (..., L, d); leading batch dim optional
    modality: np.ndarray  # (L,) int8

    @property
    def length(self) -> int:
        return len(self.modality)


def init_embedding_tables(cfg: ModelConfig, rng: np.random.Generator, dtype) -> dict:
    """The ``emb.*`` parameters: word rows, two type rows, shared pose rows, projection.

    ``emb.word`` is (vocab_size, d), ``emb.type`` (2, d) with row 0 for
    words and row 1 for vision, ``emb.pos`` (max_pos, d).  ``emb.proj_w``
    (token_dim, d) and ``emb.proj_b`` (d,) exist iff the vision token width
    differs from d; widths that already match feed vision tokens in
    unprojected.  All tables ~ N(0, 0.02), projection bias zero, in this
    fixed creation order.
    """

    def w(*shape):
        return ad.Tensor(
            (rng.standard_normal(shape) * 0.02).astype(dtype), requires_grad=True
        )

    params = {
        "emb.word": w(cfg.vocab_size, cfg.d),
        "emb.type": w(2, cfg.d),
        "emb.pos": w(cfg.max_pos, cfg.d),
    }
    if cfg.token_dim != cfg.d:
        params["emb.proj_w"] = w(cfg.token_dim, cfg.d)
        params["emb.proj_b"] = ad.Tensor(np.zeros(cfg.d, dtype=dtype), requires_grad=True)
    return params


def _add_base(rows: ad.Tensor, params: dict, cfg: ModelConfig, modality: int,
              pose_ids: np.ndarray) -> ad.Tensor:
    """(type + pose) + rows, with the type addend dropped when the toggle is off."""
    base = ad.embedding_lookup(params["emb.pos"], pose_ids)
    if cfg.use_type_embedding:
        type_row = ad.embedding_lookup(params["emb.type"], np.asarray(modality, dtype=np.int64))
        base = ad.add(type_row, base)
    return ad.add(base, rows)


def embed_words(ids: np.ndarray, params: dict, cfg: ModelConfig) -> ad.Tensor:
    """Embed word ids (..., n) into (..., n, d) as the three-addend sum."""
    ids = np.asarray(ids)
    tok = ad.embedding_lookup(params["emb.word"], ids)
    return _add_base(tok, params, cfg, WORD_TYPE, np.arange(ids.shape[-1], dtype=np.int64))


def embed_vision(tokens: ad.Tensor, params: dict, cfg: ModelConfig) -> ad.Tensor:
    """Embed raw vision tokens (..., m, token_dim) into (..., m, d).

    Actual-mode pose ids restart at 1 rather than continuing the word
    segment's numbering, so the vision pose rows never depend on the
    question length.
    """
    m = tokens.shape[-2]
    if "emb.proj_w" in params:
        tokens = ad.linear(tokens, params["emb.proj_w"], params["emb.proj_b"])
    if cfg.vision_pose_mode == "zero":
        pose_ids = np.zeros(m, dtype=np.int64)
    else:
        pose_ids = np.arange(1, m + 1, dtype=np.int64)
    return _add_base(tokens, params, cfg, VISION_TYPE, pose_ids)


def sequence(words_e: ad.Tensor, vision_e: ad.Tensor, cfg: ModelConfig) -> TokenSequence:
    """Concatenate the two embedded segments in the configured order.

    Pure reordering: no row is re-embedded or altered by concatenation.
    """
    if words_e.shape[-1] != vision_e.shape[-1]:
        raise ValueError(
            f"segment width mismatch: words {words_e.shape[-1]}, "
            f"vision {vision_e.shape[-1]}"
        )
    n = words_e.shape[-2]
    m = vision_e.shape[-2]
    axis = words_e.ndim - 2
    if cfg.order == "early_word":
        embedded = ad.concat([words_e, vision_e], axis=axis)
        modality = np.array([WORD_TYPE] * n + [VISION_TYPE] * m, dtype=np.int8)
    else:
        embedded = ad.concat([vision_e, words_e], axis=axis)
        modality = np.array([VISION_TYPE] * m + [WORD_TYPE] * n, dtype=np.int8)
    return TokenSequence(embedded=embedded, modality=modality)
