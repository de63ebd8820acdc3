"""Token embedding and sequence assembly for the mixed word/vision input.

Every embedded token is the sum of at most three addends:

    word    e[i] = type_row(word)   + pos_row(i)        + word_table[ids[i]]
    vision  e[j] = type_row(vision) + pos_row(pose(j))   + v_x[j]

where v_x is the raw vision token when its width already equals the model
width, and an affine projection of it otherwise.  Vision pose indices are
either all 0 ("zero" mode: one shared row, no order information) or
1..m ("actual" mode, restarting at 1 regardless of where the vision
segment sits in the sequence).  Word positions are always 0..n-1.

The sums are evaluated in a fixed association, (type + pose) + token, so
tests can re-derive any embedded row bitwise from the tables.  Toggling
``use_type_embedding`` off drops the type addend for both modalities,
leaving a two-addend sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

WORD_TYPE = 0
VISION_TYPE = 1


@dataclass(frozen=True)
class SequencingConfig:
    order: str = "early_word"  # early_word | early_vision
    vision_pose_mode: str = "zero"  # zero | actual
    use_type_embedding: bool = True

    def validate(self) -> None:
        if self.order not in ("early_word", "early_vision"):
            raise ConfigError(f"unknown sequencing order {self.order!r}")
        if self.vision_pose_mode not in ("zero", "actual"):
            raise ConfigError(f"unknown vision_pose_mode {self.vision_pose_mode!r}")


@dataclass
class EmbeddingTables:
    """Learned tables: word rows, two type rows, shared pose rows, optional projection.

    ``proj_w``/``proj_b`` exist iff the raw vision token width differs from
    the embedding width; widths that already match feed vision tokens in
    unprojected.
    """

    word_table: ad.Tensor  # (vocab, d)
    type_table: ad.Tensor  # (2, d): row 0 = word, row 1 = vision
    pos_table: ad.Tensor  # (max_pos, d)
    proj_w: Optional[ad.Tensor] = None  # (token_dim, d)
    proj_b: Optional[ad.Tensor] = None  # (d,)

    @property
    def d(self) -> int:
        return self.word_table.shape[1]

    @property
    def max_pos(self) -> int:
        return self.pos_table.shape[0]


@dataclass
class TokenSequence:
    """Embedded input rows plus a per-position modality tag (0 word, 1 vision)."""

    embedded: ad.Tensor  # (..., L, d); leading batch dim optional
    modality: np.ndarray  # (L,) int8

    @property
    def length(self) -> int:
        return len(self.modality)


def init_embedding_tables(
    vocab_size: int,
    d: int,
    max_pos: int,
    token_dim: int,
    rng: np.random.Generator,
    dtype,
) -> EmbeddingTables:
    """All tables ~ N(0, 0.02); projection bias zero.  Fixed creation order."""

    def w(*shape):
        return ad.Tensor(
            (rng.standard_normal(shape) * 0.02).astype(dtype), requires_grad=True
        )

    tables = EmbeddingTables(
        word_table=w(vocab_size, d),
        type_table=w(2, d),
        pos_table=w(max_pos, d),
    )
    if token_dim != d:
        tables.proj_w = w(token_dim, d)
        tables.proj_b = ad.Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
    return tables


def _type_row(tables: EmbeddingTables, which: int) -> ad.Tensor:
    return ad.embedding_lookup(tables.type_table, np.asarray(which, dtype=np.int64))


def _pos_rows(tables: EmbeddingTables, ids: np.ndarray) -> ad.Tensor:
    if ids.size and ids.max() >= tables.max_pos:
        raise ValueError(
            f"position {int(ids.max())} overflows pose table of {tables.max_pos} rows"
        )
    return ad.embedding_lookup(tables.pos_table, ids)


def embed_words(ids: np.ndarray, tables: EmbeddingTables, cfg: SequencingConfig = None) -> ad.Tensor:
    """Embed word ids (..., n) into (..., n, d) as the three-addend sum."""
    ids = np.asarray(ids)
    n = ids.shape[-1]
    tok = ad.embedding_lookup(tables.word_table, ids)
    pose = _pos_rows(tables, np.arange(n, dtype=np.int64))
    if cfg is None or cfg.use_type_embedding:
        base = ad.add(_type_row(tables, WORD_TYPE), pose)
    else:
        base = pose
    return ad.add(base, tok)


def embed_vision(tokens: ad.Tensor, tables: EmbeddingTables, cfg: SequencingConfig) -> ad.Tensor:
    """Embed raw vision tokens (..., m, token_dim) into (..., m, d).

    Actual-mode pose ids restart at 1 rather than continuing the word
    segment's numbering, so the vision pose rows never depend on the
    question length.
    """
    m = tokens.shape[-2]
    token_dim = tokens.shape[-1]
    if token_dim != tables.d:
        if tables.proj_w is None:
            raise ConfigError(
                f"vision tokens of width {token_dim} need a projection to "
                f"embedding width {tables.d}, but none is configured"
            )
        v_x = ad.add(ad.matmul(tokens, tables.proj_w), tables.proj_b)
    else:
        v_x = tokens
    if cfg.vision_pose_mode == "zero":
        pose_ids = np.zeros(m, dtype=np.int64)
    else:
        pose_ids = np.arange(1, m + 1, dtype=np.int64)
    pose = _pos_rows(tables, pose_ids)
    if cfg.use_type_embedding:
        base = ad.add(_type_row(tables, VISION_TYPE), pose)
    else:
        base = pose
    return ad.add(base, v_x)


def sequence(words_e: ad.Tensor, vision_e: ad.Tensor, cfg: SequencingConfig) -> TokenSequence:
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
