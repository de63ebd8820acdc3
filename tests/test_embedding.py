"""Three-term additive embedding and token-order sequencing tests.

The additivity checks are bitwise: the embedded rows must equal an
independent numpy recomputation of (type_row + pose_row) + token_row in
that association, at both float32 and float64.
"""

import numpy as np
import pytest

from vqagpt.config import ModelConfig
from vqagpt.embedding import (
    VISION_TYPE,
    WORD_TYPE,
    embed_vision,
    embed_words,
    init_embedding_tables,
    sequence,
)
from vqagpt.errors import ConfigError
import vqagpt.autodiff as ad


def make_tables(vocab=7, d=6, max_pos=9, token_dim=None, seed=0, dtype=np.float64):
    token_dim = d if token_dim is None else token_dim
    cfg = ModelConfig(vocab_size=vocab, d=d, max_pos=max_pos, token_dim=token_dim)
    return init_embedding_tables(cfg, rng=np.random.default_rng(seed), dtype=dtype)


def dim(t):
    """The embedding width d of a table set."""
    return t["emb.pos"].shape[1]


def seq_cfg(**kw):
    base = dict(
        order="early_word",
        vision_pose_mode="zero",
        use_type_embedding=True,
    )
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# word embedding


def test_embed_words_reduces_to_word_rows_when_other_tables_zero():
    t = make_tables()
    t["emb.type"].data[...] = 0.0
    t["emb.pos"].data[...] = 0.0
    ids = np.array([3, 0, 5, 3])
    out = embed_words(ids, t, seq_cfg())
    assert np.array_equal(out.data, t["emb.word"].data[ids])


def test_embed_words_reduces_to_pose_rows_when_other_tables_zero():
    t = make_tables()
    t["emb.type"].data[...] = 0.0
    t["emb.word"].data[...] = 0.0
    ids = np.array([2, 2, 2])
    out = embed_words(ids, t, seq_cfg())
    assert np.array_equal(out.data, t["emb.pos"].data[:3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_words_matches_bitwise_recomputation(dtype):
    t = make_tables(dtype=dtype, seed=1)
    ids = np.array([1, 4, 6, 2, 2])
    out = embed_words(ids, t, seq_cfg()).data
    expected = (t["emb.type"].data[WORD_TYPE] + t["emb.pos"].data[:5]) + t["emb.word"].data[ids]
    assert out.dtype == dtype
    assert np.array_equal(out, expected)


def test_embed_words_type_toggle_drops_one_addend():
    t = make_tables(seed=2)
    ids = np.array([0, 3])
    off = embed_words(ids, t, seq_cfg(use_type_embedding=False)).data
    expected = t["emb.pos"].data[:2] + t["emb.word"].data[ids]
    assert np.array_equal(off, expected)


def test_embed_words_position_overflow_errors():
    t = make_tables(max_pos=4)
    with pytest.raises(IndexError, match="out of range"):
        embed_words(np.arange(5) % 2, t, seq_cfg())  # 5 positions, 4 rows


# ---------------------------------------------------------------------------
# vision embedding


def vision_rows(t, m, token_dim=None, seed=5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    width = dim(t) if token_dim is None else token_dim
    return ad.Tensor(rng.standard_normal((m, width)).astype(dtype))


def test_zero_pose_residual_is_constant_pos_row_zero():
    t = make_tables(seed=3)
    vt = vision_rows(t, 4)
    out = embed_vision(vt, t, seq_cfg(vision_pose_mode="zero")).data
    # every position gets the same addend vector: row 0 of the pose table
    addend = (t["emb.type"].data[VISION_TYPE] + t["emb.pos"].data[0])
    for j in range(4):
        assert np.array_equal(out[j], addend + vt.data[j])


def test_zero_pose_spread_exactly_zero_on_dyadic_values():
    # eighths are exact in binary floating point, so v_e - v_x recovers the
    # shared addend bit-for-bit and its spread across positions is zero
    t = make_tables(seed=3)
    rng = np.random.default_rng(14)
    for arr in (t["emb.type"].data, t["emb.pos"].data):
        arr[...] = rng.integers(-8, 9, arr.shape) / 8.0
    vt = ad.Tensor(rng.integers(-8, 9, (4, dim(t))) / 8.0)
    out = embed_vision(vt, t, seq_cfg(vision_pose_mode="zero")).data
    spread = out - vt.data
    assert np.array_equal(spread.max(axis=0), spread.min(axis=0))


def test_actual_pose_uses_rows_one_through_m():
    t = make_tables(seed=4)
    # integer-valued tables make the addend recovery exact
    t["emb.type"].data[...] = np.arange(t["emb.type"].data.size).reshape(2, -1)
    t["emb.pos"].data[...] = 10.0 * np.arange(t["emb.pos"].data.shape[0])[:, None]
    vt = ad.Tensor(np.zeros((3, dim(t))))
    out = embed_vision(vt, t, seq_cfg(vision_pose_mode="actual")).data
    expected = t["emb.type"].data[VISION_TYPE] + t["emb.pos"].data[1:4]
    assert np.array_equal(out, expected)


def test_actual_pose_ignores_word_count_offset():
    # restart-at-1 policy: pose rows depend on m alone, never on the word count
    t = make_tables(seed=6)
    cfg = seq_cfg(vision_pose_mode="actual")
    v = embed_vision(vision_rows(t, 3), t, cfg)
    a = sequence(embed_words(np.arange(2), t, cfg), v, cfg).data[2:]
    b = sequence(embed_words(np.arange(7), t, cfg), v, cfg).data[7:]
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_vision_matches_bitwise_recomputation(dtype):
    t = make_tables(seed=7, dtype=dtype)
    vt = vision_rows(t, 4, dtype=dtype)
    out = embed_vision(vt, t, seq_cfg(vision_pose_mode="actual")).data
    expected = (t["emb.type"].data[VISION_TYPE] + t["emb.pos"].data[1:5]) + vt.data
    assert out.dtype == dtype
    assert np.array_equal(out, expected)


def test_projection_present_iff_dims_differ():
    matched = make_tables(d=6, token_dim=6)
    assert "emb.proj_w" not in matched and "emb.proj_b" not in matched
    projected = make_tables(d=6, token_dim=10)
    assert "emb.proj_w" in projected and projected["emb.proj_w"].shape == (10, 6)


def test_identity_padded_projection_reproduces_leading_coordinates():
    t = make_tables(d=8, token_dim=5, seed=8)
    t["emb.proj_w"].data[...] = 0.0
    t["emb.proj_w"].data[:5, :5] = np.eye(5)
    t["emb.proj_b"].data[...] = 0.0
    t["emb.type"].data[...] = 0.0
    t["emb.pos"].data[...] = 0.0
    vt = vision_rows(t, 3, token_dim=5)
    out = embed_vision(vt, t, seq_cfg()).data
    assert np.array_equal(out[:, :5], vt.data)
    assert np.all(out[:, 5:] == 0.0)


def test_vision_pose_overflow_errors():
    t = make_tables(max_pos=3)
    vt = vision_rows(t, 3)  # actual mode needs rows 1..3, table has 0..2
    with pytest.raises(IndexError, match="out of range"):
        embed_vision(vt, t, seq_cfg(vision_pose_mode="actual"))
    with pytest.raises(IndexError, match="out of range"):
        # a 4-word question overflows the 3-row table before vision is embedded
        embed_words(np.zeros(4, dtype=np.int64), t, seq_cfg())


def test_vision_type_toggle_drops_one_addend():
    t = make_tables(seed=9)
    vt = vision_rows(t, 2)
    out = embed_vision(vt, t, seq_cfg(vision_pose_mode="zero", use_type_embedding=False)).data
    expected = t["emb.pos"].data[np.zeros(2, dtype=int)] + vt.data
    assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# sequencing


def embedded_pair(t, n=2, m=3):
    w = embed_words(np.arange(n), t, seq_cfg())
    v = embed_vision(vision_rows(t, m), t, seq_cfg())
    return w, v


def test_sequence_early_word_rows():
    t = make_tables(seed=10)
    w, v = embedded_pair(t)
    rows = sequence(w, v, seq_cfg(order="early_word")).data
    assert rows.shape == (5, 6)
    assert np.array_equal(rows[:2], w.data)
    assert np.array_equal(rows[2:], v.data)


def test_sequence_early_vision_rows():
    t = make_tables(seed=11)
    w, v = embedded_pair(t)
    rows = sequence(w, v, seq_cfg(order="early_vision")).data
    assert rows.shape == (5, 6)
    assert np.array_equal(rows[:3], v.data)
    assert np.array_equal(rows[3:], w.data)


def test_sequence_orders_are_row_permutations():
    t = make_tables(seed=12)
    w, v = embedded_pair(t)
    a = sequence(w, v, seq_cfg(order="early_word")).data
    b = sequence(w, v, seq_cfg(order="early_vision")).data
    key = lambda m: m[np.lexsort(m.T[::-1])]
    assert np.array_equal(key(a), key(b))


def test_sequence_width_mismatch_errors():
    t6 = make_tables(d=6, seed=13)
    t8 = make_tables(d=8, seed=13)
    w, _ = embedded_pair(t6)
    _, v = embedded_pair(t8)
    with pytest.raises(ValueError, match="width mismatch"):
        sequence(w, v, seq_cfg())


def test_sequencing_config_validation():
    with pytest.raises(ConfigError):
        seq_cfg(order="middle").validate()
    with pytest.raises(ConfigError):
        seq_cfg(vision_pose_mode="half").validate()
    seq_cfg().validate()
    seq_cfg(order="early_vision", vision_pose_mode="actual").validate()
