"""Word vocabulary, question tokenizer, and both vision tokenizer backends."""

import numpy as np
import pytest

from vqagpt.config import ModelConfig
from vqagpt.errors import ConfigError, DataError
from vqagpt.tokenizers import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocab,
    encode_images,
    feature_shape,
    image_features,
    init_tokenizer_params,
    tokenize_question,
)

from oracles import frozen_bank_reference

CORPUS = ["what is it", "what now"]


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_min_count_1():
    v = build_vocab(CORPUS, min_count=1)
    assert v.id_to_token[PAD_ID] == PAD_TOKEN
    assert v.id_to_token[UNK_ID] == UNK_TOKEN
    assert set(v.id_to_token[2:]) == {"what", "is", "it", "now"}
    # frequency desc then lexicographic: "what" (2) first, then the 1-count
    # words in alphabetical order.
    assert v.id_to_token[2:] == ["what", "is", "it", "now"]
    assert v.size == 6


def test_build_vocab_min_count_2_keeps_only_repeats():
    v = build_vocab(CORPUS, min_count=2)
    assert v.id_to_token[2:] == ["what"]
    ids = tokenize_question("what is it", v, max_len=3)
    assert ids.tolist() == [v.id_for("what"), UNK_ID, UNK_ID]


def test_build_vocab_deterministic():
    a = build_vocab(CORPUS, min_count=1)
    b = build_vocab(CORPUS, min_count=1)
    assert a.id_to_token == b.id_to_token
    assert a.token_to_id == b.token_to_id


def test_build_vocab_lowercases_and_strips_punctuation():
    v = build_vocab(["What IS it?", "what, now!"], min_count=1)
    assert set(v.id_to_token[2:]) == {"what", "is", "it", "now"}


def test_build_vocab_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty"):
        build_vocab([], min_count=1)
    with pytest.raises(ValueError, match="empty"):
        build_vocab(["", "  ?!"], min_count=1)


def test_vocab_lines_round_trip():
    v = build_vocab(CORPUS, min_count=1)
    again = Vocabulary.from_lines(v.to_lines())
    assert again.id_to_token == v.id_to_token
    with pytest.raises(ValueError):
        Vocabulary.from_lines(["bogus", UNK_TOKEN])  # PAD row missing


# ---------------------------------------------------------------------------
# question tokenizer


def test_tokenize_question_examples():
    v = build_vocab(CORPUS, min_count=1)
    assert tokenize_question("", v, max_len=4).tolist() == [PAD_ID] * 4
    got = tokenize_question("what is it", v, max_len=5).tolist()
    assert got == [v.id_for("what"), v.id_for("is"), v.id_for("it"), PAD_ID, PAD_ID]
    assert tokenize_question("what is blue", v, max_len=3).tolist() == [
        v.id_for("what"),
        v.id_for("is"),
        UNK_ID,
    ]


def test_tokenize_question_truncates():
    v = build_vocab(CORPUS, min_count=1)
    got = tokenize_question("what is it now what", v, max_len=2)
    assert got.tolist() == [v.id_for("what"), v.id_for("is")]


def test_tokenize_question_length_stable():
    v = build_vocab(CORPUS, min_count=1)
    for q in ("", "a", "what " * 50, "?!,."):
        out = tokenize_question(q, v, max_len=7)
        assert out.shape == (7,)
        assert out.dtype == np.int64


# ---------------------------------------------------------------------------
# vision tokenizers


def vit_cfg(**kw):
    base = dict(vision_backend="vit_lite", image_size=16, patch_grid=2, token_dim=8)
    base.update(kw)
    return ModelConfig(**base)


def cnn_cfg(**kw):
    base = dict(vision_backend="cnn_lite", image_size=16, patch_grid=2, token_dim=8)
    base.update(kw)
    return ModelConfig(**base)


def rand_image(rng, size):
    return rng.random((size, size, 3)).astype(np.float64)


def encode(imgs, cfg, params):
    """Both tokenizer stages on raw images, as ``model.forward_logits`` runs them; an ndarray."""
    dtype = next(iter(params.values())).data.dtype
    return encode_images(image_features(imgs, cfg, dtype), cfg, params).data


def permute_patches(img, g, perm):
    """Rearrange the g*g patch blocks of img by perm (row-major indexing)."""
    p = img.shape[0] // g
    out = np.empty_like(img)
    for dst, src in enumerate(perm):
        dr, dc = divmod(dst, g)
        sr, sc = divmod(src, g)
        out[dr * p : (dr + 1) * p, dc * p : (dc + 1) * p] = img[
            sr * p : (sr + 1) * p, sc * p : (sc + 1) * p
        ]
    return out


@pytest.mark.parametrize("cfg", [cnn_cfg(), vit_cfg(), vit_cfg(vit_internal_pose=True)])
def test_token_count_is_grid_squared_and_deterministic(cfg):
    rng = np.random.default_rng(0)
    params = init_tokenizer_params(cfg, np.random.default_rng(1), np.float64)
    img = rand_image(rng, cfg.image_size)
    a = encode(img[None], cfg, params)[0]
    b = encode(img.copy()[None], cfg, params)[0]
    assert a.shape == (cfg.patch_grid**2, cfg.token_dim)
    assert np.array_equal(a, b)


def test_init_params_seeded_determinism():
    cfg = cnn_cfg()
    p1 = init_tokenizer_params(cfg, np.random.default_rng(7), np.float32)
    p2 = init_tokenizer_params(cfg, np.random.default_rng(7), np.float32)
    p3 = init_tokenizer_params(cfg, np.random.default_rng(8), np.float32)
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data)
    assert any(not np.array_equal(p1[k].data, p3[k].data) for k in p1)


def test_vit_zero_init_gives_zero_tokens():
    cfg = vit_cfg(vit_internal_pose=True)
    params = init_tokenizer_params(cfg, np.random.default_rng(0), np.float64)
    for t in params.values():
        t.data[...] = 0.0
    img = rand_image(np.random.default_rng(2), cfg.image_size)
    out = encode(img[None], cfg, params)[0]
    assert np.all(out == 0.0)


def test_vit_internal_pose_changes_swapped_token_multiset():
    cfg = vit_cfg(vit_internal_pose=True)
    params = init_tokenizer_params(cfg, np.random.default_rng(3), np.float64)
    rng = np.random.default_rng(4)
    img = rand_image(rng, cfg.image_size)
    swapped = permute_patches(img, cfg.patch_grid, [1, 0, 2, 3])
    tok_a = encode(img[None], cfg, params)[0]
    tok_b = encode(swapped[None], cfg, params)[0]
    sort = lambda m: m[np.lexsort(m.T[::-1])]
    assert not np.allclose(sort(tok_a), sort(tok_b))


def test_vit_pose_off_is_patch_permutation_equivariant():
    cfg = vit_cfg(patch_grid=4, image_size=16)
    params = init_tokenizer_params(cfg, np.random.default_rng(5), np.float64)
    rng = np.random.default_rng(6)
    img = rand_image(rng, cfg.image_size)
    base = encode(img[None], cfg, params)[0]
    for _ in range(5):
        perm = rng.permutation(cfg.patch_grid**2)
        shuffled = permute_patches(img, cfg.patch_grid, perm)
        got = encode(shuffled[None], cfg, params)[0]
        assert np.allclose(got, base[perm], atol=1e-12, rtol=0)


def test_vit_tokens_project_channel_major_patch_rows():
    # proj_w is laid out for patch rows in (channel, pixel row, pixel column)
    # order; checkpoints depend on it.
    cfg = vit_cfg()
    params = init_tokenizer_params(cfg, np.random.default_rng(13), np.float64)
    img = rand_image(np.random.default_rng(14), cfg.image_size)
    x = 2.0 * img - 1.0  # the tokenizer's recentring to [-1, 1]
    g, p = cfg.patch_grid, cfg.image_size // cfg.patch_grid
    expected = np.empty((g * g, cfg.token_dim))
    for k in range(g * g):
        r, c = divmod(k, g)
        block = x[r * p : (r + 1) * p, c * p : (c + 1) * p]
        row = [block[i, j, ch] for ch in range(3) for i in range(p) for j in range(p)]
        expected[k] = np.array(row) @ params["tok.proj_w"].data + params["tok.proj_b"].data
    got = encode(img[None], cfg, params)[0]
    assert np.allclose(got, expected, atol=1e-12, rtol=0)


def test_encode_images_batch_matches_single():
    for cfg in (cnn_cfg(), vit_cfg()):
        params = init_tokenizer_params(cfg, np.random.default_rng(9), np.float64)
        rng = np.random.default_rng(10)
        imgs = np.stack([rand_image(rng, cfg.image_size) for _ in range(3)])
        batch = encode(imgs, cfg, params)
        for i in range(3):
            single = encode(imgs[i][None], cfg, params)[0]
            assert np.allclose(batch[i], single, atol=1e-12, rtol=0)


def test_image_features_cast_to_the_given_dtype():
    cfg = vit_cfg()
    params = init_tokenizer_params(cfg, np.random.default_rng(11), np.float32)
    img = rand_image(np.random.default_rng(12), cfg.image_size)  # float64 in
    feats = image_features(img[None], cfg, np.float32)
    assert feats.dtype == np.float32
    assert encode_images(feats, cfg, params).data.dtype == np.float32


def test_wrong_image_size_errors():
    cfg = cnn_cfg(image_size=16)
    params = init_tokenizer_params(cfg, np.random.default_rng(0), np.float32)
    bad = np.zeros((8, 8, 3))
    with pytest.raises(DataError, match="16"):
        image_features(bad[None], cfg, np.float32)
    with pytest.raises(DataError):
        image_features(np.zeros((16, 16))[None], cfg, np.float32)
    # raw images are not features: the learned stage names the missing step
    with pytest.raises(DataError, match="image_features"):
        encode_images(np.zeros((1, 16, 16, 3), dtype=np.float32), cfg, params)


@pytest.mark.parametrize("cfg", [cnn_cfg(), vit_cfg()])
def test_image_features_in_64_sample_chunks_match_per_batch_features(cfg):
    # A split featurized once in 64-sample chunks, as training and
    # evaluation store it, holds bitwise the features of any batch of it.
    rng = np.random.default_rng(40)
    imgs = rng.random((150, cfg.image_size, cfg.image_size, 3), dtype=np.float32)
    split = np.empty((len(imgs),) + feature_shape(cfg), dtype=np.float32)
    for lo in range(0, len(imgs), 64):
        split[lo : lo + 64] = image_features(imgs[lo : lo + 64], cfg, np.float32)
    for idx in (rng.permutation(150)[:4], np.arange(1), np.arange(149, 150), np.arange(64, 128)):
        assert np.array_equal(split[idx], image_features(imgs[idx], cfg, np.float32))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_cnn_lite_frozen_bank_matches_per_pixel_oracle(dtype, tol):
    cfg = cnn_cfg()
    imgs = np.random.default_rng(41).random((3, cfg.image_size, cfg.image_size, 3))
    got = image_features(imgs, cfg, dtype)
    assert got.dtype == dtype
    assert np.abs(got - frozen_bank_reference(imgs)).max() <= tol


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="backend"):
        ModelConfig(vision_backend="resnet").validate()
    with pytest.raises(ConfigError, match="token_dim"):
        vit_cfg(token_dim=0).validate()
    with pytest.raises(ConfigError, match="divisible"):
        vit_cfg(image_size=10, patch_grid=4).validate()
    # cnn_lite halves the image first, so g must divide image_size/2 too
    with pytest.raises(ConfigError, match="cnn_lite"):
        ModelConfig(
            vision_backend="cnn_lite", image_size=12, patch_grid=4, token_dim=8
        ).validate()
    cnn_cfg().validate()
    vit_cfg().validate()
