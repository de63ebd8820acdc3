"""Decoder stack, classification head, train step, and checkpoint format."""

import gc
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vqagpt.autodiff as ad
import vqagpt.cli as cli
import vqagpt.model as model_module
from conftest import mini_run_config
from vqagpt import kernels
from vqagpt.autodiff import AdamState, Tensor
from vqagpt.config import ModelConfig, RunConfig, apply_profile, serialize_config
from vqagpt.errors import CheckpointError, ConfigError, DataError, NonFiniteError
from vqagpt.model import (
    Peer,
    VQAModel,
    build_sequence,
    classify,
    decoder_forward,
    feature_logits,
    forward_logits,
    init_params,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train_step,
)
from vqagpt.tokenizers import PAD_ID, image_features

from oracles import gelu_reference, one_part_train_step, softmax_reference


def small_config(**kw):
    base = dict(
        d=8,
        n_layers=1,
        n_heads=2,
        mlp_ratio=2,
        max_pos=16,
        num_classes=5,
        vocab_size=9,
        order="early_word",
        vision_pose_mode="actual",
        use_type_embedding=True,
        vision_backend="vit_lite",
        image_size=8,
        patch_grid=2,
        token_dim=8,
    )
    base.update(kw)
    return ModelConfig(**base)


def raw_sequence(rng, length, d, dtype=np.float64):
    # one sample: (1, length, d)
    return Tensor(rng.standard_normal((1, length, d)).astype(dtype), requires_grad=True)


def no_pad(x):
    """key_pad flags for rows ``x`` of which none is padding."""
    return np.zeros(x.shape[:2], dtype=bool)


def layer_norm_ref(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return g * (xc / np.sqrt(var + eps)) + b


# ---------------------------------------------------------------------------
# init


def test_init_params_seed_determinism():
    cfg = small_config()
    a = init_params(cfg, seed=3, dtype=np.float32)
    b = init_params(cfg, seed=3, dtype=np.float32)
    c = init_params(cfg, seed=4, dtype=np.float32)
    assert list(a.params) == list(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data), k
    assert any(not np.array_equal(a.params[k].data, c.params[k].data) for k in a.params)


def test_init_params_conventions():
    m = init_params(small_config(), seed=0, dtype=np.float64)
    assert np.all(m.params["h0.ln1_g"].data == 1.0)
    assert np.all(m.params["h0.qkv_b"].data == 0.0)
    assert np.all(m.params["head.fc2_b"].data == 0.0)
    w = m.params["h0.qkv_w"].data
    assert 0.01 < w.std() < 0.03  # N(0, 0.02) draw


def test_param_count_matches_hand_count():
    # d=8, 1 layer, 2 heads, mlp hidden 16, vit_lite 8px/2-grid with internal
    # pose, vision token width 5 so the projection path is exercised too.
    cfg = small_config(token_dim=5, vit_internal_pose=True)
    m = init_params(cfg, seed=0)
    d, td, patch = 8, 5, 4  # patch = image_size / grid
    embeddings = 9 * d + 2 * d + 16 * d  # word + type + pose tables
    projection = td * d + d
    vit = (3 * patch * patch) * td + td + 4 * td  # proj w/b + per-patch pose
    block = (
        (d + d)  # ln1
        + (d * 3 * d + 3 * d)  # qkv
        + (d * d + d)  # attention out
        + (d + d)  # ln2
        + (d * 2 * d + 2 * d)  # mlp in
        + (2 * d * d + d)  # mlp out
    )
    final_norm = d + d
    head = (d * d + d) + (d * 5 + 5)
    assert m.flat.size == embeddings + projection + vit + block + final_norm + head


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="divisible"):
        small_config(d=9).validate()
    with pytest.raises(ConfigError, match="n_heads"):
        small_config(n_heads=0).validate()
    with pytest.raises(ConfigError, match="num_classes"):
        small_config(num_classes=1).validate()
    with pytest.raises(ConfigError, match="vocab_size"):
        small_config(vocab_size=1).validate()
    small_config().validate()


# ---------------------------------------------------------------------------
# decoder forward


def test_single_token_attention_is_value_projection():
    # with one position, softmax collapses to 1 and the attention read-out is
    # exactly the value projection; the oracle below never computes softmax
    cfg = small_config()
    m = init_params(cfg, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    seq = raw_sequence(rng, 1, cfg.d)
    got = decoder_forward(seq, m, no_pad(seq)).data[0]

    p = {k: v.data for k, v in m.params.items()}
    x = seq.data[0]
    h = layer_norm_ref(x, p["h0.ln1_g"], p["h0.ln1_b"])
    qkv = h @ p["h0.qkv_w"] + p["h0.qkv_b"]
    v = qkv[:, 2 * cfg.d :]  # attention over one token returns v unchanged
    x = x + v @ p["h0.attn_out_w"] + p["h0.attn_out_b"]
    h2 = layer_norm_ref(x, p["h0.ln2_g"], p["h0.ln2_b"])
    mid = gelu_reference(h2 @ p["h0.mlp_in_w"] + p["h0.mlp_in_b"])
    x = x + mid @ p["h0.mlp_out_w"] + p["h0.mlp_out_b"]
    expected = layer_norm_ref(x, p["lnf_g"], p["lnf_b"])
    assert np.max(np.abs(got - expected)) < 1e-10


def test_causal_mask_blocks_future_positions_exactly():
    cfg = small_config(n_layers=2)
    m = init_params(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(6)
    base = rng.standard_normal((7, cfg.d))
    out_a = decoder_forward(Tensor(base[None]), m, no_pad(base[None])).data[0]
    for j in (1, 4, 6):
        bumped = base.copy()
        bumped[j] += rng.standard_normal(cfg.d)
        out_b = decoder_forward(Tensor(bumped[None]), m, no_pad(bumped[None])).data[0]
        assert np.array_equal(out_a[:j], out_b[:j])  # |delta| = 0, not just small
        assert not np.array_equal(out_a[j], out_b[j])


def test_all_zero_parameters_give_zero_output():
    cfg = small_config()
    m = init_params(cfg, seed=7, dtype=np.float64)
    for t in m.params.values():
        t.data[...] = 0.0
    rng = np.random.default_rng(8)
    seq = raw_sequence(rng, 5, cfg.d)
    out = decoder_forward(seq, m, no_pad(seq)).data
    assert np.all(out == 0.0)
    logits = classify(seq, m, no_pad(seq)).data
    assert np.all(logits == 0.0)


def test_decoder_runs_past_the_pose_rows_and_vision_slots():
    # The decoder has no position table, so nothing caps the sequence length:
    # 12 positions run on a model with 4 pose rows and 4 vision slots, and by
    # causality the first 8 states are those of the 8-position prefix alone.
    cfg = small_config(max_pos=4)
    m = init_params(cfg, seed=0, dtype=np.float64)
    seq = raw_sequence(np.random.default_rng(9), 12, cfg.d)
    out = decoder_forward(seq, m, no_pad(seq)).data
    assert out.shape == (1, 12, cfg.d) and np.all(np.isfinite(out))
    prefix = Tensor(seq.data[:, :8])
    np.testing.assert_allclose(out[:, :8], decoder_forward(prefix, m, no_pad(prefix)).data,
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# classification head


def test_logits_length_follows_num_classes():
    cfg = small_config(num_classes=18)
    m = init_params(cfg, seed=10, dtype=np.float64)
    rng = np.random.default_rng(11)
    seq = raw_sequence(rng, 6, cfg.d)  # 2 word rows, then the 4 vision rows
    logits = classify(seq, m, no_pad(seq)).data[0]
    assert logits.shape == (18,)
    assert np.all(np.isfinite(logits))
    probs = softmax_reference(logits)
    assert abs(probs.sum() - 1.0) < 1e-6


def test_classify_rejects_rows_that_cannot_hold_the_readout():
    # 3 rows on a model with m = 4 vision slots: the readout rows the layout
    # implies (the last 4, or those after the first 4) are not rows of x.
    seq = raw_sequence(np.random.default_rng(11), 3, small_config().d)
    for order in ("early_word", "early_vision"):
        m = init_params(small_config(order=order), seed=10, dtype=np.float64)
        with pytest.raises(ValueError, match="readout rows"):
            classify(seq, m, no_pad(seq))


@pytest.mark.parametrize("patch_grid", [2, 1])
@pytest.mark.parametrize("order", ["early_word", "early_vision"])
def test_classify_pools_the_real_rows_of_the_trailing_segment(order, patch_grid):
    # classify finds its readout rows from the order, the m vision slots and
    # the key_pad width alone.  Oracle: the head applied to
    # the mean final state over the rows the layout implies, the m vision
    # rows after the n word slots (early_word) or the real word rows after
    # the m vision rows (early_vision).  It must hold for the recorded
    # forward and under no_grad, where early_word runs the QuestionPrefix
    # path (the n word slots are past) and early_vision cuts the id slots
    # that are padding in every row; and for m = 1, whose one-row readout
    # runs the full sequence.
    cfg = small_config(order=order, patch_grid=patch_grid)
    m = init_params(cfg, seed=14, dtype=np.float64)
    rng = np.random.default_rng(15)
    feats = image_features(rng.random((3, 8, 8, 3)), cfg, np.float64)
    qids = np.array([[2, 3, 4, PAD_ID, PAD_ID, PAD_ID], [5, 6, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
                     [7, 8, 2, 3, PAD_ID, PAD_ID]])
    n, n_vision = qids.shape[1], cfg.n_tokens
    key_pad = model_module._key_pad(qids, cfg)
    seq = build_sequence(feats, qids, m)
    states = decoder_forward(seq, m, key_pad).data
    if order == "early_word":
        rows = [np.arange(n, n + n_vision)] * len(qids)
    else:
        rows = [n_vision + np.flatnonzero(q != PAD_ID) for q in qids]
    pooled = np.stack([states[b, r].mean(axis=0) for b, r in enumerate(rows)])
    p = {k: v.data for k, v in m.params.items()}
    want = gelu_reference(pooled @ p["head.fc1_w"] + p["head.fc1_b"]) @ p["head.fc2_w"]
    want += p["head.fc2_b"]
    np.testing.assert_allclose(classify(seq, m, key_pad).data, want, rtol=1e-12, atol=1e-14)
    with ad.no_grad():
        got = feature_logits(feats, qids, m).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_early_vision_logits_ignore_padding_positions():
    # early_vision puts the right-padded question last, so the final position
    # is <pad>; the head must pool only the real word positions.
    cfg = small_config(order="early_vision")
    m = init_params(cfg, seed=26, dtype=np.float64)
    rng = np.random.default_rng(27)
    imgs = rng.random((2, 8, 8, 3))
    qids = np.array([[2, 3, 4, PAD_ID, PAD_ID], [5, 6, PAD_ID, PAD_ID, PAD_ID]])
    n_vision = cfg.n_tokens
    key_pad = np.concatenate(
        [np.zeros((2, n_vision), dtype=bool), qids == PAD_ID], axis=1
    )
    seq = build_sequence(image_features(imgs, cfg, np.float64), qids, m)
    with ad.no_grad():
        base = classify(seq, m, key_pad=key_pad).data
        assert np.array_equal(base, forward_logits(imgs, qids, m).data)
        bumped = seq.data.copy()
        bumped[key_pad] += rng.standard_normal((int(key_pad.sum()), cfg.d))
        got = classify(Tensor(bumped), m, key_pad=key_pad).data
        assert np.array_equal(got, base)  # bitwise, not just close
        # a real word position does move the logits, so the check has teeth
        moved = seq.data.copy()
        moved[:, n_vision] += 1.0
        other = classify(Tensor(moved), m, key_pad=key_pad).data
        assert not np.array_equal(other, base)
        # a question that is all padding leaves nothing to pool
        blank = np.full_like(qids, PAD_ID)
        with pytest.raises(ValueError, match="only padding"):
            forward_logits(imgs, blank, m)


def questions(rng, batch: int, distinct: int, lengths=range(3, 13)) -> np.ndarray:
    """``batch`` rows cycling through ``distinct`` random 12-id questions.

    Question r has ``lengths[r % len(lengths)]`` words: 3-12 by default.
    """
    rows = rng.integers(2, 30, size=(distinct, 12))
    for r, row in enumerate(rows):
        row[lengths[r % len(lengths)] :] = PAD_ID
    return rows[np.arange(batch) % distinct]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("backend", ["cnn_lite", "vit_lite"])
@pytest.mark.parametrize("order", ["early_word", "early_vision"])
def test_no_grad_logits_equal_the_recorded_forward_bit_for_bit(order, backend, dtype):
    # Under no_grad the last block runs the readout rows alone, and in
    # early_word order the vision rows attend over keys and values that each
    # distinct question's rows computed once (QuestionPrefix).  The logits
    # must be the recorded full-sequence forward's, byte for byte, at the
    # desk widths (d = 64, 4 heads, 2 x 2 vision tokens, 12 words), whether
    # one question fills the batch or none repeats, and whether the prefix
    # is the batch's own or one of more questions in another order.  A
    # readout segment of one row (one vision token, or one-id questions)
    # would take gemv, so it must run the full sequence.  In early_vision
    # order the id slots that are padding in every row are cut, so batches
    # whose questions are all shorter than the 12 slots, of one length or
    # of several, and of one word (a one-row readout again), must match too.
    # Keep the f64 cases: a head that pools without the zero rows for the
    # past and cut slots gives the same f32 bytes here, and no run of
    # tools/outputs.sh (its f64 desk run included) changes either, so only
    # the f64 early_vision cases of this test catch it.
    rng = np.random.default_rng(60)
    base = dict(d=64, n_layers=2, n_heads=4, mlp_ratio=4, max_pos=64, vocab_size=30,
                num_classes=11, image_size=16, patch_grid=2, token_dim=64, order=order,
                vision_backend=backend)
    words = range(3, 13)
    cases = [({}, batch, distinct, 12, words)
             for batch, distinct in ((1, 1), (4, 2), (64, 1), (67, 67))]
    cases += [(kw, batch, 5, 12, words) for kw in ({"n_layers": 1}, {"use_type_embedding": False})
              for batch in (4, 67)]
    cases += [({"patch_grid": 1}, 4, 2, 12, words), ({}, 4, 2, 1, words)]
    if order == "early_vision":
        cases += [({}, batch, distinct, 12, lengths)
                  for batch, distinct, lengths in ((64, 64, (5,)), (67, 67, range(2, 9)),
                                                   (4, 4, (1,)), (9, 9, (1, 2, 7)))]
        cases += [({"patch_grid": 1}, 4, 4, 12, (6,))]
    for kw, batch, distinct, width, lengths in cases:
        cfg = small_config(**{**base, **kw})
        m = init_params(cfg, seed=61, dtype=dtype)
        feats = image_features(rng.random((batch, 16, 16, 3)), cfg, dtype)
        qids = questions(rng, batch, distinct, lengths)[:, :width]
        want = feature_logits(feats, qids, m).data.tobytes()
        with ad.no_grad():
            assert feature_logits(feats, qids, m).data.tobytes() == want, (kw, batch)
            if order == "early_word":
                more = np.concatenate([questions(rng, 9, 9)[:, :width], qids[::-1]])
                prefix = model_module.QuestionPrefix(more, m)
                assert feature_logits(feats, qids, m, prefix).data.tobytes() == want, (kw, batch)


def test_no_grad_desk_chunk_holds_no_whole_chunk_patch_matrices():
    # A 64-sample evaluation chunk of the desk model: each conv2d gathers
    # and multiplies its patch rows block by block (CONV_BLOCK_ROWS), so its
    # patch matrix never exists for the whole chunk.  Whole-chunk patch
    # matrices alone take 4.7 and 9.4 MB, and after an eval command forks
    # its peer every page it writes is copied, so the traced peak is
    # bounded at 5 MiB.
    keys = apply_profile(RunConfig(), "desk")
    m = init_params(keys.to_model_config(vocab_size=30, num_classes=11), seed=62,
                    dtype=np.float32)
    rng = np.random.default_rng(63)
    feats = image_features(rng.random((64, keys.image_size, keys.image_size, 3)), keys,
                           np.float32)
    qids = questions(rng, 64, 33)
    with ad.no_grad():
        tracemalloc.start()
        try:
            feature_logits(feats, qids, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 5 << 20, peak / 2**20


def test_argmax_ties_break_toward_lowest_class():
    cfg = small_config()
    m = init_params(cfg, seed=14, dtype=np.float64)
    m.params["head.fc2_w"].data[...] = 0.0
    m.params["head.fc2_b"].data[...] = 0.0  # all logits identical
    rng = np.random.default_rng(15)
    imgs = rng.random((3, 8, 8, 3))
    qids = np.array([[2, 3], [4, 5], [6, 7]])
    with ad.no_grad():
        logits = forward_logits(imgs, qids, m).data
    assert np.argmax(logits, axis=-1).tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# train step


def batch_for(m, rng, n=4):
    """A train batch for model ``m``: image features, question ids, labels."""
    cfg = m.config
    imgs = rng.random((n, cfg.image_size, cfg.image_size, 3))
    qids = rng.integers(0, cfg.vocab_size, (n, 3))
    labels = rng.integers(0, cfg.num_classes, n)
    return image_features(imgs, cfg, m.flat.dtype), qids, labels


def test_initial_loss_is_near_log_num_classes():
    cfg = small_config(num_classes=5)
    m = init_params(cfg, seed=16, dtype=np.float64)
    rng = np.random.default_rng(17)
    feats, qids, labels = batch_for(m, rng, n=32)
    with ad.no_grad():
        logits = feature_logits(feats, qids, m)
        loss = ad.cross_entropy(logits, labels)
    assert abs(float(loss.data) - np.log(5)) < 0.05


def test_train_step_returns_pre_step_loss_and_zero_lr_freezes_params():
    cfg = small_config()
    m = init_params(cfg, seed=18, dtype=np.float64)
    rng = np.random.default_rng(19)
    batch = batch_for(m, rng)
    before = {k: v.data.copy() for k, v in m.params.items()}
    with ad.no_grad():
        expected_loss = float(
            ad.cross_entropy(feature_logits(batch[0], batch[1], m), batch[2]).data
        )
    got = train_step(batch, m, AdamState(lr=0.0))
    assert got == pytest.approx(expected_loss, rel=0, abs=1e-12)
    for k, v in m.params.items():
        assert np.array_equal(v.data, before[k]), k


def test_train_step_moves_parameters_and_reduces_loss():
    cfg = small_config()
    m = init_params(cfg, seed=20, dtype=np.float64)
    rng = np.random.default_rng(21)
    batch = batch_for(m, rng, n=8)
    opt = AdamState(lr=3e-3)
    first = train_step(batch, m, opt)
    losses = [train_step(batch, m, opt) for _ in range(60)]
    assert losses[-1] < first * 0.5


def test_train_step_label_range_error():
    cfg = small_config(num_classes=5)
    m = init_params(cfg, seed=22, dtype=np.float64)
    rng = np.random.default_rng(23)
    feats, qids, _ = batch_for(m, rng, n=2)
    before = m.flat.copy()
    with pytest.raises(ValueError, match="label out of range"):
        train_step((feats, qids, np.array([0, 5])), m, AdamState())
    # cross_entropy raises before backward and Adam run
    assert m.flat.tobytes() == before.tobytes()


def test_train_step_non_finite_loss_or_gradient_stops_before_adam(monkeypatch):
    cfg = small_config()
    m = init_params(cfg, seed=24, dtype=np.float32)
    batch = batch_for(m, np.random.default_rng(25))
    opt = AdamState(lr=1e-2)
    m.params["h0.mlp_in_w"].data[0, 0] = np.nan
    before = m.flat.copy()
    with pytest.raises(NonFiniteError, match="^non-finite loss nan$"):
        train_step(batch, m, opt)
    assert m.flat.tobytes() == before.tobytes()

    m = init_params(cfg, seed=24, dtype=np.float32)
    real = ad.backward

    def poisoned(root):
        real(root)
        m.params["head.fc1_b"].grad[1] = np.inf
        m.params["h0.qkv_w"].grad[2, 3] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned)
    before = m.flat.copy()
    with pytest.raises(NonFiniteError, match=r"^non-finite gradient in h0\.qkv_w$"):
        train_step(batch, m, opt)
    assert m.flat.tobytes() == before.tobytes()
    assert opt.step == 0 and opt.m is None


def _two_linears_and_a_doubled_add():
    # x feeds both linears and both inputs of one add, so it collects an
    # adopted linear gradient, a second one and two copies of add's grad.
    rng = np.random.default_rng(40)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w1, w2 = (Tensor(rng.standard_normal((5, 5)), requires_grad=True) for _ in range(2))
    b1, b2 = (Tensor(np.zeros(5), requires_grad=True) for _ in range(2))
    mixed = ad.add(ad.add(x, x), ad.add(ad.linear(x, w1, b1), ad.linear(x, w2, b2)))
    return ad.cross_entropy(mixed, np.array([0, 3, 1, 4]))


def _desk_loss(**overrides):
    keys = replace(apply_profile(RunConfig(), "desk"), **overrides)
    m = init_params(keys.to_model_config(vocab_size=30, num_classes=11), seed=41)
    rng = np.random.default_rng(42)
    imgs = rng.random((8, keys.image_size, keys.image_size, 3))
    qids = rng.integers(1, 30, (8, keys.max_question_len))
    logits = feature_logits(image_features(imgs, keys, m.flat.dtype), qids, m)
    return ad.cross_entropy(logits, rng.integers(0, 11, 8))


@pytest.mark.parametrize("build", [
    _two_linears_and_a_doubled_add,
    _desk_loss,
    lambda: _desk_loss(vision_backend="vit_lite", order="early_vision"),
], ids=["doubled_add", "desk", "desk_vit_early_vision"])
def test_adopted_gradients_are_unshared_and_bitwise_the_copied_ones(build, monkeypatch):
    runs = []
    for copy_all in (False, True):
        with monkeypatch.context() as mp:
            if copy_all:
                accum = ad._accum
                mp.setattr(ad, "_accum", lambda t, g, fresh=False: accum(t, g))
            loss = build()
            ad.backward(loss)
        runs.append([n.grad for n in ad._topo_order(loss)])
    adopted, copied = runs
    assert all(g is not None for g in adopted) and len(adopted) == len(copied)
    for a, c in zip(adopted, copied):
        assert a.dtype == c.dtype and a.shape == c.shape and a.tobytes() == c.tobytes()
    for i, a in enumerate(adopted):
        assert not any(np.shares_memory(a, b) for b in adopted[i + 1:])


def test_train_step_makes_one_adam_kernel_call(monkeypatch):
    sizes = []
    real = kernels.adam_update

    def counting(param, *rest):
        sizes.append(param.size)
        real(param, *rest)

    monkeypatch.setattr(kernels, "adam_update", counting)
    cfg = small_config()
    m = init_params(cfg, seed=30, dtype=np.float64)
    train_step(batch_for(m, np.random.default_rng(31)), m, AdamState())
    assert sizes == [m.flat.size]


def test_parameter_outside_the_loss_graph_stays_bitwise_unchanged():
    # Without type embeddings emb.type never enters the loss: its gradient
    # stays exactly zero, so Adam's moments stay zero and so does its update.
    cfg = small_config(use_type_embedding=False)
    m = init_params(cfg, seed=32, dtype=np.float32)
    before = {k: v.data.copy() for k, v in m.params.items()}
    opt = AdamState(lr=1e-2)
    rng = np.random.default_rng(33)
    for _ in range(3):
        train_step(batch_for(m, rng), m, opt)
    assert m.params["emb.type"].data.tobytes() == before["emb.type"].tobytes()
    for k, v in m.params.items():
        if k != "emb.type":
            assert not np.array_equal(v.data, before[k]), k


# ---------------------------------------------------------------------------
# the split train step

# The two model shapes the split step must handle: a cnn_lite tokenizer with
# actual-pose rows, and a vit_lite one whose internal pose table is added by
# broadcast over the batch, with zero-pose rows, read out from the words.
SPLIT_CASES = {
    "cnn_early_word_actual": dict(vision_backend="cnn_lite", order="early_word",
                                  vision_pose_mode="actual"),
    "vit_early_vision_zero_internal": dict(vision_backend="vit_lite", order="early_vision",
                                           vision_pose_mode="zero", vit_internal_pose=True),
}


def split_model(case, dtype, seed=50):
    keys = RunConfig(d=16, n_layers=1, n_heads=2, mlp_ratio=2, max_pos=32, image_size=16,
                     patch_grid=2, token_dim=8, **SPLIT_CASES[case])
    return init_params(keys.to_model_config(vocab_size=12, num_classes=7), seed, dtype)


def adam_bytes(opt):
    return opt.m.tobytes(), opt.v.tobytes(), opt.step


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_train_step_is_the_one_part_step_below_64_and_agrees_to_the_last_bits_above(
    case, dtype, monkeypatch
):
    # Below SPLIT_BATCH the step is the one-part reference bit for bit.  From
    # it on, the loss still is, and the gradient differs only in the last
    # bits: each sum over the batch is now the sum of two half sums.
    rtol = 1e-6 if dtype == np.float32 else 1e-12
    split_calls = []
    real_split = model_module._split_backward
    monkeypatch.setattr(model_module, "_split_backward",
                        lambda *a: split_calls.append(len(a[2])) or real_split(*a))
    assert model_module.SPLIT_BATCH == 64
    for n in (4, 16, 63, 64, 67):
        ref, got = split_model(case, dtype), split_model(case, dtype)
        ref_opt, got_opt = AdamState(lr=1e-2), AdamState(lr=1e-2)
        batch = batch_for(ref, np.random.default_rng(n), n)
        assert train_step(batch, got, got_opt) == one_part_train_step(batch, ref, ref_opt)
        if n < 64:
            assert got.grad.tobytes() == ref.grad.tobytes(), n
            assert got.flat.tobytes() == ref.flat.tobytes(), n
            assert adam_bytes(got_opt) == adam_bytes(ref_opt), n
            continue
        assert got.grad.tobytes() != ref.grad.tobytes(), n
        assert np.abs(got.grad - ref.grad).max() <= rtol * np.abs(ref.grad).max(), n
    assert split_calls == [64, 67]


def pooled(*batches):
    """One (features, question ids, labels) triple of ``batches``, and each one's rows in it."""
    bounds = np.cumsum([0] + [len(b[2]) for b in batches])
    pair = tuple(np.concatenate(parts) for parts in zip(*batches))
    return pair, [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_steps_are_bitwise_the_same_on_any_number_of_threads(case, dtype):
    # With the peer, a forked process gathers and runs the second half of
    # each step from the rows it is sent; without it, both halves run here,
    # in turn, whether or not the batch names its rows.  The rows come
    # shuffled, as an epoch's do.
    for n in (64, 67):
        rng = np.random.default_rng(60 + n)
        proto = split_model(case, dtype)
        (feats, qids, labels), _ = pooled(*(batch_for(proto, rng, n) for _ in range(2)))
        order = rng.permutation(2 * n)
        results = []
        for with_peer, with_rows in ((False, False), (False, True), (True, True)):
            m, opt = split_model(case, dtype), AdamState(lr=1e-2)
            with Peer(m, [(feats, qids)], fork=with_peer) as peer:
                assert (m.peer is peer) == with_peer and (peer.pid != 0) == with_peer
                losses = []
                for rows in (order[:n], order[n:]):
                    batch = (feats[rows], qids[rows], labels[rows]) + ((rows,) if with_rows else ())
                    losses.append(train_step(batch, m, opt))
            assert m.peer is None
            results.append((losses, m.grad.tobytes(), m.flat.tobytes(), adam_bytes(opt)))
        assert all(r == results[0] for r in results[1:]), n


def test_an_error_in_one_half_raises_the_one_part_error_and_changes_nothing(monkeypatch):
    # Each case fails in the peer's half or in both, and the step raises the
    # one-part step's error, class and message, only after both halves have
    # ended.  Half sizes pick the case, since the patches below must be in
    # place before the fork: features one column short in the halves of 33
    # (the peer's half of 67) and of 35 and 36 (both halves of 71), the
    # latter after 0.3 s in the peer; a NaN written into the peer's h0.qkv_w
    # gradient in the half of 37 (the peer's half of 75).  A NaN feature in
    # the peer's half of 77 makes the loss NaN.  Good steps (64 = 32 + 32)
    # meet no patch, and the one after the errors is the peerless step's
    # bit for bit, so the pipe is still in step.
    case, parent = "cnn_early_word_actual", os.getpid()
    m, opt = split_model(case, np.float32), AdamState(lr=1e-2)
    ref, ref_opt = split_model(case, np.float32), AdamState(lr=1e-2)
    rng = np.random.default_rng(70)
    warm, good, bad, poisoned = (batch_for(m, rng, n) for n in (64, 64, 67, 77))
    poisoned[0][76] = np.nan  # the peer's half holds samples 39..76
    (feats, qids, labels), rows = pooled(warm, good, bad, poisoned, batch_for(m, rng, 71),
                                         batch_for(m, rng, 75))
    real_logits, real_backward = model_module.feature_logits, ad.backward

    def short(f, q, mdl):
        if len(f) in (33, 35, 36):
            if len(f) == 35 and os.getpid() != parent:
                time.sleep(0.3)
            f = f[..., :-1]
        return real_logits(f, q, mdl)

    def nan_in_the_peer(root, grad=None):
        real_backward(root, grad)
        if grad is not None and len(grad) == 37 and os.getpid() != parent:
            m.replica.params["h0.qkv_w"].grad[2, 3] = np.nan

    monkeypatch.setattr(model_module, "feature_logits", short)
    monkeypatch.setattr(ad, "backward", nan_in_the_peer)

    def raised(step, batch):
        with pytest.raises((DataError, NonFiniteError, ValueError)) as info:
            if step is one_part_train_step:
                step(batch[:3], split_model(case, np.float32), AdamState(lr=1e-2))
            else:
                step(batch, m, opt)
        return type(info.value), str(info.value)

    def at(i):
        return feats[rows[i]], qids[rows[i]], labels[rows[i]], rows[i]

    with Peer(m, [(feats, qids)]) as peer:
        assert train_step(at(0), m, opt) == train_step(warm, ref, ref_opt)
        before = (m.flat.tobytes(), adam_bytes(opt))
        expected = raised(one_part_train_step, (bad[0][..., :-1], *bad[1:]))
        assert expected[0] is DataError and "got (8, 8, 7); " in expected[1]
        assert raised(train_step, at(2)) == expected
        t0 = time.perf_counter()
        assert raised(train_step, at(4)) == expected
        assert time.perf_counter() - t0 >= 0.3
        expected = raised(one_part_train_step, poisoned)
        assert expected == (NonFiniteError, "non-finite loss nan")
        assert raised(train_step, at(3)) == expected
        assert raised(train_step, at(5)) == (NonFiniteError, "non-finite gradient in h0.qkv_w")
        assert (m.flat.tobytes(), adam_bytes(opt)) == before

        # A label out of range stops the step before any backward runs here.
        walks = []
        monkeypatch.setattr(ad, "backward", lambda *a: walks.append(a) or real_backward(*a))
        out_of_range = at(1)[2].copy()
        out_of_range[50] = m.config.num_classes
        got = raised(train_step, (*at(1)[:2], out_of_range, rows[1]))
        assert got[0] is ValueError and "label out of range" in got[1]
        assert walks == []
        assert (m.flat.tobytes(), adam_bytes(opt)) == before

        assert peer.pid != 0
        assert train_step(at(1), m, opt) == train_step(good, ref, ref_opt)
    assert (m.flat.tobytes(), adam_bytes(opt)) == (ref.flat.tobytes(), adam_bytes(ref_opt))


def test_no_peer_is_forked_beside_another_thread():
    # A forked child gets a copy of every lock another thread holds, and no
    # thread to release it; so the peer's work then runs in this process.
    m = split_model("cnn_early_word_actual", np.float32)
    feats, qids, _ = batch_for(m, np.random.default_rng(72), 4)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        with Peer(m, [(feats, qids)]) as peer:
            assert peer.pid == 0 and m.peer is None
            mine, theirs = peer.both(lambda: peer.logits(0, [slice(2, 4)]), "logits", 0, [slice(0, 2)])
            assert np.concatenate(theirs + mine).shape == (4, m.config.num_classes)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()


def test_a_failed_fork_runs_the_peers_work_in_process(mini_corpus, tmp_path, capsys, monkeypatch):
    # With no process to spare, os.fork raises; the eval command then runs
    # the peer's chunks itself, exits 0 with the report of a forked run, and
    # leaves no frozen collector behind.
    cfg = mini_run_config(mini_corpus["root"], tmp_path / "train", epochs=0)
    (tmp_path / "c.cfg").write_text(serialize_config(cfg))
    assert cli.main(["train", "--config", str(tmp_path / "c.cfg")]) == 0
    argv = ["eval", "--checkpoint", str(tmp_path / "train" / cli.CHECKPOINT_NAME),
            "--data", str(mini_corpus["root"]), "--out", str(tmp_path / "eval")]
    capsys.readouterr()
    assert cli.main(argv) == 0
    forked = capsys.readouterr().out
    frozen, forks, models = gc.get_freeze_count(), [], []

    def no_fork():
        forks.append(1)
        raise BlockingIOError("no process to spare")

    def restore(*args, real=cli.restore_model):
        models.append(real(*args))
        return models[-1]

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cli, "restore_model", restore)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == forked
    assert forks == [1] and models[0].peer is None
    assert gc.get_freeze_count() == frozen


def test_the_replica_shares_the_parameters_and_owns_its_gradients():
    m = init_params(small_config(), seed=71)
    rep = m.replica
    assert rep is m.replica and rep.flat is m.flat and list(rep.params) == list(m.params)
    for name, p in m.params.items():
        assert np.shares_memory(rep.params[name].data, m.flat), name
        assert np.shares_memory(rep.params[name].grad, rep.grad), name
    assert not np.shares_memory(rep.grad, m.grad)


# ---------------------------------------------------------------------------
# checkpoints


CONFIG_TEXT = "# frozen run settings\nd = 8\n"
VOCAB = ["<pad>", "<unk>", "what", "is"]
LABELS = ["red\t0", "blue\t1"]


def assert_packed(m):
    """Every .data / .grad is a view of model.flat / model.grad, in insertion order."""
    p0 = m.flat.__array_interface__["data"][0]
    g0 = m.grad.__array_interface__["data"][0]
    offset = 0
    for k, v in m.params.items():
        assert v.data.__array_interface__["data"][0] - p0 == offset * m.flat.itemsize, k
        assert v.grad.__array_interface__["data"][0] - g0 == offset * m.grad.itemsize, k
        assert np.shares_memory(v.data, m.flat) and np.shares_memory(v.grad, m.grad), k
        offset += v.data.size
    assert offset == m.flat.size == m.grad.size


def test_parameters_and_gradients_are_views_of_two_flat_buffers(tmp_path):
    cfg = small_config()
    m = init_params(cfg, seed=26, dtype=np.float32)
    assert_packed(m)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m, CONFIG_TEXT, VOCAB, LABELS)
    restored = restore_model(cfg, load_checkpoint(path)[3])
    assert_packed(restored)
    assert restored.flat.tobytes() == m.flat.tobytes()
    # the views are what Adam moves: a restored model must train
    before = {k: v.data.copy() for k, v in restored.params.items()}
    train_step(batch_for(restored, np.random.default_rng(27)), restored, AdamState(lr=1e-2))
    for k, v in restored.params.items():
        assert not np.array_equal(v.data, before[k]), k


def test_failed_save_keeps_previous_checkpoint_and_leaves_no_temp_file(
    tmp_path, monkeypatch
):
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, seed=0), CONFIG_TEXT, VOCAB, LABELS)
    good = path.read_bytes()
    real, calls = model_module._write_block, []

    def write_then_fail(f, payload):
        calls.append(len(payload))
        if len(calls) == 6:  # the first tensor's data, after its name and dtype
            raise OSError("disk full")
        real(f, payload)

    monkeypatch.setattr(model_module, "_write_block", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, init_params(cfg, seed=1), CONFIG_TEXT, VOCAB, LABELS)
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    cfg = small_config()
    m = init_params(cfg, seed=24, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, CONFIG_TEXT, VOCAB, LABELS)
    config_text, vocab, labels, tensors = load_checkpoint(path)
    assert config_text == CONFIG_TEXT
    assert vocab == VOCAB
    assert labels == LABELS
    assert set(tensors) == set(m.params)
    for k, arr in tensors.items():
        assert arr.dtype == m.params[k].data.dtype
        assert np.array_equal(arr, m.params[k].data)

    restored = restore_model(cfg, tensors)
    for k in m.params:
        assert np.array_equal(restored.params[k].data, m.params[k].data)
        assert restored.params[k].data.dtype == np.float32

    # saving the restored model reproduces the file byte for byte
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, restored, CONFIG_TEXT, VOCAB, LABELS)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_bad_version(tmp_path):
    cfg = small_config()
    m = init_params(cfg, seed=0)
    p = tmp_path / "v.ckpt"
    save_checkpoint(p, m, CONFIG_TEXT, VOCAB, LABELS)
    blob = bytearray(p.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(p)


def test_checkpoint_truncation_and_trailing_bytes(tmp_path):
    cfg = small_config()
    m = init_params(cfg, seed=0)
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, m, CONFIG_TEXT, VOCAB, LABELS)
    blob = p.read_bytes()

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(CheckpointError, match="truncat"):
        load_checkpoint(cut)

    fat = tmp_path / "fat.ckpt"
    fat.write_bytes(blob + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(fat)


def text_block_offsets(blob, first_tensor):
    """{block name: payload offset} of each text block, up to the first tensor's dtype."""
    names = ["config block", "vocabulary block", "label map block"]
    offsets, pos = {}, 8  # past magic and version
    for what in names + ["tensor name", f"dtype of {first_tensor}"]:
        if what == "tensor name":
            pos += 4  # the tensor count
        offsets[what] = pos + 8
        pos += 8 + int.from_bytes(blob[pos : pos + 8], "little")
    return offsets


def test_checkpoint_length_prefix_past_the_end_is_a_truncation(tmp_path):
    m = init_params(small_config(), seed=0)
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, m, CONFIG_TEXT, VOCAB, LABELS)
    blob = p.read_bytes()
    bad = tmp_path / "long.ckpt"
    for what, at in text_block_offsets(blob, next(iter(m.params))).items():
        # a length no file could back: read unchecked, it would size a buffer
        bad.write_bytes(blob[: at - 8] + (2**62).to_bytes(8, "little") + blob[at:])
        with pytest.raises(CheckpointError, match=f"^truncated checkpoint while reading {what}$"):
            load_checkpoint(bad)


def test_checkpoint_text_block_that_does_not_decode_is_corrupt(tmp_path):
    m = init_params(small_config(), seed=0)
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, m, CONFIG_TEXT, VOCAB, LABELS)
    blob = p.read_bytes()
    bad = tmp_path / "bytes.ckpt"
    for what, at in text_block_offsets(blob, next(iter(m.params))).items():
        bad.write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])
        encoding = "ascii" if what.startswith("dtype") else "utf-8"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(bad)
        assert str(info.value) == f"corrupt checkpoint: {what} is not {encoding} text"


def test_checkpoint_tensor_of_a_non_float_dtype_is_corrupt(tmp_path):
    m = init_params(small_config(), seed=0)
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, m, CONFIG_TEXT, VOCAB, LABELS)
    blob = p.read_bytes()
    at = blob.index(b"<f4")  # the first tensor's dtype string
    bad = tmp_path / "dtype.ckpt"
    for dtype in (b"<U1", b"<i4"):
        bad.write_bytes(blob[:at] + dtype + blob[at + 3 :])
        with pytest.raises(CheckpointError, match="is not a float dtype"):
            load_checkpoint(bad)


def test_checkpoint_missing_file_errors(tmp_path):
    with pytest.raises(CheckpointError, match="cannot open"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_restore_model_rejects_wrong_names_and_shapes(tmp_path):
    cfg = small_config()
    m = init_params(cfg, seed=25)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, m, CONFIG_TEXT, VOCAB, LABELS)
    _, _, _, tensors = load_checkpoint(p)

    dropped = dict(tensors)
    dropped.pop("head.fc2_w")
    with pytest.raises(CheckpointError, match="missing"):
        restore_model(cfg, dropped)

    renamed = dict(tensors)
    renamed["head.bogus"] = renamed.pop("head.fc2_w")
    with pytest.raises(CheckpointError, match="extra"):
        restore_model(cfg, renamed)

    bent = dict(tensors)
    bent["head.fc2_w"] = bent["head.fc2_w"][:, :3]
    with pytest.raises(CheckpointError, match="shape"):
        restore_model(cfg, bent)
