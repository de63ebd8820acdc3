"""Acceptance gate: eight numbered end-to-end criteria.

Each criterion is one test that prints a single machine-greppable verdict
line ("[acceptance N/8 tag] PASS/FAIL: measured numbers") before its
asserts fire, so the verdict is visible even when a bar is missed.  Bars
and tolerances are fixed constants here; nothing is loosened to fit a
particular machine.  Every test regenerates or derives what it needs and
can run standalone.
"""

import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import vqagpt.autodiff as ad
from vqagpt.cli import (
    ABLATION_CSV,
    CHECKPOINT_NAME,
    EVAL_CSV,
    METRICS_CSV,
    _dtype_for,
    _prepare_arrays,
    main,
)
from vqagpt.config import ModelConfig, RunConfig, apply_profile, serialize_config
from vqagpt.data import load_dataset
from vqagpt.embedding import embed_vision, embed_words, init_embedding_tables
from vqagpt.metrics import compute_metrics
from vqagpt.model import (
    build_sequence,
    decoder_forward,
    forward_logits,
    init_params,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train_step,
)
from vqagpt.tokenizers import build_vocab, image_features, tokenize_question

from conftest import mini_run_config
from oracles import brute_force_metrics, fd_gradient, max_rel_err

FD_H = 1e-5
FD_TOL = 1e-4
FD_BUDGET_S = 60.0
CAUSALITY_TRIALS = 100
CAUSALITY_BUDGET_S = 30.0
DESK_TRAIN_ACC_BAR = 0.95
DESK_VAL_ACC_BAR = 0.80
DESK_WALL_BUDGET_S = 600.0
OVERFIT_LOSS_BAR = 0.05
OVERFIT_STEP_BUDGET = 500


def _verdict(capfd, num: int, tag: str, ok: bool, detail: str) -> None:
    # capfd.disabled() lifts pytest's fd-level capture so the line reaches
    # the real terminal for passing and failing criteria alike.
    with capfd.disabled():
        print(
            f"[acceptance {num}/8 {tag}] {'PASS' if ok else 'FAIL'}: {detail}",
            file=sys.__stdout__,
            flush=True,
        )


# ---------------------------------------------------------------------------
# 1. gradient oracle


def _tiny_fd_config(backend: str, token_dim: int) -> RunConfig:
    return RunConfig(
        d=8,
        n_layers=1,
        n_heads=2,
        mlp_ratio=2,
        max_pos=16,
        vision_backend=backend,
        image_size=8,
        patch_grid=2,
        token_dim=token_dim,
        max_question_len=3,
        precision="f64",
        vision_pose_mode="actual",
    )


def test_1_gradient_oracle(capfd):
    t0 = time.monotonic()
    worst = {}
    # vit_lite runs with token_dim != d so the projection path is FD-checked too.
    for backend, token_dim in (("cnn_lite", 8), ("vit_lite", 12)):
        cfg = _tiny_fd_config(backend, token_dim)
        vocab = build_vocab(["what color here"])
        rng = np.random.default_rng(7)
        images = rng.random((2, 8, 8, 3), dtype=np.float64)
        qids = np.stack(
            [tokenize_question("what color here", vocab, 3) for _ in range(2)]
        )
        labels = np.array([0, 2], dtype=np.int64)
        model = init_params(cfg.to_model_config(vocab.size, 3), seed=3, dtype=np.float64)

        def loss_value() -> float:
            with ad.no_grad():
                logits = forward_logits(images, qids, model)
                return float(ad.cross_entropy(logits, labels).data)

        ad.zero_grad(model.grad)
        loss = ad.cross_entropy(forward_logits(images, qids, model), labels)
        ad.backward(loss)
        worst_err, worst_name = 0.0, "-"
        for name, tensor in model.params.items():
            assert np.any(tensor.grad != 0), f"{backend}: no gradient for {name}"
            fd = fd_gradient(loss_value, tensor.data, h=FD_H)
            err = max_rel_err(tensor.grad, fd, floor=FD_TOL)
            if err > worst_err:
                worst_err, worst_name = err, name
        worst[backend] = (worst_err, worst_name)
    wall = time.monotonic() - t0
    ok = wall < FD_BUDGET_S and all(e < FD_TOL for e, _ in worst.values())
    _verdict(
        capfd,
        1,
        "gradient-oracle",
        ok,
        "worst rel err "
        + ", ".join(f"{b} {e:.2e} ({n})" for b, (e, n) in worst.items())
        + f" (bar {FD_TOL:.0e}); wall {wall:.1f}s (bar {FD_BUDGET_S:.0f}s)",
    )
    for backend, (err, name) in worst.items():
        assert err < FD_TOL, f"{backend}: {name} rel err {err}"
    assert wall < FD_BUDGET_S


# ---------------------------------------------------------------------------
# 2. causality suite


def test_2_causality_suite(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    vocab = build_vocab(["what shape sits at the top right cell"])
    base = _tiny_fd_config("cnn_lite", 8)
    per_order = CAUSALITY_TRIALS // 2
    for order in ("early_word", "early_vision"):
        cfg = replace(base, d=16, n_heads=2, max_question_len=8, order=order)
        model = init_params(cfg.to_model_config(vocab.size, 3), seed=4, dtype=np.float64)
        images = rng.random((2, 8, 8, 3), dtype=np.float64)
        qids = np.stack(
            [
                tokenize_question("what shape sits at the top right cell", vocab, 8),
                tokenize_question("what shape sits at the top left cell", vocab, 8),
            ]
        )
        feats = image_features(images, model.config, np.float64)
        seq = build_sequence(feats, qids, model)
        no_pad = np.zeros(seq.shape[:2], dtype=bool)
        with ad.no_grad():
            h_base = decoder_forward(seq, model, no_pad).data
        length = seq.shape[1]
        for _ in range(per_order):
            i = int(rng.integers(0, length - 1))
            edited = seq.data.copy()
            edited[:, i + 1 :, :] += rng.standard_normal(
                edited[:, i + 1 :, :].shape
            )
            with ad.no_grad():
                h_pert = decoder_forward(ad.Tensor(edited), model, no_pad).data
            assert np.array_equal(h_base[:, : i + 1], h_pert[:, : i + 1]), (
                f"{order}: hidden state before position {i + 1} changed"
            )
    # early_word: word positions precede all vision tokens, so their hidden
    # states must be bitwise independent of the image.
    cfg = replace(base, d=16, n_heads=2, max_question_len=8, order="early_word")
    model = init_params(cfg.to_model_config(vocab.size, 3), seed=4, dtype=np.float64)
    qids = np.stack([tokenize_question("what shape sits at the top", vocab, 8)] * 2)
    n_words = qids.shape[1]
    for trial in range(10):
        img_a = rng.random((2, 8, 8, 3), dtype=np.float64)
        img_b = rng.random((2, 8, 8, 3), dtype=np.float64)
        with ad.no_grad():
            feats_a = image_features(img_a, model.config, np.float64)
            feats_b = image_features(img_b, model.config, np.float64)
            seq_a = build_sequence(feats_a, qids, model)
            no_pad = np.zeros(seq_a.shape[:2], dtype=bool)
            h_a = decoder_forward(seq_a, model, no_pad).data
            h_b = decoder_forward(build_sequence(feats_b, qids, model), model, no_pad).data
        assert np.array_equal(h_a[:, :n_words], h_b[:, :n_words]), (
            f"trial {trial}: word hidden states moved with the image"
        )
    wall = time.monotonic() - t0
    ok = wall < CAUSALITY_BUDGET_S
    _verdict(
        capfd,
        2,
        "causality",
        ok,
        f"{CAUSALITY_TRIALS} future-edit trials exact in both orders; "
        f"word states image-invariant (10 image pairs); "
        f"wall {wall:.1f}s (bar {CAUSALITY_BUDGET_S:.0f}s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. three-term embedding suite


def test_3_embedding_sum_suite(capfd):
    rng = np.random.default_rng(23)
    d, vocab_size, max_pos, m = 6, 9, 12, 4
    cfg_zero = ModelConfig(
        d=d, vocab_size=vocab_size, max_pos=max_pos, token_dim=d, vision_pose_mode="zero"
    )
    cfg_actual = replace(cfg_zero, vision_pose_mode="actual")
    tables = init_embedding_tables(cfg_zero, rng=rng, dtype=np.float64)
    wt = tables["emb.word"].data
    tt = tables["emb.type"].data
    pt = tables["emb.pos"].data
    ids = np.array([4, 0, 7], dtype=np.int64)

    # additivity, fixed association (type + pose) + token, bitwise
    words = embed_words(ids, tables, cfg_zero).data
    expect = np.stack([(tt[0] + pt[i]) + wt[ids[i]] for i in range(3)])
    assert np.array_equal(words, expect)

    vis = np.asarray(rng.standard_normal((m, d)))
    zero_rows = embed_vision(ad.Tensor(vis), tables, cfg_zero).data
    expect_zero = np.stack([(tt[1] + pt[0]) + vis[j] for j in range(m)])
    assert np.array_equal(zero_rows, expect_zero)
    # zero mode: positional addend is row 0 for every vision token -> variance 0
    addends = np.stack([pt[0]] * m)
    assert float(np.var(addends, axis=0).max()) == 0.0

    actual_rows = embed_vision(ad.Tensor(vis), tables, cfg_actual).data
    expect_actual = np.stack([(tt[1] + pt[1 + j]) + vis[j] for j in range(m)])
    assert np.array_equal(actual_rows, expect_actual)

    # projection path active iff token width != embedding width
    assert "emb.proj_w" not in tables and "emb.proj_b" not in tables
    wide = init_embedding_tables(
        replace(cfg_actual, token_dim=10),
        rng=np.random.default_rng(24), dtype=np.float64,
    )
    assert "emb.proj_w" in wide and "emb.proj_b" in wide
    vis10 = np.asarray(rng.standard_normal((m, 10)))
    proj_rows = embed_vision(ad.Tensor(vis10), wide, cfg_actual).data
    vx = vis10 @ wide["emb.proj_w"].data + wide["emb.proj_b"].data
    expect_proj = np.stack(
        [(wide["emb.type"].data[1] + wide["emb.pos"].data[1 + j]) + vx[j] for j in range(m)]
    )
    assert np.array_equal(proj_rows, expect_proj)
    _verdict(
        capfd,
        3,
        "embedding-sum",
        True,
        "additivity, zero-pose constancy, actual-pose rows 1..m, "
        "projection iff width mismatch: all bitwise-exact",
    )


# ---------------------------------------------------------------------------
# 4. metrics oracle


def test_4_metrics_oracle(capfd):
    rng = np.random.default_rng(31)
    for case in range(100):
        n_classes = int(rng.integers(2, 9))
        n = int(rng.integers(1, 300))
        # restricting labels sometimes leaves classes without support
        hi = int(rng.integers(1, n_classes + 1))
        labels = rng.integers(0, hi, size=n)
        preds = rng.integers(0, n_classes, size=n)
        got = compute_metrics(preds, labels, ["all"] * n, n_classes=n_classes)
        want = brute_force_metrics(preds, labels, n_classes)
        assert got.acc == want["acc"], f"case {case}: acc"
        assert got.macro_recall == want["macro_recall"], f"case {case}: recall"
        assert got.macro_fscore == want["macro_fscore"], f"case {case}: fscore"
    # hand-derived: 2 balanced classes, everything predicted as class 0
    preds = np.array([0, 0, 0, 0])
    labels = np.array([0, 0, 1, 1])
    rep = compute_metrics(preds, labels, ["all"] * 4, n_classes=2)
    assert rep.acc == 0.5
    assert rep.macro_recall == 0.5
    assert rep.macro_fscore == (2.0 / 3.0 + 0.0) / 2.0
    _verdict(
        capfd,
        4,
        "metrics-oracle",
        True,
        "100 random cases match the brute-force confusion matrix exactly; "
        "hand example acc 0.5 / recall 0.5 / F 1/3 passes",
    )


# ---------------------------------------------------------------------------
# 5. desk-scale learning benchmark


def test_5_desk_learning(desk_corpus, tmp_path, capfd):
    out_dir = tmp_path / "desk_run"
    t0 = time.monotonic()
    rc = main(
        [
            "train",
            "--profile",
            "desk",
            "--data",
            str(desk_corpus["root"]),
            "--out",
            str(out_dir),
        ]
    )
    wall = time.monotonic() - t0
    assert rc == 0
    with open(out_dir / METRICS_CSV, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    best = max(rows, key=lambda r: float(r["train_acc"]))
    best_train = float(best["train_acc"])
    best_val = float(best["val_acc"])
    hit = any(
        float(r["train_acc"]) >= DESK_TRAIN_ACC_BAR
        and float(r["val_acc"]) >= DESK_VAL_ACC_BAR
        for r in rows
    )

    # 8-sample overfit probe under the same profile
    cfg = replace(
        apply_profile(RunConfig(), "desk"), data_dir=str(desk_corpus["root"])
    )
    train_ds = load_dataset(Path(cfg.data_dir) / "train.jsonl")
    samples = list(train_ds.samples)[:8]
    vocab = build_vocab([s.question for s in samples], cfg.min_word_count)
    images, qids, labels, _ = _prepare_arrays(cfg, vocab, train_ds, samples)
    model = init_params(
        cfg.to_model_config(vocab.size, len(train_ds.label_map)), cfg.seed, _dtype_for(cfg)
    )
    opt = ad.AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    overfit_step, overfit_loss = None, float("inf")
    for step in range(1, OVERFIT_STEP_BUDGET + 1):
        overfit_loss = train_step((images, qids, labels), model, opt)
        if overfit_loss < OVERFIT_LOSS_BAR:
            overfit_step = step
            break

    ok = (
        hit
        and wall < DESK_WALL_BUDGET_S
        and overfit_step is not None
    )
    _verdict(
        capfd,
        5,
        "desk-learning",
        ok,
        f"best epoch train_acc {best_train:.4f} (bar {DESK_TRAIN_ACC_BAR}), "
        f"val_acc {best_val:.4f} (bar {DESK_VAL_ACC_BAR}); "
        f"wall {wall:.0f}s (bar {DESK_WALL_BUDGET_S:.0f}s); "
        f"overfit loss {overfit_loss:.4f} at step "
        f"{overfit_step if overfit_step else OVERFIT_STEP_BUDGET} "
        f"(bar < {OVERFIT_LOSS_BAR} within {OVERFIT_STEP_BUDGET})",
    )
    assert wall < DESK_WALL_BUDGET_S
    assert overfit_step is not None, (
        f"8-sample overfit loss {overfit_loss:.4f} after {OVERFIT_STEP_BUDGET} steps"
    )
    assert hit, (
        f"no epoch reached train {DESK_TRAIN_ACC_BAR} / val {DESK_VAL_ACC_BAR}; "
        f"best train_acc {best_train:.4f} with val_acc {best_val:.4f}"
    )


# ---------------------------------------------------------------------------
# 6. ablation harness


def test_6_ablation_grid(mini_corpus, tmp_path, capfd):
    cfg = mini_run_config(mini_corpus["root"], tmp_path / "ablate", epochs=1)
    cfg_path = tmp_path / "ablate.cfg"
    cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
    rc = main(["ablate", "--config", str(cfg_path)])
    captured = capfd.readouterr().out
    assert rc == 0
    with open(tmp_path / "ablate" / ABLATION_CSV, newline="") as f:
        rows = list(csv.DictReader(f))
    overall = [r for r in rows if r["scope"] == "overall"]
    cells = {(r["order"], r["pose_mode"], r["backend"]) for r in overall}
    assert len(overall) == 8 and len(cells) == 8
    assert all(r["status"] == "ok" for r in overall)
    delta_lines = [l for l in captured.splitlines() if l.startswith("acc delta")]
    assert len(delta_lines) == 3
    assert all(("+" in l or "-" in l) for l in delta_lines)
    _verdict(
        capfd,
        6,
        "ablation-grid",
        True,
        "one command trained all 8 order x pose x backend cells, wrote the "
        f"CSV, and printed 3 signed deltas: {'; '.join(delta_lines)}",
    )


# ---------------------------------------------------------------------------
# 7. reproducibility


def test_7_reproducibility(mini_corpus, tmp_path, capfd):
    out_dir = tmp_path / "repro"
    cfg = mini_run_config(mini_corpus["root"], out_dir, precision="f64", epochs=2)
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(serialize_config(cfg), encoding="utf-8")

    def run() -> tuple:
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 0
        return (
            (out_dir / CHECKPOINT_NAME).read_bytes(),
            (out_dir / METRICS_CSV).read_bytes(),
        )

    ckpt_a, metrics_a = run()
    ckpt_b, metrics_b = run()
    assert metrics_a == metrics_b, "per-epoch loss curves differ between runs"
    assert ckpt_a == ckpt_b, "checkpoints are not bitwise identical"

    # round-trip: load -> restore -> save must reproduce the bytes exactly
    ckpt_path = out_dir / CHECKPOINT_NAME
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(ckpt_path)
    from vqagpt.config import parse_config
    from vqagpt.tokenizers import Vocabulary

    loaded_cfg = parse_config(config_text)
    vocab = Vocabulary.from_lines(vocab_lines)
    model = restore_model(
        loaded_cfg.to_model_config(vocab.size, len(label_lines)),
        tensors,
        _dtype_for(loaded_cfg),
    )
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, model, config_text, vocab_lines, label_lines)
    assert resaved.read_bytes() == ckpt_a, "checkpoint round-trip is not bitwise"
    _verdict(
        capfd,
        7,
        "reproducibility",
        True,
        "same seed/config: identical per-epoch losses (f64) and bitwise "
        "checkpoints; load/restore/save round-trip bitwise-exact",
    )


# ---------------------------------------------------------------------------
# 8. rephrased-query protocol


def test_8_rephrased_protocol(mini_corpus, tmp_path, capfd):
    out_dir = tmp_path / "rephrased"
    cfg = mini_run_config(
        mini_corpus["root"], out_dir, epochs=2, rephrased_holdout=True
    )
    cfg_path = tmp_path / "rephrased.cfg"
    cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 0
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(out_dir / CHECKPOINT_NAME),
            "--rephrased",
            "--out",
            str(out_dir),
            "--data",
            str(mini_corpus["root"]),
        ]
    )
    captured = capfd.readouterr().out
    assert rc == 0
    with open(out_dir / EVAL_CSV, newline="") as f:
        rows = list(csv.DictReader(f))
    blocks = {r["block"] for r in rows}
    assert blocks == {"default_templates", "rephrased"}
    degr = [l for l in captured.splitlines() if l.startswith("rephrased degradation")]
    assert len(degr) == 1
    _verdict(
        capfd,
        8,
        "rephrased-protocol",
        True,
        "trained on templates 0..K-2, evaluated template K-1; both metric "
        f"blocks emitted; {degr[0]} (reported, not asserted)",
    )
