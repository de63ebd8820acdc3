"""Config grammar, profiles, and the train/eval/ablate/gen-data pipeline."""

import csv
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import vqagpt.autodiff as ad
import vqagpt.cli as cli
import vqagpt.model as model_module
from conftest import mini_run_config
from vqagpt.cli import CHECKPOINT_NAME, EVAL_CSV, METRICS_CSV, main
from vqagpt.config import (
    PROFILES,
    ModelConfig,
    ModelKeys,
    RunConfig,
    apply_profile,
    load_config_file,
    parse_config,
    serialize_config,
)
from vqagpt.data import load_images
from vqagpt.errors import ConfigError, DataError
from vqagpt.model import (
    feature_logits,
    forward_logits,
    init_params,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from vqagpt.tokenizers import PAD_ID, Vocabulary, build_vocab


def write_config(path: Path, cfg: RunConfig) -> str:
    path.write_text(serialize_config(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# config grammar


def test_parse_serialize_parse_is_fixed_point():
    cfg = replace(RunConfig(), d=48, lr=0.00037, order="early_vision",
                  rephrased_holdout=True, data_dir="some/dir")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


# The config block the desk profile wrote into every checkpoint before the
# retired keys "dropout" and "use_vision_projection_path" were removed.
OLD_DESK_CONFIG_TEXT = """\
# run configuration (key = value)
d = 64
n_layers = 2
n_heads = 4
mlp_ratio = 4
max_pos = 64
num_classes = 11
dropout = 0.0
order = early_word
vision_pose_mode = actual
use_type_embedding = true
use_vision_projection_path = true
vision_backend = cnn_lite
image_size = 32
patch_grid = 2
token_dim = 64
vit_internal_pose = false
lr = 0.0004
beta1 = 0.9
beta2 = 0.95
eps = 1e-08
epochs = 10
batch_size = 4
seed = 0
precision = f32
max_question_len = 12
min_word_count = 1
rephrased_holdout = false
n_samples = 2000
grid_size = 2
templates_per_type = 3
test_fraction = 0.2
data_dir = data
out_dir = runs/out
"""


def test_parse_accepts_retired_keys_of_older_checkpoints():
    desk = apply_profile(RunConfig(), "desk")
    assert parse_config(OLD_DESK_CONFIG_TEXT) == desk
    off = OLD_DESK_CONFIG_TEXT.replace(
        "use_vision_projection_path = true", "use_vision_projection_path = false"
    )
    assert parse_config(off) == desk
    text = serialize_config(desk)
    for retired in ("dropout", "use_vision_projection_path", "num_classes"):
        assert retired not in text
    assert parse_config(text) == desk
    assert serialize_config(parse_config(text)) == text
    # a value the older code could not train with is still an error
    with pytest.raises(ConfigError, match="dropout"):
        parse_config(OLD_DESK_CONFIG_TEXT.replace("dropout = 0.0", "dropout = 0.1"))
    with pytest.raises(ConfigError, match="num_classes"):
        parse_config(OLD_DESK_CONFIG_TEXT.replace("num_classes = 11", "num_classes = 1"))


def test_parse_applies_onto_base_and_ignores_comments():
    cfg = parse_config(
        "# comment line\n\n  epochs = 3 \nvision_backend = vit_lite\n", RunConfig()
    )
    assert cfg.epochs == 3
    assert cfg.vision_backend == "vit_lite"
    assert cfg.batch_size == 64  # untouched default


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("epochs = 1\nepochs = 2\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("epochs: 1\n")


def test_parse_value_type_errors():
    with pytest.raises(ConfigError, match="bad value for 'epochs'"):
        parse_config("epochs = three\n")
    with pytest.raises(ConfigError, match="bad value for 'lr'"):
        parse_config("lr = fast\n")
    with pytest.raises(ConfigError, match="bad value for 'use_type_embedding'"):
        parse_config("use_type_embedding = 1\n")  # strict true/false


def test_paper_recipe_is_the_default():
    cfg = RunConfig()
    assert cfg.batch_size == 64
    assert cfg.epochs == 80
    assert cfg.lr == 1e-5
    assert cfg.vision_pose_mode == "zero"
    assert apply_profile(cfg, "paper") == cfg


def test_desk_profile_overrides():
    cfg = apply_profile(RunConfig(), "desk")
    assert cfg.epochs == 10
    assert cfg.batch_size == 4
    assert cfg.lr == 4e-4
    assert cfg.beta2 == 0.95
    assert cfg.patch_grid == 2
    assert cfg.vision_pose_mode == "actual"
    assert cfg.n_samples == 2000
    with pytest.raises(ConfigError, match="unknown profile"):
        apply_profile(cfg, "datacenter")
    assert set(PROFILES) == {"desk", "paper"}


def test_validate_rejects_bad_ranges():
    with pytest.raises(ConfigError, match="precision"):
        replace(RunConfig(), precision="f16").validate()
    with pytest.raises(ConfigError, match="lr"):
        replace(RunConfig(), lr=0.0).validate()
    with pytest.raises(ConfigError, match="divisible"):
        replace(RunConfig(), d=30, n_heads=4).validate()
    RunConfig().validate()


def test_model_config_fields_are_run_config_keys_that_to_model_config_copies():
    shared = fields(ModelKeys)
    sizes = {"vocab_size", "num_classes"}
    assert {f.name for f in fields(ModelConfig)} == {f.name for f in shared} | sizes
    assert not sizes & {f.name for f in fields(RunConfig)}

    def changed(v):
        if isinstance(v, bool):
            return not v
        return v + 1 if isinstance(v, int) else v + "_x"

    cfg = replace(RunConfig(), **{f.name: changed(f.default) for f in shared})
    got = cfg.to_model_config(13, 3)
    assert (got.vocab_size, got.num_classes) == (13, 3)
    for f in shared:
        assert getattr(got, f.name) == getattr(cfg, f.name) != f.default, f.name


def test_load_config_file_missing_path_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "nope.cfg")


# ---------------------------------------------------------------------------
# pipeline fixtures


@pytest.fixture(scope="module")
def trained_mini(mini_corpus, tmp_path_factory):
    """One 2-epoch training run over the mini corpus, shared by eval tests."""
    out = tmp_path_factory.mktemp("train_out")
    cfg = mini_run_config(mini_corpus["root"], out)
    cfg_path = write_config(out / "run.cfg", cfg)
    assert main(["train", "--config", cfg_path]) == 0
    return {"out": out, "cfg": cfg, "data": Path(mini_corpus["root"])}


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_subcommand(tmp_path):
    cfg = replace(
        RunConfig(),
        n_samples=24,
        image_size=16,
        test_fraction=0.25,
        data_dir=str(tmp_path / "corpus"),
    )
    cfg_path = write_config(tmp_path / "gen.cfg", cfg)
    assert main(["gen-data", "--config", cfg_path]) == 0
    root = tmp_path / "corpus"
    assert (root / "train.jsonl").exists()
    assert (root / "test.jsonl").exists()
    assert (root / "labels.tsv").exists()
    assert sorted((root / "images").glob("*.ppm"))


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_metrics(trained_mini):
    out = trained_mini["out"]
    assert (out / CHECKPOINT_NAME).exists()
    rows = read_csv(out / METRICS_CSV)
    assert [r["epoch"] for r in rows] == ["1", "2"]
    for r in rows:
        float(r["train_loss"])  # parseable repr
        assert 0.0 <= float(r["val_acc"]) <= 1.0


def test_epochs_zero_checkpoint_equals_initialization(mini_corpus, tmp_path):
    out = tmp_path / "zero_out"
    cfg = mini_run_config(mini_corpus["root"], out, epochs=0)
    cfg_path = write_config(tmp_path / "zero.cfg", cfg)
    assert main(["train", "--config", cfg_path]) == 0

    rows = read_csv(out / METRICS_CSV)
    assert [r["epoch"] for r in rows] == ["0"]

    _, vocab_lines, label_lines, tensors = load_checkpoint(out / CHECKPOINT_NAME)
    vocab = Vocabulary.from_lines(vocab_lines)
    fresh = init_params(cfg.to_model_config(vocab.size, len(label_lines)), cfg.seed, np.float32)
    assert set(tensors) == set(fresh.params)
    for name, arr in tensors.items():
        assert np.array_equal(arr, fresh.params[name].data), name


def test_two_runs_from_one_config_agree_bitwise(mini_corpus):
    # Everything a resumed run would need to carry over: weights, Adam
    # moments and step, shuffle-RNG state, epoch.  The runs take turns, so
    # state shared between them would show as a difference.
    cfg = mini_run_config(mini_corpus["root"], "unused")
    train_ds, test_ds = cli._load_split(cfg)
    with cli.Run(cfg, train_ds, test_ds) as a, cli.Run(cfg, train_ds, test_ds) as b:
        fresh_rng = a.shuffle_rng.bit_generator.state
        for _ in range(2):
            assert a.train_epoch() == b.train_epoch()
    assert_no_child_process()
    assert a.epoch == b.epoch == 2
    assert a.opt.step == b.opt.step == 2 * -(-len(a.train_split[2]) // cfg.batch_size)
    for x, y in ((a.model.flat, b.model.flat), (a.opt.m, b.opt.m), (a.opt.v, b.opt.v)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.shuffle_rng.bit_generator.state == b.shuffle_rng.bit_generator.state != fresh_rng


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_and_recombines_per_type(trained_mini, tmp_path, capsys):
    eval_out = tmp_path / "eval_out"
    rc = main([
        "eval",
        "--checkpoint", str(trained_mini["out"] / CHECKPOINT_NAME),
        "--data", str(trained_mini["data"]),
        "--out", str(eval_out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "test" in text and "loss=" in text
    rows = read_csv(eval_out / EVAL_CSV)
    overall = [r for r in rows if r["scope"] == "overall"]
    per_type = [r for r in rows if r["scope"] != "overall"]
    assert len(overall) == 1
    assert {r["scope"] for r in per_type} == {"color", "shape", "count"}
    # support-weighted per-type accuracy recombines to the overall accuracy
    total = sum(int(r["n"]) for r in per_type)
    assert total == int(overall[0]["n"])
    weighted = sum(int(r["n"]) * float(r["acc"]) for r in per_type) / total
    assert weighted == pytest.approx(float(overall[0]["acc"]), abs=2e-6)


def test_evaluation_in_64_sample_chunks_matches_batch_4(trained_mini, mini_corpus, monkeypatch):
    # The 198 train samples end in a partial chunk both at 64 (3 x 64 + 6)
    # and at 4 (49 x 4 + 2).  Their first 65 end in a 1-sample chunk at 64
    # (and at 4), which must match the same sample forwarded in one pass of
    # all 65; they run through a model of the desk width d = 64, where a
    # product of one row can round otherwise than inside a larger product.
    # A vit_lite/early_vision model of that width orders its pass by
    # question length and cuts the padding slots; the logits that reach the
    # loss must still be the in-order batch-4 ones, bit for bit.
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(
        trained_mini["out"] / CHECKPOINT_NAME
    )
    cfg = parse_config(config_text)
    trained = restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)), tensors)
    wide_cfg = replace(cfg, d=64, n_heads=4, token_dim=64)
    wide = init_params(wide_cfg.to_model_config(len(vocab_lines), len(label_lines)), 0)
    vit_cfg = replace(wide_cfg, vision_backend="vit_lite", order="early_vision")
    vit = init_params(vit_cfg.to_model_config(len(vocab_lines), len(label_lines)), 0)
    ds = mini_corpus["train"]
    vocab = Vocabulary.from_lines(vocab_lines)
    chunk = cli.EVAL_CHUNK
    to_loss = []  # the logits of each pass, as they reach the loss
    real_cross_entropy = ad.cross_entropy
    monkeypatch.setattr(ad, "cross_entropy",
                        lambda x, y: to_loss.append(x.data) or real_cross_entropy(x, y))
    for model, run_cfg, n in ((trained, cfg, len(ds.samples)), (wide, wide_cfg, 65),
                              (vit, vit_cfg, len(ds.samples))):
        arrays = cli._prepare_arrays(run_cfg, vocab, ds, ds.samples[:n])
        feats, qids, labels = arrays[:3]

        def logits_at(batch):
            with ad.no_grad():
                return np.concatenate([
                    feature_logits(feats[i : i + batch], qids[i : i + batch], model).data
                    for i in range(0, len(labels), batch)
                ])

        in_order = logits_at(4).tobytes()
        monkeypatch.setattr(cli, "EVAL_CHUNK", chunk)
        loss_c, rep_c = cli._evaluate_arrays(model, run_cfg, *arrays)
        assert to_loss[-1].tobytes() == in_order, n
        for batch in (4, n):
            assert np.array_equal(logits_at(batch), logits_at(chunk)), (n, batch)
            monkeypatch.setattr(cli, "EVAL_CHUNK", batch)
            loss_b, rep_b = cli._evaluate_arrays(model, run_cfg, *arrays)
            assert to_loss[-1].tobytes() == in_order, (n, batch)
            assert loss_b == loss_c
            assert (rep_b.n, rep_b.acc, rep_b.macro_recall, rep_b.macro_fscore, rep_b.per_type) == (
                rep_c.n, rep_c.acc, rep_c.macro_recall, rep_c.macro_fscore, rep_c.per_type
            )
            assert np.array_equal(rep_b.confusion, rep_c.confusion)


def test_evaluation_is_bitwise_the_same_on_any_number_of_threads(
    trained_mini, mini_corpus, monkeypatch
):
    # The 198 train samples end in a partial chunk (3 x 64 + 6).  Both a
    # cnn_lite / early_word and a vit_lite / early_vision model must give the
    # same loss, reports and logits bytes with no peer, with a peer that
    # holds other arrays (so the chunks all run here), and with a peer that
    # holds these and forwards the later chunks in its own process.
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(
        trained_mini["out"] / CHECKPOINT_NAME
    )
    cfg = parse_config(config_text)
    trained = restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)), tensors)
    vit_cfg = replace(cfg, vision_backend="vit_lite", order="early_vision")
    vit = init_params(vit_cfg.to_model_config(len(vocab_lines), len(label_lines)), 3)
    ds = mini_corpus["train"]
    assert len(ds.samples) % cli.EVAL_CHUNK != 0
    vocab = Vocabulary.from_lines(vocab_lines)
    logits_seen = []
    real_ce = ad.cross_entropy

    def keep_logits(logits, labels):
        logits_seen.append(logits.data)
        return real_ce(logits, labels)

    monkeypatch.setattr(ad, "cross_entropy", keep_logits)
    for model, run_cfg in ((trained, cfg), (vit, vit_cfg)):
        arrays = cli._prepare_arrays(run_cfg, vocab, ds, ds.samples)
        results = [cli._evaluate_arrays(model, run_cfg, *arrays)]
        for held in (arrays[:2], (arrays[0].copy(), arrays[1])):
            with model_module.Peer(model, [held]) as peer:
                results.append(cli._evaluate_arrays(model, run_cfg, *arrays))
                assert peer.pid != 0
        loss_1, rep_1 = results[0]
        logits_1 = logits_seen[-3]
        assert logits_1.shape == (len(ds.samples), len(label_lines))
        for (loss_n, rep_n), logits_n in zip(results[1:], logits_seen[-2:]):
            assert loss_n == loss_1
            assert (rep_n.n, rep_n.acc, rep_n.macro_recall, rep_n.macro_fscore, rep_n.per_type) == (
                rep_1.n, rep_1.acc, rep_1.macro_recall, rep_1.macro_fscore, rep_1.per_type
            )
            assert np.array_equal(rep_n.confusion, rep_1.confusion)
            assert logits_n.tobytes() == logits_1.tobytes()


def test_a_misshapen_chunk_raises_the_serial_data_error_on_any_pool(
    trained_mini, mini_corpus, monkeypatch, tmp_path
):
    # The partial last chunk, which the peer forwards, gets features one
    # column short; its DataError reaches the caller as the serial path
    # would raise it, with the peer and without it, and `eval` exits 3
    # through main.
    real = model_module.feature_logits

    def short_partial_chunk(feats, qids, model, *prefix):
        if len(feats) < cli.EVAL_CHUNK:
            feats = feats[..., :-1]
        return real(feats, qids, model, *prefix)

    monkeypatch.setattr(model_module, "feature_logits", short_partial_chunk)
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(
        trained_mini["out"] / CHECKPOINT_NAME
    )
    cfg = parse_config(config_text)
    model = restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)), tensors)
    ds = mini_corpus["train"]
    arrays = cli._prepare_arrays(cfg, Vocabulary.from_lines(vocab_lines), ds, ds.samples)
    tail = len(ds.samples) - len(ds.samples) % cli.EVAL_CHUNK
    with pytest.raises(DataError) as serial:
        with ad.no_grad():
            short_partial_chunk(arrays[0][tail:], arrays[1][tail:], model)
    assert len(mini_corpus["test"].samples) % cli.EVAL_CHUNK != 0
    for fork in (False, True):
        with model_module.Peer(model, [arrays[:2]], fork=fork):
            with pytest.raises(DataError) as pooled:
                cli._evaluate_arrays(model, cfg, *arrays)
            assert str(pooled.value) == str(serial.value)
        assert main([
            "eval", "--checkpoint", str(trained_mini["out"] / CHECKPOINT_NAME),
            "--data", str(trained_mini["data"]), "--out", str(tmp_path / f"o{fork}"),
        ]) == 3
    assert_no_child_process()


def peer_affinity(trained_mini, mini_corpus) -> set:
    """The cores a fresh peer of the mini run's model may run on, read after a round trip."""
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(
        trained_mini["out"] / CHECKPOINT_NAME
    )
    cfg = parse_config(config_text)
    model = restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)), tensors)
    ds = mini_corpus["test"]
    arrays = cli._prepare_arrays(cfg, Vocabulary.from_lines(vocab_lines), ds, ds.samples)
    with model_module.Peer(model, [arrays[:2]]) as peer:
        peer.both(lambda: None, "logits", 0, [slice(0, 1)])
        return os.sched_getaffinity(peer.pid)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread affinity here")
def test_the_peer_is_pinned_to_a_core_of_its_own(trained_mini, mini_corpus):
    # Unpinned, the scheduler could run the peer on the caller's core for
    # passes on end.  The caller stays unpinned.
    usable = os.sched_getaffinity(0)
    assert peer_affinity(trained_mini, mini_corpus) == {max(usable)}
    assert os.sched_getaffinity(0) == usable


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no thread affinity here")
def test_a_peer_whose_core_is_gone_runs_unpinned(trained_mini, mini_corpus, monkeypatch):
    # A core can leave the process's set between the fork and the peer's
    # pinning; the peer must still serve, on any core.
    usable = os.sched_getaffinity(0)
    monkeypatch.setattr(model_module, "_peer_core", lambda: max(usable) + 4096)
    assert peer_affinity(trained_mini, mini_corpus) == usable


@pytest.mark.parametrize("order", ["early_word", "early_vision"])
def test_an_evaluation_pass_runs_each_question_once_and_the_last_block_on_the_readout(
    desk_corpus, monkeypatch, order
):
    # Rows reaching each block's qkv and mlp_in products in one 400-sample
    # desk pass with no peer.  In early_word order the words run once per
    # distinct question, beside zero vision rows (n + m rows each), and each
    # sample adds its m vision rows; the last block's MLP runs the vision
    # rows alone.  In early_vision order each chunk holds questions of one
    # length, so a sample runs its m vision rows and its real words only,
    # and the last block's MLP only those words.  A silent fallback to the
    # full sequence would count (n + m) rows per sample everywhere, and one
    # to the n id slots n rows per sample in the last block.
    cfg = replace(desk_corpus["cfg"], order=order)
    ds = desk_corpus["test"]
    vocab = build_vocab([s.question for s in desk_corpus["train"].samples])
    arrays = cli._prepare_arrays(cfg, vocab, ds, ds.samples)
    model = init_params(cfg.to_model_config(vocab.size, len(ds.label_map)), 0)
    p = model.params
    rows = {}
    real_linear = ad.linear

    def counting(x, w, b):
        rows[id(w)] = rows.get(id(w), 0) + x.data.shape[0] * x.data.shape[1]
        return real_linear(x, w, b)

    monkeypatch.setattr(ad, "linear", counting)
    cli._evaluate_arrays(model, cfg, *arrays)
    n, m, samples = cfg.max_question_len, cfg.n_tokens, len(ds.samples)
    distinct = len(np.unique(arrays[1], axis=0))
    assert samples == 400 and m == 4 and 0 < distinct < 40
    if order == "early_word":
        block, readout = distinct * (n + m) + samples * m, samples * m
    else:
        lengths = np.count_nonzero(arrays[1] != PAD_ID, axis=1)
        assert lengths.min() >= 2 and lengths.max() < n  # no one-row readout; some padding
        block, readout = int((m + lengths).sum()), int(lengths.sum())
    last = cfg.n_layers - 1
    for i in range(cfg.n_layers):
        assert rows[id(p[f"h{i}.qkv_w"])] == block, i
        assert rows[id(p[f"h{i}.mlp_in_w"])] == (readout if i == last else block), i


def test_forward_logits_on_raw_images_match_the_feature_path(trained_mini, mini_corpus):
    # Evaluation forwards features made once per split; forward_logits
    # featurizes its raw images per call.  The two must agree bitwise, since
    # an outside check counts argmax hits with forward_logits and compares
    # them with the accuracies evaluation writes.
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(
        trained_mini["out"] / CHECKPOINT_NAME
    )
    cfg = parse_config(config_text)
    cnn = restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)), tensors)
    vit_cfg = replace(cfg, vision_backend="vit_lite", order="early_vision")
    vit = init_params(vit_cfg.to_model_config(len(vocab_lines), len(label_lines)), 0)
    ds = mini_corpus["test"]
    vocab = Vocabulary.from_lines(vocab_lines)
    images = load_images(ds)
    for model, run_cfg in ((cnn, cfg), (vit, vit_cfg)):
        feats, qids = cli._prepare_arrays(run_cfg, vocab, ds, ds.samples)[:2]
        with ad.no_grad():
            for lo in range(0, len(qids), cli.EVAL_CHUNK):
                hi = lo + cli.EVAL_CHUNK
                raw = forward_logits(images[lo:hi], qids[lo:hi], model).data
                assert np.array_equal(raw, feature_logits(feats[lo:hi], qids[lo:hi], model).data)


def test_eval_after_overfit_scores_train_set_near_one(tmp_path):
    # tiny corpus, long full-batch training, then evaluate on the very
    # samples the model saw: accuracy should be essentially perfect
    data = tmp_path / "tiny"
    gen_cfg = replace(
        RunConfig(), n_samples=16, image_size=16, test_fraction=0.25,
        data_dir=str(data),
    )
    assert main(["gen-data", "--config", write_config(tmp_path / "g.cfg", gen_cfg)]) == 0

    out = tmp_path / "overfit_out"
    cfg = mini_run_config(data, out, epochs=150, lr=3e-3, batch_size=16)
    assert main(["train", "--config", write_config(tmp_path / "t.cfg", cfg)]) == 0

    eval_dir = tmp_path / "train_as_test"
    shutil.copytree(data, eval_dir)
    shutil.copy(eval_dir / "train.jsonl", eval_dir / "test.jsonl")
    rc = main([
        "eval",
        "--checkpoint", str(out / CHECKPOINT_NAME),
        "--data", str(eval_dir),
        "--out", str(tmp_path / "overfit_eval"),
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "overfit_eval" / EVAL_CSV)
    overall = next(r for r in rows if r["scope"] == "overall")
    assert float(overall["acc"]) >= 0.99


def test_grid_3_corpus_trains_and_evaluates_at_its_own_class_count(tmp_path):
    # A grid-3 corpus has 16 answer classes.  The run config names no class
    # count, so the head's width comes from labels.tsv alone.
    data, out = tmp_path / "grid3", tmp_path / "grid3_out"
    cfg = mini_run_config(
        data, out, grid_size=3, image_size=48, patch_grid=3, n_samples=40, epochs=1
    )
    cfg_path = write_config(tmp_path / "g3.cfg", cfg)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    ckpt = str(out / CHECKPOINT_NAME)
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data), "--out", str(out)]) == 0
    assert len((data / "labels.tsv").read_text().splitlines()) == 16
    assert load_checkpoint(ckpt)[3]["head.fc2_b"].shape == (16,)


# ---------------------------------------------------------------------------
# rephrased-query protocol


def test_rephrased_holdout_training_and_eval(mini_corpus, tmp_path, capsys):
    out = tmp_path / "reph_out"
    cfg = mini_run_config(mini_corpus["root"], out, epochs=1, rephrased_holdout=True)
    assert main(["train", "--config", write_config(tmp_path / "r.cfg", cfg)]) == 0

    # the held-out template's distinctive words never reach the vocabulary
    _, vocab_lines, _, _ = load_checkpoint(out / CHECKPOINT_NAME)
    words = set(Vocabulary.from_lines(vocab_lines).token_to_id)
    assert {"what", "shape", "color"} <= words
    assert not ({"identify", "shown", "tell"} & words)

    rc = main([
        "eval",
        "--checkpoint", str(out / CHECKPOINT_NAME),
        "--data", str(mini_corpus["root"]),
        "--out", str(out),
        "--rephrased",
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "default_templates" in text
    assert "rephrased" in text
    assert "rephrased degradation (default acc - rephrased acc):" in text
    blocks = {r["block"] for r in read_csv(out / EVAL_CSV)}
    assert blocks == {"default_templates", "rephrased"}


# ---------------------------------------------------------------------------
# ablate


def test_ablate_evaluates_each_cell_once_on_the_test_split(trained_mini, mini_corpus, tmp_path,
                                                          monkeypatch):
    # Two epochs per cell; each cell's report is one test-split pass after
    # its last epoch.  The cell trained_mini trained (early_word / actual /
    # cnn_lite) scores the val_acc of that run's last metrics.csv row.
    real, passes = cli._evaluate_arrays, []

    def counting(model, cfg, feats, qids, labels, types):
        passes.append(len(labels))
        return real(model, cfg, feats, qids, labels, types)

    monkeypatch.setattr(cli, "_evaluate_arrays", counting)
    cfg = replace(trained_mini["cfg"], out_dir=str(tmp_path / "ablate"))
    assert main(["ablate", "--config", write_config(tmp_path / "a.cfg", cfg)]) == 0
    assert passes == [len(mini_corpus["test"].samples)] * 8
    rows = read_csv(tmp_path / "ablate" / cli.ABLATION_CSV)
    (cell,) = [r for r in rows if r["scope"] == "overall" and r["order"] == "early_word"
               and r["pose_mode"] == "actual" and r["backend"] == "cnn_lite"]
    assert cell["acc"] == read_csv(trained_mini["out"] / METRICS_CSV)[-1]["val_acc"]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_2_on_config_error(mini_corpus, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("no_such_key = 1\n", "dropout = 0.1\n"):
        bad.write_text(text)
        assert main(["train", "--config", str(bad)]) == 2
    # Pose tables too short for the sequence: 12 word positions in 8 rows,
    # then 16 actual-pose vision tokens (rows 1..16) in 12 rows.
    for overrides in ({"max_pos": 8}, {"max_pos": 12, "patch_grid": 4}):
        cfg = mini_run_config(mini_corpus["root"], tmp_path / "out", **overrides)
        capsys.readouterr()
        assert main(["train", "--config", write_config(bad, cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: max_pos ")
    # The generator and the initializer draw on PCG64, which takes no negative seed.
    gen_cfg = replace(RunConfig(), n_samples=8, image_size=16, data_dir=str(tmp_path / "d"))
    assert main(["gen-data", "--config", write_config(bad, gen_cfg), "--seed", "-1"]) == 2
    cfg = mini_run_config(mini_corpus["root"], tmp_path / "out")
    assert main(["train", "--config", write_config(bad, cfg), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0"] * 2
    # The generator's ranges are RunConfig's to check.
    for overrides in ({"test_fraction": 1.0}, {"n_samples": 0}):
        cfg_path = write_config(bad, replace(gen_cfg, **overrides))
        assert main(["gen-data", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: test_fraction must be in (0, 1), got 1.0",
        "error: n_samples must be >= 1",
    ]
    assert not (tmp_path / "d").exists() and not (tmp_path / "out").exists()


def test_exit_code_3_on_data_error(mini_corpus, tmp_path, capsys):
    cfg = mini_run_config(tmp_path / "missing", tmp_path / "out")
    cfg_path = write_config(tmp_path / "c.cfg", cfg)
    assert main(["train", "--config", cfg_path]) == 3
    # early_vision pools the question positions, so a question that
    # tokenizes to all padding must be stopped when the data loads, as must
    # an image path, an answer, a question type or a template of the wrong
    # JSON type
    data = tmp_path / "data"
    shutil.copytree(mini_corpus["root"], data)
    manifest = data / "train.jsonl"
    lines = manifest.read_text().splitlines()
    cfg = mini_run_config(data, tmp_path / "out", order="early_vision")
    cfg_path = write_config(tmp_path / "c.cfg", cfg)
    for key, value in (("question", "?? !"), ("image", 5), ("answer", ["red"]), ("type", None),
                       ("type", ["count"]), ("template", True)):
        record = {**json.loads(lines[0]), key: value}
        manifest.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 3, key
        assert capsys.readouterr().err.startswith(f"error: {manifest}:1: "), key


def test_eval_of_an_empty_test_split_exits_3_naming_the_manifest(trained_mini, tmp_path, capsys):
    data = tmp_path / "empty"
    data.mkdir()
    shutil.copy(trained_mini["data"] / "labels.tsv", data / "labels.tsv")
    (data / "test.jsonl").write_text("")
    ckpt = str(trained_mini["out"] / CHECKPOINT_NAME)
    capsys.readouterr()
    for extra in ([], ["--rephrased"]):
        argv = ["eval", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "out")]
        assert main(argv + extra) == 3
    manifest = data / "test.jsonl"
    assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: no samples to evaluate"] * 2
    assert not (tmp_path / "out").exists()


def test_train_on_an_empty_split_exits_3_naming_the_manifest_before_making_anything(
    mini_corpus, tmp_path, capsys
):
    # Both manifests are read and checked before the output directory is
    # made and before the train split is featurized.
    for split, use in (("test", "evaluate"), ("train", "train on")):
        data = tmp_path / f"empty_{split}"
        shutil.copytree(mini_corpus["root"], data)
        (data / f"{split}.jsonl").write_text("")
        out = tmp_path / f"out_{split}"
        cfg_path = write_config(tmp_path / f"{split}.cfg", mini_run_config(data, out))
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 3
        manifest = data / f"{split}.jsonl"
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: no samples to {use}"]
        assert not out.exists()


def test_a_misshapen_half_of_a_batch_64_step_makes_train_exit_3(
    mini_corpus, tmp_path, capsys, monkeypatch
):
    # The peer's half gets features one column short; its DataError crosses
    # the pipe and reaches main as the one-part step's would, and the peer
    # is reaped.
    parent, real_logits = os.getpid(), model_module.feature_logits

    def short_in_the_peer(feats, qids, model):
        return real_logits(feats[..., :-1] if os.getpid() != parent else feats, qids, model)

    monkeypatch.setattr(model_module, "feature_logits", short_in_the_peer)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "c.cfg",
                            mini_run_config(mini_corpus["root"], out, batch_size=64))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "got (8, 8, 7); " in err[0], err
    assert not (out / CHECKPOINT_NAME).exists()
    assert_no_child_process()


def test_exit_code_3_on_unsatisfiable_generator(tmp_path):
    # more cells than count words; too few templates; a grid that does not divide the image
    for overrides in ({"grid_size": 4}, {"templates_per_type": 1}, {"grid_size": 3}):
        cfg = replace(RunConfig(), data_dir=str(tmp_path / "d"), **overrides)
        cfg_path = write_config(tmp_path / "g.cfg", cfg)
        assert main(["gen-data", "--config", cfg_path]) == 3
    assert not (tmp_path / "d").exists()


def test_gen_data_desk_profile_writes_the_desk_corpus(desk_corpus, tmp_path):
    out = tmp_path / "desk"
    assert main(["gen-data", "--profile", "desk", "--data", str(out)]) == 0
    names = ["labels.tsv", "train.jsonl", "test.jsonl"] + sorted(
        f"images/{p.name}" for p in (desk_corpus["root"] / "images").iterdir()
    )
    for name in names:
        assert (out / name).read_bytes() == (desk_corpus["root"] / name).read_bytes(), name
    assert len(list((out / "images").iterdir())) == len(names) - 3


def test_exit_code_4_on_checkpoint_error(tmp_path, mini_corpus):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"not a checkpoint at all")
    rc = main([
        "eval", "--checkpoint", str(junk),
        "--data", str(mini_corpus["root"]), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(
            lambda config, vocab, labels: (config, vocab, ["red 0"] + labels[1:]),
            "label map block:1: expected 'name<TAB>id'",
            id="label-no-tab",
        ),
        pytest.param(
            lambda config, vocab, labels: (config, vocab[2:], labels),
            "vocabulary lines must start with the PAD and UNK rows",
            id="vocab-no-pad-unk",
        ),
        pytest.param(
            lambda config, vocab, labels: (config, vocab, []),
            "num_classes must be >= 2, got 0",
            id="label-block-empty",
        ),
        pytest.param(
            lambda config, vocab, labels: (
                config.replace("\nd = 16\n", "\nd = 16x\n"), vocab, labels
            ),
            "bad value for 'd': '16x' (invalid literal for int() with base 10: '16x')",
            id="config-bad-value",
        ),
        pytest.param(
            lambda config, vocab, labels: (
                config.replace("\nn_heads = 2\n", "\nn_heads = 3\n"), vocab, labels
            ),
            "d=16 not divisible by n_heads=3",
            id="config-invalid",
        ),
    ],
)
def test_exit_code_4_on_corrupt_vocabulary_or_label_block(
    trained_mini, tmp_path, capsys, corrupt, message
):
    config_text, vocab_lines, label_lines, tensors = load_checkpoint(
        trained_mini["out"] / CHECKPOINT_NAME
    )
    cfg = parse_config(config_text)
    model = restore_model(cfg.to_model_config(len(vocab_lines), len(label_lines)), tensors)
    blocks = corrupt(config_text, vocab_lines, label_lines)
    assert blocks != (config_text, vocab_lines, label_lines)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, model, *blocks)
    capsys.readouterr()
    rc = main([
        "eval", "--checkpoint", str(bad),
        "--data", str(trained_mini["data"]), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: corrupt checkpoint {bad}: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "patch, message",
    [
        pytest.param(
            lambda blob: blob[:8] + (2**62).to_bytes(8, "little") + blob[16:],
            "truncated checkpoint while reading config block",
            id="config-length-past-end",
        ),
        pytest.param(
            lambda blob: blob[:16] + b"\xff" + blob[17:],
            "corrupt checkpoint: config block is not utf-8 text",
            id="config-not-utf8",
        ),
    ],
)
def test_exit_code_4_on_unreadable_config_block(trained_mini, tmp_path, capsys, patch, message):
    # The config block's 8-byte length follows the magic and the version.
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(patch((trained_mini["out"] / CHECKPOINT_NAME).read_bytes()))
    capsys.readouterr()
    rc = main([
        "eval", "--checkpoint", str(bad),
        "--data", str(trained_mini["data"]), "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


def test_exit_code_5_on_non_finite_gradient(mini_corpus, tmp_path, capsys, monkeypatch):
    # The second train step's loss hands a NaN gradient to the logits.
    real = ad.cross_entropy
    steps = []

    def poisoned(logits, labels):
        loss = real(logits, labels)
        if loss._backward is not None:
            steps.append(loss)
            if len(steps) == 2:
                backward_fn = loss._backward
                loss._backward = lambda g: backward_fn(np.full_like(g, np.nan))
        return loss

    monkeypatch.setattr(ad, "cross_entropy", poisoned)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "c.cfg", mini_run_config(mini_corpus["root"], out))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path]) == 5
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: epoch 1 step 2: non-finite gradient in emb.word"]
    assert not (out / CHECKPOINT_NAME).exists()


def assert_no_child_process():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_process_outlives_a_command(trained_mini, mini_corpus, tmp_path, monkeypatch):
    # A batch-64 train, one whose third step meets a non-finite loss
    # (exit 5), and an eval: each reaps the peer it forked.  The exit-3
    # train is test_a_misshapen_half_of_a_batch_64_step_makes_train_exit_3.
    cfg = mini_run_config(mini_corpus["root"], tmp_path / "out", batch_size=64)
    cfg_path = write_config(tmp_path / "c.cfg", cfg)
    assert main(["train", "--config", cfg_path]) == 0
    assert_no_child_process()
    assert main(["eval", "--checkpoint", str(tmp_path / "out" / CHECKPOINT_NAME),
                 "--data", str(mini_corpus["root"]), "--out", str(tmp_path / "eval")]) == 0
    assert_no_child_process()
    real, steps = ad.cross_entropy, []

    def nan_loss(logits, labels):
        loss = real(logits, labels)
        if loss._backward is not None:  # a train step's, not an evaluation pass's
            steps.append(loss)
            if len(steps) == 3:
                loss.data = np.full_like(loss.data, np.nan)
        return loss

    monkeypatch.setattr(ad, "cross_entropy", nan_loss)
    assert main(["train", "--config", cfg_path]) == 5
    assert len(steps) == 3
    assert_no_child_process()


def test_the_peer_exits_when_its_parent_is_killed(mini_corpus, tmp_path):
    # SIGKILL leaves the parent no chance to close the pipe; the peer sees
    # EOF on it and exits.  The peer then is a zombie or gone.
    if not Path(f"/proc/{os.getpid()}/stat").exists():
        pytest.skip("no /proc here to read the peer's state from")
    code = (
        "import sys, vqagpt.cli as cli, vqagpt.model as model\n"
        "real = model.Peer.__init__\n"
        "def init(self, *args, **kwargs):\n"
        "    real(self, *args, **kwargs)\n"
        "    print(self.pid, flush=True)\n"
        "model.Peer.__init__ = init\n"
        "cli.main(sys.argv[1:])\n"
    )
    cfg = mini_run_config(mini_corpus["root"], tmp_path / "out", batch_size=64, epochs=1000)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "train", "--config", write_config(tmp_path / "c.cfg", cfg)],
        env={**os.environ, "PYTHONPATH": str(src)}, stdout=subprocess.PIPE, text=True,
    )
    try:
        peer = int(proc.stdout.readline())
        time.sleep(0.5)  # some batch-64 steps in
        assert proc.poll() is None
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    stat = Path(f"/proc/{peer}/stat")
    deadline = time.monotonic() + 5
    while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
        assert time.monotonic() < deadline, "the peer outlived its parent by 5 s"
        time.sleep(0.05)


def test_exit_code_2_on_label_map_mismatch(trained_mini, tmp_path):
    # a grid-1 corpus has 8 answer classes, the checkpoint was trained on 11
    other = tmp_path / "grid1"
    gen_cfg = replace(
        RunConfig(), n_samples=8, grid_size=1, image_size=16, data_dir=str(other)
    )
    assert main(["gen-data", "--config", write_config(tmp_path / "g1.cfg", gen_cfg)]) == 0
    rc = main([
        "eval",
        "--checkpoint", str(trained_mini["out"] / CHECKPOINT_NAME),
        "--data", str(other),
        "--out", str(tmp_path / "mout"),
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# runtime dependencies


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is a test dependency only (the conv oracle); the package must
    # import and run with numpy alone.
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, vqagpt.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# allocator policy

# Batch-64 desk epochs in a fresh process, whose heap has only its own
# history; prints the page faults of each train step and the number of
# malloc arenas (glibc's malloc_info lists one <heap> each).  The peer
# forwards the later chunks of each evaluation pass and back-propagates the
# second half of each batch-64 step, whatever the machine's core count.
COUNT_STEP_FAULTS = """
import ctypes, json, resource, sys
import vqagpt.cli as cli

faults, step = [], cli.train_step

def counting(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss = step(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return loss

cli.train_step = counting
code = cli.main(sys.argv[1:])
libc, buf, size = ctypes.CDLL(None), ctypes.c_char_p(), ctypes.c_size_t()
libc.open_memstream.restype = ctypes.c_void_p
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
stream = libc.open_memstream(ctypes.byref(buf), ctypes.byref(size))
libc.malloc_info(0, stream)
libc.fclose(stream)
arenas = ctypes.string_at(buf, size.value).count(b"<heap nr=")
print(json.dumps([code, faults, arenas]))
"""


def desk_b64_step_faults(desk_corpus, tmp_path, epochs: int) -> list:
    """Page faults of each step of an ``epochs``-epoch batch-64 desk ``train``.

    Half of each step and of each epoch's evaluation passes runs on the
    peer; the process itself allocates from one thread, so one malloc arena.
    """
    if not ad.keep_heap_resident():
        pytest.skip("no glibc mallopt here, so the allocator policy does not apply")
    (tmp_path / "b64.cfg").write_text(f"batch_size = 64\nepochs = {epochs}\n")
    argv = ["train", "--profile", "desk", "--config", str(tmp_path / "b64.cfg"),
            "--data", str(desk_corpus["root"]), "--out", str(tmp_path / "run")]
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", COUNT_STEP_FAULTS, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, faults, arenas = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and len(faults) == 25 * epochs
    assert arenas == 1
    return faults


def test_steady_desk_b64_train_steps_fault_no_pages(desk_corpus, tmp_path):
    # Under glibc's defaults each of these steps page-faults thousands of
    # pages back in: the arrays the previous step freed went back to the OS.
    faults = desk_b64_step_faults(desk_corpus, tmp_path, epochs=1)
    assert sum(faults[-10:]) < 10 * 10, faults


def test_desk_b64_train_steps_after_a_two_thread_eval_pass_fault_no_pages(desk_corpus, tmp_path):
    # The second epoch's steps follow the first epoch's evaluation passes,
    # which allocate from the same resident arena.
    faults = desk_b64_step_faults(desk_corpus, tmp_path, epochs=2)
    assert sum(faults[-10:]) < 10 * 10, faults
