"""Command-line harness: gen-data, train, eval, ablate.

``train`` and ``ablate`` drive the same training loop, a ``Run``: ``train``
evaluates both splits after every epoch, ``ablate`` the test split once.

Configuration precedence, lowest to highest: schema defaults, --profile,
--config file, explicit flags (--seed/--out/--data).  Exit codes are a
stable contract: 0 success, 2 config error, 3 data error, 4 checkpoint
error, 5 a non-finite loss or gradient in training (argparse usage errors
also exit 2).

Determinism note: runs are reproducible bit-for-bit only in single-threaded
BLAS mode; pin OMP_NUM_THREADS=1 (or the OpenBLAS equivalent) when that
matters.  Each ``Run``, and each ``eval`` command, forks one
``model.Peer`` once its model and prepared arrays exist.  The peer forwards
the later ``EVAL_CHUNK``-sample chunks of an evaluation pass, and the
second half of a train step of 64 or more samples (see
``model.train_step``); no output depends on whether it runs.  ``main``
first sets the allocator policy of ``autodiff.keep_heap_resident``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import (
    RunConfig,
    apply_profile,
    load_config_file,
    parse_config,
    serialize_config,
)
from .data import (
    generate_synthetic,
    label_lines,
    load_dataset,
    load_images,
    parse_label_lines,
)
from .errors import CheckpointError, ConfigError, DataError, NonFiniteError, VqagptError
from .metrics import compute_metrics, report_lines
from .model import (
    Peer,
    init_params,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train_step,
)
from .tokenizers import Vocabulary, build_vocab, feature_shape, image_features, tokenize_question

CHECKPOINT_NAME = "model.ckpt"
METRICS_CSV = "metrics.csv"
EVAL_CSV = "eval.csv"
ABLATION_CSV = "ablation.csv"
METRICS_HEADER = [
    "epoch", "train_loss", "train_acc", "train_recall", "train_fscore",
    "val_loss", "val_acc", "val_recall", "val_fscore",
]
SCORE_HEADER = ["scope", "n", "acc", "macro_recall", "macro_fscore"]
# Samples per forward pass in evaluation, whatever the training batch.
EVAL_CHUNK = 64


# ---------------------------------------------------------------------------
# shared plumbing


def _dtype_for(cfg: RunConfig):
    return np.float32 if cfg.precision == "f32" else np.float64


def _resolve_config(args, cfg: RunConfig = RunConfig()) -> RunConfig:
    """``cfg`` (the defaults unless given) with the command line's settings applied."""
    if getattr(args, "profile", None):
        cfg = apply_profile(cfg, args.profile)
    if getattr(args, "config", None):
        cfg = load_config_file(args.config, cfg)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "data", None):
        overrides["data_dir"] = args.data
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _score_rows(report) -> list:
    """``SCORE_HEADER`` rows of ``report``: overall first, then each question type."""
    scopes = [("overall", report)] + list(report.per_type.items())
    return [
        [scope, m.n, f"{m.acc:.6f}", f"{m.macro_recall:.6f}", f"{m.macro_fscore:.6f}"]
        for scope, m in scopes
    ]


def _prepare_arrays(cfg: RunConfig, vocab: Vocabulary, dataset, samples):
    """Image features, question ids, labels and question types of ``samples``.

    The frozen image stage (``tokenizers.image_features``) runs here, once
    per split, so no train step or evaluation pass repeats it.  The images
    are read and featurized in ``EVAL_CHUNK``-sample chunks into one
    preallocated array, so the split's raw images are never all held at once.
    """
    feats = np.empty((len(samples),) + feature_shape(cfg), dtype=_dtype_for(cfg))
    for lo in range(0, len(samples), EVAL_CHUNK):
        chunk = load_images(dataset, samples[lo : lo + EVAL_CHUNK])
        feats[lo : lo + len(chunk)] = image_features(chunk, cfg, feats.dtype)
    qids = np.stack(
        [tokenize_question(s.question, vocab, cfg.max_question_len) for s in samples]
    )
    labels = np.array([s.answer_class for s in samples], dtype=np.int64)
    types = [s.question_type for s in samples]
    return feats, qids, labels, types


def _evaluate_arrays(model, cfg: RunConfig, feats, qids, labels, types):
    """Mean loss + MetricsReport over the arrays, no grad recorded.

    The forward passes run in ``EVAL_CHUNK``-sample chunks, not at
    ``cfg.batch_size``, and are joined in chunk order.  When ``model.peer``
    holds ``feats``, it forwards the whole chunks in the first half of the
    samples.  The loss is taken once over all logits, so as long as a
    sample's logits do not depend on the other samples in its chunk, the
    result depends neither on the chunk size nor on the peer.
    """
    peer = model.peer
    k = next((k for k, pair in enumerate(peer.arrays) if pair[0] is feats), None) if peer else None
    if k is None:
        peer, k = Peer(model, [(feats, qids)], fork=False), 0
    chunks = [slice(lo, lo + EVAL_CHUNK) for lo in range(0, len(labels), EVAL_CHUNK)]
    theirs = len(labels) // (2 * EVAL_CHUNK)
    mine, first = peer.both(lambda: peer.logits(k, chunks[theirs:]), "logits", k, chunks[:theirs])
    logits = np.concatenate(first + mine)
    loss = ad.cross_entropy(ad.Tensor(logits), labels)
    preds = np.argmax(logits, axis=-1)
    report = compute_metrics(preds, labels, types, n_classes=model.config.num_classes)
    return float(loss.data), report


def _infer_template_count(*datasets) -> int:
    return max(ds.max_template() for ds in datasets) + 1


def _split_held_out(samples, k: int, what: str):
    """(samples on templates < k - 1, samples on the held-out template k - 1)."""
    if k < 2:
        raise DataError(f"{what} needs at least 2 templates in the data")
    return (
        [s for s in samples if s.template_id < k - 1],
        [s for s in samples if s.template_id == k - 1],
    )


def _load_manifest(cfg: RunConfig, name: str, use: str):
    """``<name>.jsonl`` under ``cfg.data_dir``; with no samples to ``use``, a data error."""
    manifest = Path(cfg.data_dir) / f"{name}.jsonl"
    dataset = load_dataset(manifest)
    if not dataset.samples:
        raise DataError(f"{manifest}: no samples to {use}")
    return dataset


def _load_split(cfg: RunConfig):
    train_ds = _load_manifest(cfg, "train", "train on")
    test_ds = _load_manifest(cfg, "test", "evaluate")
    if train_ds.label_map != test_ds.label_map:
        raise DataError("train and test label maps disagree")
    return train_ds, test_ds


class Run(contextlib.AbstractContextManager):
    """One training run: model, Adam state, shuffle RNG, vocabulary, the
    prepared splits, the count of epochs trained, and the model's peer,
    which ``with Run(...) as run`` ends.  ``perfbench/run.py`` times it by
    rebinding ``train_step`` and ``_evaluate_arrays``, so it calls them
    through this module's globals.
    """

    def __init__(self, cfg: RunConfig, train_ds, test_ds):
        samples = list(train_ds.samples)
        if cfg.rephrased_holdout:
            k = _infer_template_count(train_ds, test_ds)
            samples = _split_held_out(samples, k, "rephrased holdout")[0]
        if not samples:
            raise DataError("training split is empty")
        self.cfg = cfg
        self.vocab = build_vocab([s.question for s in samples], cfg.min_word_count)
        model_cfg = cfg.to_model_config(self.vocab.size, len(train_ds.label_map))
        self.model = init_params(model_cfg, cfg.seed, _dtype_for(cfg))
        self.opt = ad.AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
        self.train_split = _prepare_arrays(cfg, self.vocab, train_ds, samples)
        self.test_split = _prepare_arrays(cfg, self.vocab, test_ds, test_ds.samples)
        self.shuffle_rng = np.random.Generator(np.random.PCG64([cfg.seed, 1]))
        self.epoch = 0
        self.peer = Peer(self.model, [self.train_split[:2], self.test_split[:2]])

    def __exit__(self, *exc) -> None:
        self.peer.close()

    def train_epoch(self) -> float:
        """Train one shuffled epoch; returns its sample-weighted mean loss."""
        self.epoch += 1
        feats, qids, labels, _ = self.train_split
        perm = self.shuffle_rng.permutation(len(labels))
        total = 0.0
        for step, lo in enumerate(range(0, len(perm), self.cfg.batch_size), start=1):
            idx = perm[lo : lo + self.cfg.batch_size]
            try:
                loss = train_step((feats[idx], qids[idx], labels[idx], idx), self.model, self.opt)
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {self.epoch} step {step}: {exc}") from exc
            total += loss * len(idx)
        return total / len(perm)

    def evaluate(self, split):
        """(mean loss, MetricsReport) of the model on ``train_split`` or ``test_split``."""
        return _evaluate_arrays(self.model, self.cfg, *split)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    train_ds, test_ds = generate_synthetic(cfg)
    print(
        f"wrote {len(train_ds)} train / {len(test_ds)} test samples "
        f"({len(train_ds.label_map)} classes) to {cfg.data_dir}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_ds, test_ds = _load_split(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with Run(cfg, train_ds, test_ds) as run:
        rows = []
        # epochs = 0 still makes one row: the initial model, its train loss evaluated.
        for _ in range(max(cfg.epochs, 1)):
            running_loss = run.train_epoch() if cfg.epochs else None
            tr_loss, tr_rep = run.evaluate(run.train_split)
            va_loss, va_rep = run.evaluate(run.test_split)
            train_loss = tr_loss if running_loss is None else running_loss
            tr_scores, va_scores = _score_rows(tr_rep)[0][2:], _score_rows(va_rep)[0][2:]
            rows.append([run.epoch, repr(train_loss), *tr_scores, repr(va_loss), *va_scores])
            print(f"epoch {run.epoch}/{cfg.epochs}  train_loss={train_loss:.6f}"
                  f"  train_acc={tr_scores[0]}  val_acc={va_scores[0]}")
    _write_csv(out_dir / METRICS_CSV, METRICS_HEADER, rows)
    save_checkpoint(
        out_dir / CHECKPOINT_NAME,
        run.model,
        serialize_config(cfg),
        run.vocab.to_lines(),
        label_lines(train_ds.label_map),
    )
    print(f"checkpoint: {out_dir / CHECKPOINT_NAME}")
    print(f"metrics: {out_dir / METRICS_CSV}")
    return 0


def _eval_blocks(dataset, rephrased: bool):
    """Return (block_name, samples) pairs for evaluation."""
    if not rephrased:
        return [("test", dataset.samples)]
    k = _infer_template_count(dataset)
    default_samples, held_out = _split_held_out(dataset.samples, k, "--rephrased")
    if not held_out:
        raise DataError(f"no samples use the held-out template {k - 1}")
    return [("default_templates", default_samples), ("rephrased", held_out)]


def cmd_eval(args) -> int:
    config_text, vocab_lines, label_block, tensors = load_checkpoint(args.checkpoint)
    # Every config or model error here comes from the checkpoint's own blocks.
    try:
        cfg = _resolve_config(args, parse_config(config_text))
        vocab = Vocabulary.from_lines(vocab_lines)
        ckpt_label_map = parse_label_lines(label_block, "label map block")
        model_cfg = cfg.to_model_config(vocab.size, len(ckpt_label_map))
        model_cfg.validate()
    except (ValueError, ConfigError, DataError) as exc:
        raise CheckpointError(f"corrupt checkpoint {args.checkpoint}: {exc}") from exc
    model = restore_model(model_cfg, tensors, _dtype_for(cfg))
    test_ds = _load_manifest(cfg, "test", "evaluate")
    if test_ds.label_map != ckpt_label_map:
        raise ConfigError("checkpoint label map does not match the dataset's labels.tsv")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_rows = []
    block_reports = {}
    blocks = [(block, _prepare_arrays(cfg, vocab, test_ds, samples))
              for block, samples in _eval_blocks(test_ds, args.rephrased) if samples]
    with Peer(model, [arrays[:2] for _, arrays in blocks]):
        for block, arrays in blocks:
            loss, report = _evaluate_arrays(model, cfg, *arrays)
            block_reports[block] = report
            for line in report_lines(report, title=block):
                print(line)
            print(f"  loss={loss:.6f}")
            csv_rows.extend([block] + row for row in _score_rows(report))
    if args.rephrased and "default_templates" in block_reports and "rephrased" in block_reports:
        delta = block_reports["default_templates"].acc - block_reports["rephrased"].acc
        print(f"rephrased degradation (default acc - rephrased acc): {delta:+.4f}")
    _write_csv(out_dir / EVAL_CSV, ["block"] + SCORE_HEADER, csv_rows)
    print(f"eval csv: {out_dir / EVAL_CSV}")
    return 0


# The order, pose_mode and backend axes, each in ablation.csv row order.
_ABLATION_AXES = (("early_word", "early_vision"), ("zero", "actual"), ("cnn_lite", "vit_lite"))


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    train_ds, test_ds = _load_split(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    cell_acc = {}
    for cell in itertools.product(*_ABLATION_AXES):
        order, pose, backend = cell
        cell_cfg = replace(cfg, order=order, vision_pose_mode=pose, vision_backend=backend)
        label = "/".join(cell)
        print(f"[ablate] training cell {label}")
        try:
            with Run(cell_cfg, train_ds, test_ds) as run:
                for _ in range(cfg.epochs):
                    run.train_epoch()
                report = run.evaluate(run.test_split)[1]
        except Exception as exc:  # keep remaining cells running
            rows.append([*cell, cfg.use_type_embedding, "overall", "", "", "", "",
                         f"error: {exc}"])
            print(f"[ablate] cell {label} failed: {exc}")
            continue
        cell_acc[cell] = report.acc
        rows.extend([*cell, cfg.use_type_embedding, *row, "ok"] for row in _score_rows(report))
    _write_csv(
        out_dir / ABLATION_CSV,
        ["order", "pose_mode", "backend", "type_embedding", *SCORE_HEADER, "status"],
        rows,
    )
    print(f"ablation csv: {out_dir / ABLATION_CSV}")
    deltas = [("early_word", "early_vision"), ("actual", "zero"), ("cnn_lite", "vit_lite")]
    for axis, (a, b) in enumerate(deltas):
        accs_a = [v for c, v in cell_acc.items() if c[axis] == a]
        accs_b = [v for c, v in cell_acc.items() if c[axis] == b]
        if accs_a and accs_b:
            delta = float(np.mean(accs_a) - np.mean(accs_b))
            print(f"acc delta ({a} - {b}): {delta:+.4f}")
        else:
            print(f"acc delta ({a} - {b}): unavailable (cell failures)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--profile", choices=("desk", "paper"), help="named settings bundle")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--data", help="override the dataset directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqagpt",
        description="Train and evaluate a desk-scale multimodal VQA decoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic shapes-VQA corpus")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True, help="path to a model.ckpt")
    p.add_argument("--data", help="override the dataset directory")
    p.add_argument("--out", help="override the output directory")
    p.add_argument(
        "--rephrased",
        action="store_true",
        help="report the held-out paraphrase template as a separate block",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate the order x pose x backend grid")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    ad.keep_heap_resident()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VqagptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
