"""Command-line harness: gen-data, train, eval, ablate.

Configuration precedence, lowest to highest: schema defaults, --profile,
--config file, explicit flags (--seed/--out/--data).  Exit codes are a
stable contract: 0 success, 2 config error, 3 data error, 4 checkpoint
error, 5 a non-finite loss or gradient in training (argparse usage errors
also exit 2).

Determinism note: runs are reproducible bit-for-bit only in single-threaded
BLAS mode; pin OMP_NUM_THREADS=1 (or the OpenBLAS equivalent) when that
matters.  Evaluation forwards its ``EVAL_CHUNK``-sample chunks on up to
two threads, each pinned to a core of its own; a sample's logits do not
depend on its chunk, so no output depends on the thread count.

Allocator policy: on glibc, ``main`` sets three fixed ``mallopt`` values
(no key, flag or variable); elsewhere it leaves the allocator alone.  By
default glibc hands a train step's freed arrays back to the OS, and the
next step page-faults them in again.  The mmap threshold (32 MiB) keeps
the arrays on the heap and the trim threshold (512 MiB) keeps the heap
from shrinking.  Both are set: any ``mallopt`` call freezes glibc's
self-tuning thresholds where they stand, and either alone still faults.
One arena (``M_ARENA_MAX``) makes the evaluation threads reuse that
resident heap instead of growing arenas of their own.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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
    feature_logits,
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


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
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
    if not samples:
        raise DataError("no samples to prepare")
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


@functools.cache
def _eval_pool() -> ThreadPoolExecutor:
    """The evaluation threads, made on first use: one per usable core, at most two.

    Each is pinned to its core where the OS allows it: unpinned, two threads
    taking turns on the GIL could be left on one core for passes on end.
    """
    if not hasattr(os, "sched_setaffinity"):
        return ThreadPoolExecutor(min(2, os.cpu_count() or 1))
    cores = sorted(os.sched_getaffinity(0))[:2]
    return ThreadPoolExecutor(len(cores), initializer=_pin_thread, initargs=(cores,))


def _pin_thread(cores: list) -> None:
    """Pin the calling thread to a core it takes from ``cores``; unpinned if that core is gone."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cores.pop()})


def _chunk_logits(model, feats, qids, lo: int) -> np.ndarray:
    """Logits of the ``EVAL_CHUNK`` samples from ``lo``; this thread records no graph."""
    with ad.no_grad():
        return feature_logits(feats[lo : lo + EVAL_CHUNK], qids[lo : lo + EVAL_CHUNK], model).data


def _evaluate_arrays(model, cfg: RunConfig, feats, qids, labels, types):
    """Mean loss + MetricsReport over the arrays, no grad recorded.

    The forward passes run in ``EVAL_CHUNK``-sample chunks, not at
    ``cfg.batch_size``, spread over ``_eval_pool`` and joined in chunk
    order.  The loss is taken once over all logits, so as long as a
    sample's logits do not depend on the other samples in its chunk, the
    result depends neither on the chunk size nor on the thread count.
    """
    chunk_logits = functools.partial(_chunk_logits, model, feats, qids)
    logits = np.concatenate(list(_eval_pool().map(chunk_logits, range(0, len(labels), EVAL_CHUNK))))
    loss = ad.cross_entropy(ad.Tensor(logits), labels)
    preds = np.argmax(logits, axis=-1)
    report = compute_metrics(preds, labels, types, n_classes=model.config.num_classes)
    return float(loss.data), report


def _infer_template_count(*datasets) -> int:
    k = max(ds.max_template() for ds in datasets) + 1
    if k < 1:
        raise DataError("cannot infer template count from an empty dataset")
    return k


def _split_held_out(samples, k: int, what: str):
    """(samples on templates < k - 1, samples on the held-out template k - 1)."""
    if k < 2:
        raise DataError(f"{what} needs at least 2 templates in the data")
    return (
        [s for s in samples if s.template_id < k - 1],
        [s for s in samples if s.template_id == k - 1],
    )


def _load_split(cfg: RunConfig):
    data_dir = Path(cfg.data_dir)
    train_ds = load_dataset(data_dir / "train.jsonl")
    test_ds = load_dataset(data_dir / "test.jsonl")
    if train_ds.label_map != test_ds.label_map:
        raise DataError("train and test label maps disagree")
    return train_ds, test_ds


def _train_on(cfg: RunConfig, train_ds, test_ds, log=None, every_epoch: bool = True):
    """Core training loop; returns (model, vocab, ``METRICS_HEADER`` rows, final test report).

    The test report is the last snapshot's, taken of the returned model.
    With ``every_epoch`` False no snapshot is taken and no row made: the
    test split alone is evaluated, once, after the last epoch.
    """
    dtype = _dtype_for(cfg)
    train_samples = list(train_ds.samples)
    if cfg.rephrased_holdout:
        k = _infer_template_count(train_ds, test_ds)
        train_samples = _split_held_out(train_samples, k, "rephrased holdout")[0]
    if not train_samples:
        raise DataError("training split is empty")
    vocab = build_vocab([s.question for s in train_samples], cfg.min_word_count)
    model = init_params(cfg.to_model_config(vocab.size, len(train_ds.label_map)), cfg.seed, dtype)
    opt = ad.AdamState(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    feats, qids, labels, types = _prepare_arrays(cfg, vocab, train_ds, train_samples)
    t_feats, t_qids, t_labels, t_types = _prepare_arrays(
        cfg, vocab, test_ds, test_ds.samples
    )
    shuffle_rng = np.random.Generator(np.random.PCG64([cfg.seed, 1]))
    rows = []

    def snapshot(epoch: int, running_loss):
        tr_loss, tr_rep = _evaluate_arrays(model, cfg, feats, qids, labels, types)
        va_loss, va_rep = _evaluate_arrays(model, cfg, t_feats, t_qids, t_labels, t_types)
        train_loss = running_loss if running_loss is not None else tr_loss
        tr_scores = _score_rows(tr_rep)[0][2:]
        va_scores = _score_rows(va_rep)[0][2:]
        rows.append([epoch, repr(train_loss), *tr_scores, repr(va_loss), *va_scores])
        if log:
            log(
                f"epoch {epoch}/{cfg.epochs}  train_loss={train_loss:.6f}"
                f"  train_acc={tr_scores[0]}  val_acc={va_scores[0]}"
            )
        return va_rep

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(len(train_samples))
        total = 0.0
        for step, lo in enumerate(range(0, len(perm), cfg.batch_size), start=1):
            idx = perm[lo : lo + cfg.batch_size]
            try:
                loss = train_step((feats[idx], qids[idx], labels[idx]), model, opt)
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {epoch} step {step}: {exc}") from exc
            total += loss * len(idx)
        if every_epoch:
            test_report = snapshot(epoch, total / len(perm))
    if not every_epoch:
        test_report = _evaluate_arrays(model, cfg, t_feats, t_qids, t_labels, t_types)[1]
    elif cfg.epochs == 0:
        test_report = snapshot(0, None)
    return model, vocab, rows, test_report


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
    model, vocab, rows, _ = _train_on(cfg, train_ds, test_ds, log=print)
    _write_csv(out_dir / METRICS_CSV, METRICS_HEADER, rows)
    save_checkpoint(
        out_dir / CHECKPOINT_NAME,
        model,
        serialize_config(cfg),
        vocab.to_lines(),
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
        cfg = parse_config(config_text)
        cfg.validate()
        vocab = Vocabulary.from_lines(vocab_lines)
        ckpt_label_map = parse_label_lines(label_block, "label map block")
        model_cfg = cfg.to_model_config(vocab.size, len(ckpt_label_map))
        model_cfg.validate()
    except (ValueError, ConfigError, DataError) as exc:
        raise CheckpointError(f"corrupt checkpoint {args.checkpoint}: {exc}") from exc
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.data:
        cfg = replace(cfg, data_dir=args.data)
    model = restore_model(model_cfg, tensors, _dtype_for(cfg))
    test_ds = load_dataset(Path(cfg.data_dir) / "test.jsonl")
    if test_ds.label_map != ckpt_label_map:
        raise ConfigError("checkpoint label map does not match the dataset's labels.tsv")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_rows = []
    block_reports = {}
    for block, samples in _eval_blocks(test_ds, args.rephrased):
        if not samples:
            continue
        arrays = _prepare_arrays(cfg, vocab, test_ds, samples)
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


_ABLATION_ORDERS = ("early_word", "early_vision")
_ABLATION_POSES = ("zero", "actual")
_ABLATION_BACKENDS = ("cnn_lite", "vit_lite")


def cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    train_ds, test_ds = _load_split(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    cell_acc = {}
    for order in _ABLATION_ORDERS:
        for pose in _ABLATION_POSES:
            for backend in _ABLATION_BACKENDS:
                cell = (order, pose, backend)
                cell_cfg = replace(
                    cfg, order=order, vision_pose_mode=pose, vision_backend=backend
                )
                label = f"{order}/{pose}/{backend}"
                print(f"[ablate] training cell {label}")
                try:
                    _, _, _, report = _train_on(cell_cfg, train_ds, test_ds, every_epoch=False)
                except Exception as exc:  # keep remaining cells running
                    rows.append([*cell, cfg.use_type_embedding, "overall", "", "", "", "",
                                 f"error: {exc}"])
                    print(f"[ablate] cell {label} failed: {exc}")
                    continue
                cell_acc[cell] = report.acc
                rows.extend(
                    [*cell, cfg.use_type_embedding, *row, "ok"] for row in _score_rows(report)
                )
    _write_csv(
        out_dir / ABLATION_CSV,
        ["order", "pose_mode", "backend", "type_embedding", *SCORE_HEADER, "status"],
        rows,
    )
    print(f"ablation csv: {out_dir / ABLATION_CSV}")
    for title, axis, a, b in (
        ("order", 0, "early_word", "early_vision"),
        ("pose_mode", 1, "actual", "zero"),
        ("backend", 2, "cnn_lite", "vit_lite"),
    ):
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


def _add_common(p, with_data=True):
    p.add_argument("--config", help="path to a key = value config file")
    p.add_argument("--profile", choices=("desk", "paper"), help="named settings bundle")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    if with_data:
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


def keep_heap_resident() -> bool:
    """Set the allocator policy of the module docstring; False where there is no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1 and M_ARENA_MAX -8 in glibc's malloc.h.
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 512 << 20) and mallopt(-8, 1))


def main(argv=None) -> int:
    keep_heap_resident()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VqagptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
