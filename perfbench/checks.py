"""Checks of the program's outputs against computations made apart from it.

The corpus files are read and decoded here, not through the package: the
manifest answers are re-derived from each record's scene, PPM images are
decoded by hand and questions are tokenized from the checkpoint's
vocabulary lines.  Only the model's forward pass comes from the package, run
on a checkpoint reloaded from disk; the accuracies in ``metrics.csv`` and
``eval.csv`` must then equal this file's own count of argmax == label.
"""

from __future__ import annotations

import csv
import json
import math
import re
import string
from pathlib import Path

import numpy as np

N_CLASSES = 11
UNIFORM_LOSS = math.log(N_CLASSES)
# A model that only learned the question type and its answer prior scores
# about 2/11 here; a working model after two desk epochs is far above it.
MIN_VAL_ACC = 2.0 / N_CLASSES

_POSITIONS = {"top left": 0, "top right": 1, "bottom left": 2, "bottom right": 3}
_COUNT_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
_PUNCT = str.maketrans("", "", string.punctuation)


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def reparse_answer(question: str, scene) -> str:
    """The answer to ``question`` about ``scene``, parsed from the text."""
    q = question.lower()
    m = re.search(r"(square|circle|triangle)s\b", q)
    if m:  # only count questions pluralize a shape
        return _COUNT_WORDS[sum(1 for shape, _ in scene if shape == m.group(1))]
    for name, idx in _POSITIONS.items():
        if name in q:
            if "color" in q:
                return scene[idx][1]
            if "shape" in q:
                return scene[idx][0]
    raise CheckError(f"unparseable question {question!r}")


def read_split(corpus: Path, split: str) -> list:
    with open(corpus / f"{split}.jsonl", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_labels(corpus: Path) -> dict:
    labels = {}
    with open(corpus / "labels.tsv", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                name, idx = line.rstrip("\n").split("\t")
                labels[name] = int(idx)
    return labels


def check_corpus(corpus: Path, n_train: int, n_test: int) -> dict:
    """Every stored answer equals the re-derived one; returns the two splits."""
    labels = read_labels(corpus)
    require(sorted(labels.values()) == list(range(N_CLASSES)), "labels.tsv is not 0..10")
    splits = {"train": read_split(corpus, "train"), "test": read_split(corpus, "test")}
    require(len(splits["train"]) == n_train, f"train split has {len(splits['train'])} records")
    require(len(splits["test"]) == n_test, f"test split has {len(splits['test'])} records")
    for split, records in splits.items():
        for r in records:
            expect = reparse_answer(r["question"], r["scene"])
            require(r["answer"] == expect, f"{split}: {r['question']!r} stored "
                    f"{r['answer']!r}, scene says {expect!r}")
    return splits


def read_ppm(path: Path) -> np.ndarray:
    """P6 with maxval 255 and no header comments, as the generator writes it."""
    raw = path.read_bytes()
    fields = raw.split(maxsplit=4)
    require(fields[0] == b"P6" and fields[3] == b"255", f"{path}: not an 8-bit P6 file")
    w, h = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(raw[len(raw) - w * h * 3 :], dtype=np.uint8)
    return pixels.reshape(h, w, 3).astype(np.float32) / 255.0


def question_ids(question: str, vocab: dict, max_len: int) -> list:
    ids = [vocab.get(w, 1) for w in question.lower().translate(_PUNCT).split()][:max_len]
    return ids + [0] * (max_len - len(ids))


def split_arrays(corpus: Path, records: list, labels: dict, vocab_lines: list, max_len: int):
    vocab = {tok: i for i, tok in enumerate(vocab_lines)}
    images = np.stack([read_ppm(corpus / r["image"]) for r in records])
    qids = np.array([question_ids(r["question"], vocab, max_len) for r in records], dtype=np.int64)
    y = np.array([labels[r["answer"]] for r in records], dtype=np.int64)
    types = [r["type"] for r in records]
    return images, qids, y, types


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_metrics_csv(path: Path, epochs: int) -> list:
    """Finite losses, a falling train loss below uniform, val acc above chance."""
    rows = read_csv(path)
    require(len(rows) == epochs, f"metrics.csv has {len(rows)} rows, expected {epochs}")
    for r in rows:
        for key in ("train_loss", "val_loss"):
            require(math.isfinite(float(r[key])), f"epoch {r['epoch']}: {key} = {r[key]}")
    first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
    require(last < first, f"train loss rose from {first} to {last}")
    require(last < UNIFORM_LOSS, f"last train loss {last} is not below ln 11")
    val = float(rows[-1]["val_acc"])
    require(val > MIN_VAL_ACC, f"final val_acc {val} is not above {MIN_VAL_ACC:.4f}")
    return rows


def count_correct(logits: np.ndarray, y: np.ndarray, types: list) -> dict:
    """Correct predictions overall and per question type, with sample counts."""
    hit = np.argmax(logits, axis=-1) == y
    out = {"overall": (int(hit.sum()), len(y))}
    for tag in sorted(set(types)):
        sel = np.array([t == tag for t in types])
        out[tag] = (int(hit[sel].sum()), int(sel.sum()))
    return out


def acc_text(count: tuple) -> str:
    return f"{count[0] / count[1]:.6f}"


def check_eval_csv(path: Path, test_counts: dict, last_val_acc: str) -> None:
    """eval.csv matches the re-counted test accuracy and the last val_acc."""
    rows = read_csv(path)
    overall = [r for r in rows if r["block"] == "test" and r["scope"] == "overall"]
    require(len(overall) == 1, "eval.csv lacks one test/overall row")
    n_test = test_counts["overall"][1]
    require(int(overall[0]["n"]) == n_test, f"eval.csv overall n {overall[0]['n']}")
    require(overall[0]["acc"] == acc_text(test_counts["overall"]),
            f"eval.csv acc {overall[0]['acc']} != counted {acc_text(test_counts['overall'])}")
    require(overall[0]["acc"] == last_val_acc,
            f"eval.csv acc {overall[0]['acc']} != last val_acc {last_val_acc}")
    per_type = [r for r in rows if r["block"] == "test" and r["scope"] != "overall"]
    require(sum(int(r["n"]) for r in per_type) == n_test, "per-type n do not sum to the split")
    for r in per_type:
        require(r["acc"] == acc_text(test_counts[r["scope"]]),
                f"eval.csv {r['scope']} acc {r['acc']} != counted")
