"""Classification metrics: accuracy, macro recall, macro F-score, confusion.

Macro averaging runs over classes with nonzero support only; a class that
is never predicted and never labeled simply does not participate.  Any
0/0 inside precision or recall is defined as 0.  Per-question-type metrics
apply the same computation to the matching subset of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TypeMetrics:
    n: int
    acc: float
    macro_recall: float
    macro_fscore: float


@dataclass
class MetricsReport(TypeMetrics):
    per_type: dict  # type tag -> TypeMetrics
    confusion: np.ndarray  # (C, C) counts, rows = true class, cols = predicted


def _confusion(preds: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (labels, preds), 1)
    return conf


def _summarize(conf: np.ndarray):
    total = int(conf.sum())
    acc = float(np.trace(conf) / total) if total else 0.0
    support = conf.sum(axis=1)  # per-class true counts
    predicted = conf.sum(axis=0)
    diag = np.diag(conf)
    present = support > 0
    recalls = np.zeros(conf.shape[0], dtype=np.float64)
    precisions = np.zeros(conf.shape[0], dtype=np.float64)
    np.divide(diag, support, out=recalls, where=present)
    np.divide(diag, predicted, out=precisions, where=predicted > 0)
    denom = precisions + recalls
    f1 = np.zeros(conf.shape[0], dtype=np.float64)
    np.divide(2.0 * precisions * recalls, denom, out=f1, where=denom > 0)
    if present.any():
        # Plain left-to-right means: numpy's pairwise mean can differ in the
        # last ulp depending on class count, and these numbers are pinned
        # exactly against a scalar reference implementation.
        rec = recalls[present].tolist()
        fsc = f1[present].tolist()
        macro_recall = sum(rec) / len(rec)
        macro_f = sum(fsc) / len(fsc)
    else:
        macro_recall = 0.0
        macro_f = 0.0
    return acc, macro_recall, macro_f


def compute_metrics(preds, labels, types, n_classes: int = None) -> MetricsReport:
    """Score integer predictions against labels, overall and per type tag."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    types = list(types)
    if preds.shape != labels.shape or preds.ndim != 1 or len(types) != preds.shape[0]:
        raise ValueError(
            f"length mismatch: preds {preds.shape}, labels {labels.shape}, "
            f"types {len(types)}"
        )
    if preds.size == 0:
        raise ValueError("compute_metrics: empty input")
    if preds.min() < 0 or labels.min() < 0:
        raise ValueError("negative class id")
    inferred = int(max(preds.max(), labels.max())) + 1
    if n_classes is None:
        n_classes = inferred
    elif inferred > n_classes:
        raise ValueError(f"class id {inferred - 1} outside declared {n_classes} classes")
    conf = _confusion(preds, labels, n_classes)
    acc, macro_recall, macro_f = _summarize(conf)
    per_type: dict = {}
    for tag in sorted(set(types)):
        idx = np.array([i for i, t in enumerate(types) if t == tag], dtype=np.int64)
        sub = _confusion(preds[idx], labels[idx], n_classes)
        t_acc, t_rec, t_f = _summarize(sub)
        per_type[tag] = TypeMetrics(n=int(idx.size), acc=t_acc, macro_recall=t_rec, macro_fscore=t_f)
    return MetricsReport(
        n=int(preds.size),
        acc=acc,
        macro_recall=macro_recall,
        macro_fscore=macro_f,
        per_type=per_type,
        confusion=conf,
    )


def report_lines(report: MetricsReport, title: str = "overall") -> list:
    """Human-readable block, one metric triple per scope."""
    lines = [
        f"[{title}] n={report.n}  acc={report.acc:.4f}  "
        f"recall={report.macro_recall:.4f}  fscore={report.macro_fscore:.4f}"
    ]
    for tag, tm in report.per_type.items():
        lines.append(
            f"  {tag:>8}: n={tm.n}  acc={tm.acc:.4f}  "
            f"recall={tm.macro_recall:.4f}  fscore={tm.macro_fscore:.4f}"
        )
    return lines
