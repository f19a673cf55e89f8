"""Detection metrics computed exactly from scores, no interpolation.

AUROC is the Mann-Whitney statistic with midranks for ties; AUPRC is average
precision accumulated step-wise over distinct score thresholds; F1-macro and
Recall are confusion-matrix metrics at a fixed threshold with the
zero-division -> 0 convention.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class MetricsRecord:
    auroc: float
    auprc: float
    f1_macro: float
    recall: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels differ in length")
    return scores, labels


def _require_both_classes(labels):
    if labels.min() == labels.max():
        raise ValueError("labels contain a single class; ranking metric undefined")


def midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions; NaN propagates."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    ends = np.append(starts[1:], len(s))          # exclusive
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    scores, labels = _check(scores, labels)
    _require_both_classes(labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = midranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _threshold_counts(scores, labels):
    """Cumulative TP / FP at each distinct score, descending."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    boundaries = np.nonzero(np.diff(s))[0]
    ends = np.concatenate([boundaries, [len(s) - 1]])
    tp = np.cumsum(y == 1)[ends].astype(np.float64)
    fp = np.cumsum(y == 0)[ends].astype(np.float64)
    return s[ends], tp, fp


def auprc(scores, labels) -> float:
    scores, labels = _check(scores, labels)
    _require_both_classes(labels)
    _, tp, fp = _threshold_counts(scores, labels)
    n_pos = tp[-1]
    precision = tp / (tp + fp)
    recall_steps = np.diff(np.concatenate([[0.0], tp])) / n_pos
    return float((recall_steps * precision).sum())


def _confusion(scores, labels, threshold):
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    return tp, fp, fn, tn


def _safe_div(a, b):
    return a / b if b else 0.0


def recall(scores, labels, threshold: float = 0.5) -> float:
    scores, labels = _check(scores, labels)
    tp, _, fn, _ = _confusion(scores, labels, threshold)
    return _safe_div(tp, tp + fn)


def f1_macro(scores, labels, threshold: float = 0.5) -> float:
    scores, labels = _check(scores, labels)
    tp, fp, fn, tn = _confusion(scores, labels, threshold)

    def f1(tp_, fp_, fn_):
        p = _safe_div(tp_, tp_ + fp_)
        r = _safe_div(tp_, tp_ + fn_)
        return _safe_div(2 * p * r, p + r)

    return (f1(tp, fp, fn) + f1(tn, fn, fp)) / 2.0


def compute_metrics(scores, labels, threshold: float = 0.5) -> MetricsRecord:
    return MetricsRecord(
        auroc=auroc(scores, labels),
        auprc=auprc(scores, labels),
        f1_macro=f1_macro(scores, labels, threshold),
        recall=recall(scores, labels, threshold),
    )


def roc_points(scores, labels) -> np.ndarray:
    """(fpr, tpr) staircase per distinct threshold, endpoints included."""
    scores, labels = _check(scores, labels)
    _require_both_classes(labels)
    _, tp, fp = _threshold_counts(scores, labels)
    tpr = np.concatenate([[0.0], tp / tp[-1]])
    fpr = np.concatenate([[0.0], fp / fp[-1]])
    return np.column_stack([fpr, tpr])


def pr_points(scores, labels) -> np.ndarray:
    """(recall, precision) per distinct threshold, descending thresholds."""
    scores, labels = _check(scores, labels)
    _require_both_classes(labels)
    _, tp, fp = _threshold_counts(scores, labels)
    return np.column_stack([tp / tp[-1], tp / (tp + fp)])
