"""Confusion-matrix metrics with support-weighted class averaging, and
rank-based ROC AUC with midrank tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatchError, ShapeMismatchError, SingleClassError

METRIC_NAMES = ("recall", "precision", "specificity", "accuracy", "f1")


@dataclass(frozen=True)
class Confusion:
    """Counts with the minority class (label 1) as positive."""
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(labels, predictions) -> Confusion:
    labels, predictions = _check_binary(labels, predictions)
    return Confusion(
        tp=int(np.sum((labels == 1) & (predictions == 1))),
        fp=int(np.sum((labels == 0) & (predictions == 1))),
        tn=int(np.sum((labels == 0) & (predictions == 0))),
        fn=int(np.sum((labels == 1) & (predictions == 0))),
    )


def _safe_div(num: float, den: float) -> float:
    # zero-support / zero-denominator metrics contribute 0, not NaN;
    # extreme-imbalance sweeps hit this constantly
    return num / den if den > 0 else 0.0


def weighted_metrics(labels, predictions) -> dict:
    """Per-class recall/precision/specificity/F1 averaged with weights
    proportional to class support, plus plain accuracy.

    Support weighting makes weighted recall equal accuracy identically.
    """
    c = confusion(labels, predictions)
    n = c.total
    out = {name: 0.0 for name in METRIC_NAMES}
    out["accuracy"] = _safe_div(c.tp + c.tn, n)
    # each class in turn as the positive one: (tp, fp, tn, fn) of class 0,
    # then of class 1
    for tp, fp, tn, fn in ((c.tn, c.fn, c.tp, c.fp), (c.tp, c.fp, c.tn, c.fn)):
        support = tp + fn
        if support == 0:
            continue
        w = support / n
        recall = _safe_div(tp, tp + fn)
        precision = _safe_div(tp, tp + fp)
        out["recall"] += w * recall
        out["precision"] += w * precision
        out["specificity"] += w * _safe_div(tn, tn + fp)
        out["f1"] += w * _safe_div(2 * precision * recall, precision + recall)
    return out


def roc_auc(labels, scores) -> float:
    """P(random positive scores above random negative), ties at half credit.

    Computed from midranks (Mann-Whitney form), which matches the O(n^2)
    pairwise definition exactly.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ShapeMismatchError(f"labels {labels.shape} vs scores {scores.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("AUC needs at least one sample of each class")
    ranks = _midranks(scores)
    pos_rank_sum = float(np.sum(ranks[labels == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    # the sorted positions i..j of each run of equal scores; NaN != NaN, so
    # each NaN is a run of its own
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], len(x)) - 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _check_binary(labels, predictions):
    labels = np.asarray(labels, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if labels.shape != predictions.shape or labels.ndim != 1:
        raise ShapeMismatchError(
            f"labels {labels.shape} vs predictions {predictions.shape}")
    if len(labels) == 0:
        raise EmptyBatchError("no samples")
    return labels, predictions
