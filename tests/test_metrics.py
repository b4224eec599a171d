import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comclust.autodiff import make_rng
from comclust.errors import EmptyBatchError, SingleClassError
from comclust.metrics import _midranks, confusion, roc_auc, weighted_metrics


def pairwise_auc(labels, scores):
    """O(n^2) oracle: concordant pairs count 1, ties 0.5."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def loop_midranks(x):
    """Reference: walk the mergesorted scores one run of ties at a time."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def count_loop_metrics(labels, predictions):
    """Reference: the support-weighted metrics with each class's counts
    taken by its own four sums, in the same order of operations as the
    library."""
    n = len(labels)
    out = dict.fromkeys(("recall", "precision", "specificity", "accuracy",
                         "f1"), 0.0)
    out["accuracy"] = float(np.sum(labels == predictions)) / n
    for cls in (0, 1):
        support = int(np.sum(labels == cls))
        if support == 0:
            continue
        w = support / n
        tp = float(np.sum((labels == cls) & (predictions == cls)))
        fp = float(np.sum((labels != cls) & (predictions == cls)))
        tn = float(np.sum((labels != cls) & (predictions != cls)))
        fn = float(np.sum((labels == cls) & (predictions != cls)))
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        out["recall"] += w * recall
        out["precision"] += w * precision
        out["specificity"] += w * (tn / (tn + fp) if tn + fp > 0 else 0.0)
        out["f1"] += w * (2 * precision * recall / (precision + recall)
                          if precision + recall > 0 else 0.0)
    return out


# few distinct values, so most draws are full of ties
FEW_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])


@st.composite
def labelled_scores(draw, values=FEW_SCORES):
    """(labels, scores) with both classes present."""
    n = draw(st.integers(2, 80))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda ls: 0 in ls and 1 in ls))
    scores = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(labels), np.array(scores, dtype=np.float64)


def per_class_oracle(labels, predictions):
    """Direct support-weighted computation, independent of the library."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    n = len(labels)
    out = dict.fromkeys(("recall", "precision", "specificity", "f1"), 0.0)
    for cls in (0, 1):
        support = np.sum(labels == cls)
        if support == 0:
            continue
        tp = np.sum((labels == cls) & (predictions == cls))
        fp = np.sum((labels != cls) & (predictions == cls))
        tn = np.sum((labels != cls) & (predictions != cls))
        fn = support - tp
        rec = tp / (tp + fn) if tp + fn else 0.0
        prec = tp / (tp + fp) if tp + fp else 0.0
        spec = tn / (tn + fp) if tn + fp else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        for key, val in (("recall", rec), ("precision", prec),
                         ("specificity", spec), ("f1", f1)):
            out[key] += (support / n) * val
    out["accuracy"] = np.mean(labels == predictions)
    return out


class TestWeightedMetrics:
    def test_perfect_predictions(self):
        got = weighted_metrics([0, 1, 0, 1], [0, 1, 0, 1])
        assert all(got[k] == pytest.approx(1.0) for k in got)

    def test_hand_case_98(self):
        # N=100, 2 minority; TP=1, FN=1, FP=1, TN=97
        labels = np.array([1] * 2 + [0] * 98)
        preds = np.array([1, 0] + [1] + [0] * 97)
        got = weighted_metrics(labels, preds)
        assert got["recall"] == pytest.approx(0.98, abs=1e-12)
        assert got["accuracy"] == pytest.approx(0.98, abs=1e-12)

    def test_all_majority_predictions(self):
        labels = np.array([1] * 5 + [0] * 95)
        preds = np.zeros(100, dtype=int)
        got = weighted_metrics(labels, preds)
        assert got["recall"] == pytest.approx(0.95, abs=1e-12)
        assert got["accuracy"] == pytest.approx(0.95, abs=1e-12)
        # minority-class components are zero, so precision < 1
        assert got["precision"] == pytest.approx(0.95 * 0.95, abs=1e-12)

    def test_weighted_recall_equals_accuracy_identity(self):
        rng = make_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            labels = rng.integers(0, 2, size=n)
            preds = rng.integers(0, 2, size=n)
            got = weighted_metrics(labels, preds)
            assert got["recall"] == pytest.approx(got["accuracy"], abs=1e-12)

    def test_matches_per_class_oracle(self):
        rng = make_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, size=n)
            preds = rng.integers(0, 2, size=n)
            got = weighted_metrics(labels, preds)
            oracle = per_class_oracle(labels, preds)
            for key in oracle:
                assert got[key] == pytest.approx(oracle[key], abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=80))
    def test_bit_equal_to_per_class_count_loop(self, pairs):
        labels, preds = (np.array(column) for column in zip(*pairs))
        assert weighted_metrics(labels, preds) == count_loop_metrics(labels,
                                                                     preds)

    def test_empty_input(self):
        with pytest.raises(EmptyBatchError):
            weighted_metrics([], [])


class TestConfusion:
    def test_counts(self):
        c = confusion([1, 1, 0, 0, 0], [1, 0, 1, 0, 0])
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 2)
        assert c.total == 5


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_all_ties(self):
        assert roc_auc([0, 1, 0, 1], [0.5] * 4) == pytest.approx(0.5)

    def test_hand_case(self):
        assert roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == pytest.approx(0.75)

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            roc_auc([1, 1], [0.1, 0.2])

    def test_matches_pairwise_oracle_with_ties(self):
        rng = make_rng(3)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if len(np.unique(labels)) < 2:
                continue
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, size=n) / 4.0
            assert roc_auc(labels, scores) == pytest.approx(
                pairwise_auc(labels, scores), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = make_rng(4)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = rng.normal(size=50)
        base = roc_auc(labels, scores)
        assert roc_auc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
        assert roc_auc(labels, 3 * scores - 7) == pytest.approx(base, abs=1e-12)

    def test_negation_complement_without_ties(self):
        rng = make_rng(5)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        scores = rng.normal(size=40)
        assert roc_auc(labels, scores) + roc_auc(labels, -scores) == \
            pytest.approx(1.0, abs=1e-12)


class TestAucProperties:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(labelled_scores())
    def test_equals_pairwise_definition(self, case):
        labels, scores = case
        assert roc_auc(labels, scores) == pytest.approx(
            pairwise_auc(labels, scores), abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.one_of(FEW_SCORES,
                              st.sampled_from([np.nan, np.inf, -np.inf]),
                              st.floats(allow_nan=True)), max_size=80))
    def test_midranks_equal_loop_reference(self, values):
        x = np.array(values, dtype=np.float64)
        assert np.array_equal(_midranks(x), loop_midranks(x))

    @settings(max_examples=50, deadline=None, derandomize=True,
              database=None)
    @given(labelled_scores(st.one_of(FEW_SCORES, st.floats(-1e6, 1e6))))
    def test_matches_mann_whitney_u(self, case):
        stats = pytest.importorskip("scipy.stats")
        labels, scores = case
        u = stats.mannwhitneyu(scores[labels == 1], scores[labels == 0],
                               alternative="two-sided").statistic
        n_pos, n_neg = int(labels.sum()), int((1 - labels).sum())
        assert roc_auc(labels, scores) == pytest.approx(
            u / (n_pos * n_neg), abs=1e-12)
