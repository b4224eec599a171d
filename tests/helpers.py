"""Plain helpers shared by test modules (fixtures live in conftest.py)."""

import json

import numpy as np

from comclust.errors import MissingClassError
from comclust.losses import C_MAJ, C_MIN


def load_results(path) -> dict:
    """A results record, evaluation or checkpoint as the JSON it holds."""
    with open(path) as fh:
        return json.load(fh)


def sample_triplets_loop(layout, m, rng):
    """``training.sample_triplets`` as a loop over the anchors, one scalar
    draw at a time: the oracle whose triples and generator state the array
    sampler must reproduce. It reads only the labels of ``layout`` and
    finds each class's rows itself."""
    labels = np.asarray(layout.labels, dtype=int)
    by_class = {c: np.flatnonzero(labels == c) for c in (C_MAJ, C_MIN)}
    for c, idx in by_class.items():
        if len(idx) == 0:
            raise MissingClassError(f"no samples of class {c}")
    anchors = rng.integers(0, len(labels), size=m)
    positives = np.empty(m, dtype=int)
    negatives = np.empty(m, dtype=int)
    for i, a in enumerate(anchors):
        same = by_class[labels[a]]
        other = by_class[1 - labels[a]]
        if len(same) == 1:
            positives[i] = a
        else:
            p = same[rng.integers(0, len(same))]
            while p == a:
                p = same[rng.integers(0, len(same))]
            positives[i] = p
        negatives[i] = other[rng.integers(0, len(other))]
    return anchors, positives, negatives
