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
    sampler must reproduce. It reads only the labels of ``layout``, finds
    each class's rows itself and draws P from the anchor's class without
    the anchor (a single-row class gives P = A, drawing nothing), then N
    from the other class."""
    labels = np.asarray(layout.labels, dtype=int)
    by_class = {c: np.flatnonzero(labels == c) for c in (C_MAJ, C_MIN)}
    for c, idx in by_class.items():
        if len(idx) == 0:
            raise MissingClassError(f"no samples of class {c}")
    anchors = rng.integers(0, len(labels), size=m)
    positives = np.empty(m, dtype=int)
    negatives = np.empty(m, dtype=int)
    for i, a in enumerate(anchors):
        rest = by_class[labels[a]][by_class[labels[a]] != a]
        other = by_class[1 - labels[a]]
        positives[i] = rest[rng.integers(0, len(rest))] if len(rest) else a
        negatives[i] = other[rng.integers(0, len(other))]
    return anchors, positives, negatives
