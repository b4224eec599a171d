"""Shared test fixtures: ``composed``, reference graphs built from
comclust's elementary autodiff primitives.

Each function here is what a fused node or an in-place step replaces:
``dense`` is one layer of ``dense_stack`` as ``mul``/``matmul``/``add``/
``relu``, the batch losses are ``row_cosine_distance``/``sub``/``scale``/
``add``/``relu``/``mean`` (a stacked (3M, S) batch split by ``take_rows``),
and ``forward``, ``minority_probability``, ``adam_step`` and
``update_prototypes`` are the training step's pieces written that way. The
fused versions must give the same bits.
"""

import sys

import numpy as np
import pytest

from comclust import autodiff as ad
from comclust.encoder import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                              param_shapes)
from comclust.errors import InvalidSpecError
from comclust.losses import TRIPLET_MARGIN
from comclust.prototypes import Prototypes


@pytest.fixture(scope="session")
def composed():
    """This module: the reference graphs, by the names they replace."""
    return sys.modules[__name__]


def dense(h, w, b, relu, in_mask=None):
    if in_mask is not None:
        h = ad.mul(h, in_mask)
    z = ad.add(ad.matmul(h, w), b)
    return ad.relu(z) if relu else z


def _blocks(anchors, positives, negatives):
    """A, P and N: a stacked (3M, S) batch's row blocks, gathered by the
    module's ``take_rows`` (a test may replace it), or the three given."""
    if positives is None and negatives is None:
        m = len(ad.value_of(anchors)) // 3
        return [ad.take_rows(anchors, np.arange(k * m, (k + 1) * m))
                for k in range(3)]
    return anchors, positives, negatives


def com_triplet_loss(anchors, positives=None, negatives=None):
    anchors, positives, negatives = _blocks(anchors, positives, negatives)
    d_ap = ad.row_cosine_distance(anchors, positives)
    d_an = ad.row_cosine_distance(anchors, negatives)
    d_pn = ad.row_cosine_distance(positives, negatives)
    wa = ad.sub(d_ap, ad.scale(ad.add(d_an, d_pn), 0.5))
    return ad.mean(ad.relu(ad.add(wa, ad.sub(1.0, d_pn))))


def triplet_loss_batch(anchors, positives=None, negatives=None):
    anchors, positives, negatives = _blocks(anchors, positives, negatives)
    hinge = ad.add(ad.sub(ad.row_cosine_distance(anchors, positives),
                          ad.row_cosine_distance(anchors, negatives)),
                   TRIPLET_MARGIN)
    return ad.mean(ad.relu(hinge))


# the gather is elementary already: the reference is the primitive itself,
# bound here so that a test replacing ``ad.take_rows`` can still call it
take_rows = ad.take_rows


def forward(param_vars, config, x_batch, train_mode=False, rng=None):
    h = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
    n_layers = len(param_shapes(config)) // 2
    for layer in range(n_layers):
        w, b = param_vars[2 * layer], param_vars[2 * layer + 1]
        last = layer == n_layers - 1
        if last and train_mode and config.dropout_rate > 0.0:
            if rng is None:
                raise InvalidSpecError("train-mode dropout needs an rng")
            keep = 1.0 - config.dropout_rate
            mask = (rng.random(ad.value_of(h).shape) < keep) / keep
            h = ad.mul(h, mask)
        h = ad.add(ad.matmul(h, w), b)
        if not last:
            h = ad.relu(h)
    return h


def minority_probability(head_vars, embeddings):
    logits = ad.add(ad.matmul(embeddings, head_vars[0]), head_vars[1])
    zs = ad.value_of(logits)
    zdiff = zs[:, 1] - zs[:, 0]
    e = np.exp(-np.abs(zdiff))
    p = np.where(zdiff >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        dz = g * p * (1.0 - p)
        return (np.stack([-dz, dz], axis=1),)

    return ad.node(p, (logits,), vjp)


def adam_step(store, grads, config):
    """Adam with fresh moment arrays each step (no validation)."""
    g = np.concatenate([np.ravel(g) for g in grads], dtype=np.float64)
    store.step += 1
    t = store.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    store.m = b1 * store.m + (1 - b1) * g
    store.v = b2 * store.v + (1 - b2) * g * g
    m_hat = store.m / (1 - b1 ** t)
    v_hat = store.v / (1 - b2 ** t)
    store.flat -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def update_prototypes(current, cl_min_cand, cl_maj_cand):
    """Builds the candidate pair before comparing."""
    a = np.asarray(cl_min_cand, dtype=np.float64)
    b = np.asarray(cl_maj_cand, dtype=np.float64)
    candidate = Prototypes(a, b, ad.cosine_distance(a, b))
    if current is None or candidate.separation > current.separation:
        return candidate
    return current
