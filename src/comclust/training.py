"""Training loops: supervised deep clustering (SDC), unsupervised deep
clustering on GMM pseudo-labels (UDC), and the weighted-cross-entropy
classifier baseline, plus triplet sampling and split evaluation, whose one
block path keeps every row's bits independent of its batch."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import encoder as enc
from . import gmm as gmm_mod
from .autodiff import backward, grad_of, make_rng
from .dataio import TRAIN, LabeledDataset
from .encoder import AdamConfig, EncoderConfig
from .errors import (ComclustError, InvalidSpecError, MissingClassError,
                     NonFiniteLossError, TooFewSamplesError, ZeroVectorError)
# udc_com_loss goes unused: perfbench's layer trace hooks it by this name
from .losses import (C_MAJ, C_MIN, ClassWeights, center_rows,
                     com_triplet_loss, triplet_loss_batch, udc_com_loss,
                     weighted_cross_entropy)
from .metrics import roc_auc, weighted_metrics
from .prototypes import (Prototypes, batch_centers, infer_label,
                         malignancy_score, update_prototypes)

log = logging.getLogger(__name__)

LOSS_COM = "com"
LOSS_TRIPLET = "triplet"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 15
    epochs: int = 15
    seed: int = 0
    adam: AdamConfig = AdamConfig()
    hidden: tuple = (64, 64)
    embedding_dim: int = 32
    dropout_rate: float = 0.3

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidSpecError("batch_size must be >= 1")
        if self.epochs < 1:
            raise InvalidSpecError("epochs must be >= 1")

    def encoder_config(self, input_dim: int) -> EncoderConfig:
        return EncoderConfig(input_dim, tuple(self.hidden),
                             self.embedding_dim, self.dropout_rate)


@dataclass
class TrainLog:
    """Per-iteration losses, plus prototype separations for SDC and UDC and
    GMM NLLs for UDC (a list a mode does not fill stays empty), and the
    trained parameter arrays, in ``encoder.param_shapes`` order."""
    losses: list = field(default_factory=list)
    separations: list = field(default_factory=list)
    gmm_nlls: list = field(default_factory=list)
    prototypes: Prototypes = None
    params: list = None
    encoder_config: EncoderConfig = None


def _iterations(n_train: int, config: TrainConfig) -> int:
    t = config.epochs * (n_train // config.batch_size)
    if t < 1:
        raise TooFewSamplesError(
            f"{n_train} training samples with batch size {config.batch_size} "
            f"and {config.epochs} epochs give zero iterations")
    return t


# row c: the classes of P and N for an anchor of class c
_P_N_CLASSES = np.array([[C_MAJ, C_MIN], [C_MIN, C_MAJ]])


class ClassLayout(NamedTuple):
    """What the triplet sampler reads of a split's labels: the labels, the
    class sizes, the row indices in stable class order (class 0's rows,
    then class 1's), where each class starts in that order, and each row's
    rank, its position within its class's stretch of that order."""
    labels: np.ndarray
    sizes: np.ndarray
    by_class: np.ndarray
    starts: np.ndarray
    ranks: np.ndarray


def class_layout(labels) -> ClassLayout:
    """The sampler's layout of ``labels``, which must hold both classes and
    nothing else: every mode's class check of its training split."""
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < C_MAJ or labels.max() > C_MIN):
        raise InvalidSpecError(f"labels must be {C_MAJ} or {C_MIN}")
    sizes = np.bincount(labels, minlength=2)
    for c in (C_MAJ, C_MIN):
        if sizes[c] == 0:
            raise MissingClassError(f"no samples of class {c}")
    by_class = np.argsort(labels, kind="stable")
    starts = np.array([0, sizes[0]])
    ranks = np.empty_like(by_class)
    ranks[by_class] = np.arange(len(labels)) - starts[labels[by_class]]
    return ClassLayout(labels, sizes, by_class, starts, ranks)


def sample_triplets(layout: ClassLayout, m: int, rng):
    """Sample M (anchor, positive, negative) index triples from the labels
    of ``layout`` (``class_layout``).

    Anchors are uniform over the split; P is uniform over the anchor's class
    excluding the anchor itself when the class has more than one member
    (otherwise P = A); N is uniform over the other class.

    Two draws: the anchors, then one ``rng.integers`` call on an (M, 2)
    array holding each anchor's P bound (its class size less one, or 1 for
    a single-row class) and N bound (the other class's size). A bound of 1
    draws nothing. A P draw at or past the anchor's rank moves up one row,
    so P ranges over the class without the anchor.
    """
    labels, sizes, by_class, starts, ranks = layout
    anchors = rng.integers(0, len(labels), size=m)
    roles = _P_N_CLASSES[labels[anchors]]
    bounds = sizes[roles] - [1, 0]
    drawn = rng.integers(0, np.maximum(bounds, 1))
    drawn[:, 0] += (drawn[:, 0] >= ranks[anchors]) & (bounds[:, 0] > 0)
    positives, negatives = by_class[starts[roles] + drawn].T.copy()
    return anchors, positives, negatives


def _sample_rows(n: int, k: int, rng) -> np.ndarray:
    """min(k, n) distinct row indices drawn uniformly: a split smaller than
    the batch is used whole, each row once."""
    return rng.choice(n, size=min(k, n), replace=False)


def _batch_loss(loss_kind: str):
    """The batch loss of ``loss_kind``, mean margin-free COM-triplet loss or
    traditional triplet loss with its constant margin, over (M, S) triplet
    rows: A, P and N, or one stacked (3M, S) embedding."""
    if loss_kind not in (LOSS_COM, LOSS_TRIPLET):
        raise InvalidSpecError(f"unknown loss kind {loss_kind!r}")
    return com_triplet_loss if loss_kind == LOSS_COM else triplet_loss_batch


def _train(x, y, config: TrainConfig, step, head_outputs: int = 0) -> TrainLog:
    """The loop every mode shares.

    Each iteration ``step(rng, param_vars, enc_config)`` samples a batch and
    embeds it, returning (loss, candidate prototype pair or None, GMM NLL or
    None). The loop checks the loss, takes the Adam step, offers the pair to
    the running prototypes and logs the iteration. A library error on the
    way, a non-finite loss included, ends the loop with its message and
    `` at iteration N``; an embedding row that collapsed to zero names the
    iteration before the message. ``head_outputs`` > 0 appends a softmax
    head to the encoder parameters.
    """
    t = _iterations(len(y), config)
    rng = make_rng(config.seed)
    enc_config = config.encoder_config(x.shape[1])
    store = enc.init_encoder_params(enc_config, rng, head_outputs)

    result = TrainLog(params=store.arrays, encoder_config=enc_config)
    for it in range(t):
        try:
            param_vars = store.wrap()
            loss, pair, gmm_nll = step(rng, param_vars, enc_config)
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLossError(f"loss {value}")
            backward(loss)
            enc.adam_step(store, [grad_of(p) for p in param_vars], config.adam)
            result.losses.append(value)
            if pair is not None:
                result.prototypes = update_prototypes(result.prototypes, *pair)
                result.separations.append(result.prototypes.separation)
            if gmm_nll is not None:
                result.gmm_nlls.append(gmm_nll)
        except ZeroVectorError as exc:
            raise ZeroVectorError(f"an embedding row collapsed to zero at "
                                  f"iteration {it}: {exc}") from None
        except ComclustError as exc:
            raise type(exc)(f"{exc} at iteration {it}") from None
    return result


def train_sdc(dataset: LabeledDataset, config: TrainConfig,
              loss_kind: str = LOSS_COM) -> TrainLog:
    """Supervised deep clustering.

    Per iteration: sample triplets, embed them, take a ``loss_kind``
    (COM-triplet or traditional triplet) gradient step, then offer the
    per-class batch centers to the running prototype pair, which only ever
    moves to a more separated pair. A class with a single training sample
    is its own positive (P = A), which is logged once per run.
    """
    batch_loss = _batch_loss(loss_kind)
    x, y = dataset.subset(TRAIN)
    layout = class_layout(y)
    _iterations(len(y), config)     # a refused run warns of nothing
    for c in (C_MAJ, C_MIN):
        if layout.sizes[c] == 1:
            log.warning("class %d has a single training sample; using P = A",
                        c)

    def step(rng, param_vars, enc_config):
        rows = np.concatenate(sample_triplets(layout, config.batch_size, rng))
        emb = enc.forward(param_vars, enc_config, x[rows],
                          train_mode=True, rng=rng)
        return batch_loss(emb), batch_centers(emb.value, y[rows]), None

    return _train(x, y, config, step)


def udc_batch_rows(config: TrainConfig) -> int:
    """UDC's 3M batch rows, refused when ``fit_em`` cannot fit so few."""
    m3, least = 3 * config.batch_size, gmm_mod.EM_MIN_SAMPLES
    if m3 < least:
        raise InvalidSpecError(f"batch_size {config.batch_size} gives UDC's "
                               f"GMM {m3} rows, below fit_em's {least}")
    return m3


def train_udc(dataset: LabeledDataset, config: TrainConfig,
              loss_kind: str = LOSS_COM) -> TrainLog:
    """Unsupervised deep clustering: labels are ignored.

    Per iteration a batch of 3M samples is embedded and a fresh
    two-component GMM is fitted on those embeddings. The GMM knows no
    classes: ``_minority_component`` picks the component that stands for
    the rare class, and a sample's pseudo-class is whether its argmax
    posterior is that component. Each sample is an anchor whose own
    pseudo-class mean is its positive and the other mean its negative
    (``center_rows``), under the batch loss of ``loss_kind`` that SDC
    takes; the minority mean leads the candidate prototype pair.
    """
    batch_loss = _batch_loss(loss_kind)
    m3 = udc_batch_rows(config)
    x, y = dataset.subset(TRAIN)
    _iterations(len(y), config)     # a refused run warns of nothing
    if len(y) < 2 * m3:
        log.warning("training split has %d samples; at least %d recommended "
                    "for UDC batches of %d", len(y), 2 * m3, m3)

    def step(rng, param_vars, enc_config):
        rows = _sample_rows(len(y), m3, rng)
        emb = enc.forward(param_vars, enc_config, x[rows],
                          train_mode=True, rng=rng)
        model = gmm_mod.fit_em(emb.value, seed=int(rng.integers(2 ** 31)))
        k = _minority_component(model.weights, model.assignments)
        pair = model.means[k], model.means[1 - k]
        loss = batch_loss(emb, *center_rows(model.assignments == k, *pair))
        return loss, pair, model.nll_trace[-1]

    return _train(x, y, config, step)


def _minority_component(weights, assignments) -> int:
    """The GMM component standing in for the rare class: the smaller
    weight, tie-broken by fewer assigned rows, then by index 0. The paper
    does not say how components map to classes, so this is a deliberate
    policy."""
    if abs(weights[0] - weights[1]) > 1e-12:
        return int(np.argmin(weights))
    counts = np.bincount(assignments, minlength=2)
    if counts[0] != counts[1]:
        return int(np.argmin(counts))
    return 0


EQUAL = "equal"
INVERSE_FREQUENCY = "inverse-frequency"


def batch_class_weights(batch_labels: np.ndarray, weighting: str) -> ClassWeights:
    """Per-iteration class weights. inverse-frequency sets w_c proportional
    to batch_size / (2 * count_c); a batch missing a class falls back to
    equal weights."""
    if weighting == EQUAL:
        return ClassWeights(1.0, 1.0)
    n = len(batch_labels)
    n_min = int(np.sum(batch_labels == C_MIN))
    n_maj = n - n_min
    if n_min == 0 or n_maj == 0:
        return ClassWeights(1.0, 1.0)
    return ClassWeights(w_min=n / (2.0 * n_min), w_maj=n / (2.0 * n_maj))


def train_classifier(dataset: LabeledDataset, config: TrainConfig,
                     weighting: str = INVERSE_FREQUENCY) -> TrainLog:
    """Direct-classifier baseline: the same encoder topped with a 2-output
    softmax head, trained with (optionally inverse-frequency weighted)
    cross-entropy. ``params`` of the returned log hold the encoder's arrays
    followed by the head's."""
    if weighting not in (EQUAL, INVERSE_FREQUENCY):
        raise InvalidSpecError(f"unknown weighting {weighting!r}")
    x, y = dataset.subset(TRAIN)
    class_layout(y)                 # refuses a split missing a class

    def step(rng, param_vars, enc_config):
        rows = _sample_rows(len(y), config.batch_size, rng)
        weights = batch_class_weights(y[rows], weighting)
        probs = enc.classify(param_vars, enc_config, x[rows],
                             train_mode=True, rng=rng)
        return weighted_cross_entropy(y[rows], probs, weights), None, None

    return _train(x, y, config, step, head_outputs=enc.HEAD_OUTPUTS)


# Inference runs in blocks of at most this many rows, so that a layer's
# input and output, (1024, 64) float64 or 512 KiB each at the default widths,
# stay in a 2 MiB L2 instead of streaming (N, 64) arrays through memory.
# Blocks of 1024 embedded eval-bulk's 100k rows faster than 2048 or 4096.
INFER_BLOCK_ROWS = 1024


def _evaluate(params: list, config: EncoderConfig,
              proto: Prototypes | None, x, y) -> dict:
    """Score a split by the prototypes or, with ``proto`` None, the head,
    each block of at most INFER_BLOCK_ROWS rows through the model alone. A
    lone row runs as two copies (gemv's bits differ from gemm's) and each
    output width 1-4 above a multiple of 8 can vary with the batch, so it is
    zero-padded to one: on OpenBLAS 0.3.31 (Haswell kernel, 1 and 2 threads)
    the padded stacks (8, 12, 10), (8, 16, 12, 10), (8, 64, 64, 32, 2) and
    (5, 9, 13, 2) had 0 batch-dependent rows over blocks of 2-1024 rows."""
    arrays, pad_in = [], 0
    for w, b in zip(params[::2], params[1::2]):
        pad_out = -w.shape[1] % 8       # the next W gets pad_out zero rows
        arrays += [np.pad(w, ((0, pad_in), (0, pad_out))),
                   np.pad(b, (0, pad_out))]
        pad_in = pad_out
    preds, scores = np.empty(len(x), dtype=int), np.empty(len(x))
    for start in range(0, len(x), INFER_BLOCK_ROWS):
        block = x[start:start + INFER_BLOCK_ROWS]
        n = len(block)
        rows = block if n > 1 else np.repeat(block, 2, axis=0)
        if proto is None:
            probs = enc.classify(arrays, config, rows)
            labels = (probs >= 0.5).astype(int)
        else:                   # the padding's zero columns are sliced off
            emb = enc.embed(arrays, config, rows)[:, :config.embedding_dim]
            labels, d_min, d_maj = infer_label(emb, proto)
            probs = malignancy_score(d_min, d_maj)
        preds[start:start + n], scores[start:start + n] = labels[:n], probs[:n]
    return _aggregate(np.asarray(y, dtype=int), preds, scores)


def evaluate_prototypes(params: list, enc_config: EncoderConfig,
                        proto: Prototypes, x, y) -> dict:
    """Prototype-distance inference over a split: (N,) labels and scores,
    weighted metrics, and AUC (None for a split of one class)."""
    return _evaluate(params, enc_config, proto, x, y)


def evaluate_classifier(params: list, enc_config: EncoderConfig,
                        x, y) -> dict:
    """Softmax-head inference over a split, scored by minority probability."""
    return _evaluate(params, enc_config, None, x, y)


def _aggregate(y: np.ndarray, preds: np.ndarray, scores: np.ndarray) -> dict:
    """Score one split, keeping its (N,) arrays; a non-finite score (an
    embedding or logit that overflowed) raises NonFiniteLossError."""
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise NonFiniteLossError(f"{bad} of {len(scores)} scores are not "
                                 f"finite")
    out = weighted_metrics(y, preds)
    # exactly two distinct labels: its least and greatest, and no other
    lo, hi = y.min(), y.max()
    out["auc"] = (roc_auc(y, scores)
                  if lo != hi and not ((y != lo) & (y != hi)).any() else None)
    return {"metrics": out, "predictions": preds, "scores": scores}


def best_permutation_accuracy(y_true, y_pred) -> float:
    """Clustering accuracy up to label permutation (for unsupervised runs)."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    direct = float(np.mean(y_true == y_pred))
    flipped = float(np.mean(y_true == 1 - y_pred))
    return max(direct, flipped)
