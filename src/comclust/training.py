"""Training loops: supervised deep clustering (SDC), unsupervised deep
clustering on GMM pseudo-labels (UDC), and the weighted-cross-entropy
classifier baseline, plus triplet sampling and split evaluation."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import gmm as gmm_mod
from .autodiff import backward, grad_of, make_rng
from .dataio import TRAIN, LabeledDataset
from .encoder import AdamConfig, EncoderConfig, ParamStore
from .errors import (InvalidSpecError, MissingClassError,
                     NonFiniteLossError, TooFewSamplesError)
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
    loss_kind: str = LOSS_COM            # "com" or "triplet", for SDC and UDC
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
        if self.loss_kind not in (LOSS_COM, LOSS_TRIPLET):
            raise InvalidSpecError(f"unknown loss kind {self.loss_kind!r}")

    def encoder_config(self, input_dim: int) -> EncoderConfig:
        return EncoderConfig(input_dim, tuple(self.hidden),
                             self.embedding_dim, self.dropout_rate)


@dataclass
class TrainLog:
    """Per-iteration losses, plus prototype separations for SDC and UDC and
    GMM NLLs for UDC (a list a mode does not fill stays empty), and the
    trained parameters."""
    losses: list = field(default_factory=list)
    separations: list = field(default_factory=list)
    gmm_nlls: list = field(default_factory=list)
    prototypes: Prototypes = None
    params: ParamStore = None
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


def sample_triplets(labels: np.ndarray, m: int, rng):
    """Sample M (anchor, positive, negative) index triples.

    Anchors are uniform over the split; P is uniform over the anchor's class
    excluding the anchor itself when the class has more than one member
    (otherwise P = A); N is uniform over the other class.

    The draws are those of a loop over the anchors that draws P, again while
    P = A, then N, each by ``rng.integers(0, class size)``. One call on an
    (M, 2) array of class sizes makes the same draws in C order, and a size
    of 1 draws nothing. When an anchor's P lands on itself, the generator
    goes back to before the call, replays the anchors ahead of it in one
    call, and redraws that anchor as the loop does; the next call starts
    after it.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < C_MAJ or labels.max() > C_MIN):
        raise InvalidSpecError(f"labels must be {C_MAJ} or {C_MIN}")
    sizes = np.bincount(labels, minlength=2)
    for c in (C_MAJ, C_MIN):
        if sizes[c] == 0:
            raise MissingClassError(f"no samples of class {c}")
    by_class = np.argsort(labels, kind="stable")   # class 0's rows, then 1's
    anchors = rng.integers(0, len(labels), size=m)
    own = labels[anchors]
    roles = _P_N_CLASSES[own]
    bounds = sizes[roles]
    offsets = np.array([0, sizes[0]])[roles]       # where each class starts
    drawn = np.empty((m, 2), dtype=int)
    i = 0
    while i < m:
        state = rng.bit_generator.state
        rows = by_class[offsets[i:] + rng.integers(0, bounds[i:])]
        clash = np.flatnonzero((rows[:, 0] == anchors[i:])
                               & (bounds[i:, 0] > 1))
        j = i + clash[0] if len(clash) else m
        drawn[i:j] = rows[:j - i]
        if j == m:
            break
        rng.bit_generator.state = state
        rng.integers(0, bounds[i:j])                # replay up to the clash
        same, other = (by_class[o:o + b]
                       for o, b in zip(offsets[j], bounds[j]))
        p = anchors[j]
        while p == anchors[j]:
            p = same[rng.integers(0, len(same))]
        drawn[j] = p, other[rng.integers(0, len(other))]
        i = j + 1
    positives, negatives = drawn.T.copy()
    return anchors, positives, negatives


def _sample_rows(n: int, k: int, rng) -> np.ndarray:
    """min(k, n) distinct row indices drawn uniformly: a split smaller than
    the batch is used whole, each row once."""
    return rng.choice(n, size=min(k, n), replace=False)


def _batch_loss(loss_kind: str, anchors, positives, negatives):
    """Mean margin-free COM-triplet loss, or traditional triplet loss with
    its constant margin, over (M, S) triplet rows."""
    if loss_kind == LOSS_COM:
        return com_triplet_loss(anchors, positives, negatives)
    return triplet_loss_batch(anchors, positives, negatives)


def _train(x, y, config: TrainConfig, step, head_outputs: int = 0) -> TrainLog:
    """The loop every mode shares.

    Each iteration ``step(rng, param_vars, enc_config)`` samples a batch and
    embeds it, returning (loss, candidate prototype pair or None, GMM NLL or
    None). The loop checks the loss, takes the Adam step, offers the pair to
    the running prototypes and logs the iteration. ``head_outputs`` > 0
    appends a softmax head to the encoder parameters.
    """
    t = _iterations(len(y), config)
    rng = make_rng(config.seed)
    enc_config = config.encoder_config(x.shape[1])
    store = enc.init_encoder_params(enc_config, rng, head_outputs)

    result = TrainLog(params=store, encoder_config=enc_config)
    for it in range(t):
        param_vars = store.wrap()
        loss, pair, gmm_nll = step(rng, param_vars, enc_config)
        value = loss.item()
        if not np.isfinite(value):
            raise NonFiniteLossError(f"loss {value} at iteration {it}")
        backward(loss)
        enc.adam_step(store, [grad_of(p) for p in param_vars], config.adam)
        result.losses.append(value)
        if pair is not None:
            result.prototypes = update_prototypes(result.prototypes, *pair)
            result.separations.append(result.prototypes.separation)
        if gmm_nll is not None:
            result.gmm_nlls.append(gmm_nll)
    return result


def train_sdc(dataset: LabeledDataset, config: TrainConfig) -> TrainLog:
    """Supervised deep clustering.

    Per iteration: sample triplets, embed them, take a COM-triplet (or
    traditional triplet) gradient step, then offer the per-class batch
    centers to the running prototype pair, which only ever moves to a more
    separated pair. A class with a single training sample is its own
    positive (P = A), which is logged once per run.
    """
    x, y = dataset.subset(TRAIN)
    m = config.batch_size
    for c in (C_MAJ, C_MIN):
        if np.count_nonzero(y == c) == 1:
            log.warning("class %d has a single training sample; using P = A",
                        c)

    def step(rng, param_vars, enc_config):
        rows = np.concatenate(sample_triplets(y, m, rng))
        emb = enc.forward(param_vars, enc_config, x[rows],
                          train_mode=True, rng=rng)
        e_a, e_p, e_n = (ad.take_rows(emb, slice(k * m, (k + 1) * m))
                         for k in range(3))
        return (_batch_loss(config.loss_kind, e_a, e_p, e_n),
                batch_centers(emb.value, y[rows]), None)

    return _train(x, y, config, step)


def train_udc(dataset: LabeledDataset, config: TrainConfig) -> TrainLog:
    """Unsupervised deep clustering: labels are ignored.

    Per iteration a batch of 3M samples is embedded, a fresh two-component
    GMM is fitted on those embeddings to produce pseudo-labels, and each
    sample is an anchor whose own component mean is its positive and the
    other mean its negative, under the loss SDC uses. The two means are
    also the candidate prototype pair.
    """
    x, y = dataset.subset(TRAIN)
    m3 = 3 * config.batch_size
    if len(y) < 2 * m3:
        log.warning("training split has %d samples; at least %d recommended "
                    "for UDC batches of %d", len(y), 2 * m3, m3)

    def step(rng, param_vars, enc_config):
        rows = _sample_rows(len(y), m3, rng)
        emb = enc.forward(param_vars, enc_config, x[rows],
                          train_mode=True, rng=rng)
        model = gmm_mod.fit_em(emb.value, seed=int(rng.integers(2 ** 31)))
        k_min = model.labels.minority_component
        pseudo = np.where(model.labels.assignments == k_min, C_MIN, C_MAJ)
        mu_min, mu_maj = model.means[k_min], model.means[1 - k_min]
        loss = _batch_loss(config.loss_kind, emb,
                           *center_rows(pseudo, mu_min, mu_maj))
        return loss, (mu_min, mu_maj), model.nll_trace[-1]

    return _train(x, y, config, step)


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
    for c in (C_MAJ, C_MIN):
        if not np.any(y == c):
            raise MissingClassError(f"no samples of class {c}")

    def step(rng, param_vars, enc_config):
        rows = _sample_rows(len(y), config.batch_size, rng)
        weights = batch_class_weights(y[rows], weighting)
        probs = enc.classify(param_vars, enc_config, x[rows],
                             train_mode=True, rng=rng)
        return weighted_cross_entropy(y[rows], probs, weights), None, None

    return _train(x, y, config, step, head_outputs=enc.HEAD_OUTPUTS)


def evaluate_prototypes(params: ParamStore, enc_config: EncoderConfig,
                        proto: Prototypes, x, y) -> dict:
    """Prototype-distance inference over a split: per-sample labels and
    scores plus aggregate weighted metrics and AUC (when both classes are
    present)."""
    emb = enc.embed(params, enc_config, x)
    preds, d_min, d_maj = infer_label(emb, proto)
    scores = malignancy_score(d_min, d_maj)
    return _aggregate(np.asarray(y, dtype=int), preds, scores)


def evaluate_classifier(params: ParamStore, enc_config: EncoderConfig,
                        x, y) -> dict:
    """Softmax-head inference over a split, scored like
    ``evaluate_prototypes`` with the minority probability as the score."""
    probs = enc.predict_minority(params, enc_config, x)
    preds = (probs >= 0.5).astype(int)
    return _aggregate(np.asarray(y, dtype=int), preds, probs)


def _aggregate(y: np.ndarray, preds: np.ndarray, scores: np.ndarray) -> dict:
    """Score one split; a non-finite score (an embedding or logit that
    overflowed) raises NonFiniteLossError rather than being ranked."""
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise NonFiniteLossError(f"{bad} of {len(scores)} scores are not "
                                 f"finite")
    out = weighted_metrics(y, preds)
    out["auc"] = (roc_auc(y, scores)
                  if len(np.unique(y)) == 2 else None)
    return {"metrics": out,
            "predictions": preds.tolist(),
            "scores": scores.tolist()}


def best_permutation_accuracy(y_true, y_pred) -> float:
    """Clustering accuracy up to label permutation (for unsupervised runs)."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    direct = float(np.mean(y_true == y_pred))
    flipped = float(np.mean(y_true == 1 - y_pred))
    return max(direct, flipped)
