"""Training objectives: traditional triplet, center-oriented margin-free
(COM) triplet, its cluster-center form for pseudo-labeled training, and
weighted cross-entropy.

The batch losses take (M, S) operands, one triplet or anchor per row, and
are built from a few array ops on ``row_cosine_distance``: the per-row
hinge argument, one ReLU, and a mean. The single-triplet functions
(``triplet_loss``, ``com_dist_wa``, ...) take 1-D vectors and serve as the
per-row definitions. Both kinds follow the tape rule of ``autodiff``.
Distances are cosine distances, so all losses are invariant to positive
rescaling of any embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import cosine_distance, row_cosine_distance
from .errors import EmptyBatchError, InvalidSpecError, ShapeMismatchError

PROB_CLAMP = 1e-12
TRIPLET_MARGIN = 0.2        # the traditional triplet loss's constant margin

C_MAJ = 0
C_MIN = 1


@dataclass(frozen=True)
class MarginSpec:
    """Margin policy for triplet-style losses.

    mode="constant" uses the fixed ``alpha``; mode="adaptive" derives the
    margin from the positive-negative separation of each triplet.
    """
    mode: str = "adaptive"
    alpha: float = TRIPLET_MARGIN

    def __post_init__(self):
        if self.mode not in ("constant", "adaptive"):
            raise InvalidSpecError(f"unknown margin mode {self.mode!r}")
        if self.mode == "constant" and not (0.0 <= self.alpha <= 2.0):
            raise InvalidSpecError(
                f"constant margin {self.alpha} outside [0, 2]")


@dataclass(frozen=True)
class ClassWeights:
    w_min: float = 1.0
    w_maj: float = 1.0

    def __post_init__(self):
        if not (self.w_min > 0 and self.w_maj > 0
                and np.isfinite(self.w_min) and np.isfinite(self.w_maj)):
            raise InvalidSpecError("class weights must be finite and positive")


def _wa(d_own, d_other, d_cc):
    """Within- vs across-cluster term d_own - 0.5 * (d_other + d_cc)."""
    return ad.sub(d_own, ad.scale(ad.add(d_other, d_cc), 0.5))


def _triplet_hinge(d_ap, d_an, alpha: float):
    return ad.relu(ad.add(ad.sub(d_ap, d_an), alpha))


def triplet_loss(e_a, e_p, e_n, alpha: float):
    """Classic triplet hinge: max(0, d(A,P) - d(A,N) + alpha)."""
    return _triplet_hinge(cosine_distance(e_a, e_p),
                          cosine_distance(e_a, e_n), alpha)


def com_dist_wa(e_a, e_p, e_n):
    """Within- vs across-cluster term: d(A,P) - 0.5*(d(A,N) + d(P,N))."""
    return _wa(cosine_distance(e_a, e_p), cosine_distance(e_a, e_n),
               cosine_distance(e_p, e_n))


def com_adaptive_margin(e_p, e_n):
    """Adaptive margin 1 - d(P,N); negative once the pair is separated
    past orthogonality, which relaxes the constraint."""
    return ad.sub(1.0, cosine_distance(e_p, e_n))


def com_triplet_loss(anchors, positives, negatives, margin: MarginSpec):
    """Mean COM-triplet hinge over a batch of M triplets.

    ``anchors``/``positives``/``negatives`` are (M, S) arrays or Vars; row i
    of each forms one triplet.
    """
    _batch_len(anchors, positives, negatives)
    d_ap = row_cosine_distance(anchors, positives)
    d_an = row_cosine_distance(anchors, negatives)
    d_pn = row_cosine_distance(positives, negatives)
    bound = ad.sub(1.0, d_pn) if margin.mode == "adaptive" else margin.alpha
    return ad.mean(ad.relu(ad.add(_wa(d_ap, d_an, d_pn), bound)))


def triplet_loss_batch(anchors, positives, negatives, alpha: float):
    """Mean traditional triplet hinge over a batch (ablation baseline)."""
    _batch_len(anchors, positives, negatives)
    hinge = _triplet_hinge(row_cosine_distance(anchors, positives),
                           row_cosine_distance(anchors, negatives), alpha)
    return ad.mean(hinge)


def udc_adaptive_margin(mu_min, mu_maj):
    """Pseudo-label margin: 1 - d(mu_min, mu_maj)."""
    return com_adaptive_margin(mu_min, mu_maj)


def udc_dist_wa(e_a, mu_min, mu_maj, pseudo_class: int):
    """Center-based within/across term for a single anchor.

    The anchor's own cluster center plays the positive role and the other
    center the negative role, per the anchor's pseudo-class.
    """
    own, other = (mu_min, mu_maj) if pseudo_class == C_MIN else (mu_maj, mu_min)
    return _wa(cosine_distance(e_a, own), cosine_distance(e_a, other),
               cosine_distance(mu_min, mu_maj))


def center_rows(pseudo_classes, mu_min, mu_maj):
    """(M, S) rows of each anchor's own cluster center and of the other
    center, per the anchors' pseudo-classes."""
    minority = (np.asarray(pseudo_classes, dtype=int) == C_MIN)[:, None]
    return (np.where(minority, mu_min, mu_maj),
            np.where(minority, mu_maj, mu_min))


def udc_com_loss(anchors, pseudo_classes, mu_min, mu_maj, margin: MarginSpec):
    """``com_triplet_loss`` over a pseudo-labeled batch, with each anchor's
    own cluster center as its positive and the other center as its negative
    (``center_rows``). The centers ``mu_min``/``mu_maj`` are constant (S,)
    arrays; with mode="adaptive" the margin is 1 - d(mu_min, mu_maj).
    """
    return com_triplet_loss(anchors,
                            *center_rows(pseudo_classes, mu_min, mu_maj),
                            margin)


def weighted_cross_entropy(labels, probs, weights: ClassWeights):
    """Class-weighted binary cross-entropy over predicted minority
    probabilities. Probabilities are clamped to [1e-12, 1 - 1e-12] before
    the log."""
    labels = np.asarray(labels, dtype=np.float64)
    pvals = ad.value_of(probs)
    if labels.shape != pvals.shape or labels.ndim != 1:
        raise ShapeMismatchError(
            f"labels {labels.shape} vs probs {pvals.shape}")
    n = labels.size
    if n == 0:
        raise EmptyBatchError("empty cross-entropy batch")
    p = np.clip(pvals, PROB_CLAMP, 1.0 - PROB_CLAMP)
    per = -(weights.w_min * labels * np.log(p)
            + weights.w_maj * (1.0 - labels) * np.log(1.0 - p))

    def vjp(g):
        g = float(g)
        inside = (pvals > PROB_CLAMP) & (pvals < 1.0 - PROB_CLAMP)
        dp = (-weights.w_min * labels / p
              + weights.w_maj * (1.0 - labels) / (1.0 - p)) / n
        return (g * np.where(inside, dp, 0.0),)

    return ad.node(float(per.mean()), (probs,), vjp)


def _batch_len(*xs) -> int:
    """Rows M shared by the (M, S) batches ``xs``."""
    shapes = [ad.value_of(x).shape for x in xs]
    if len(shapes[0]) != 2 or shapes[0][0] < 1:
        raise EmptyBatchError(f"expected non-empty (M, S) batch, got {shapes[0]}")
    if any(shape != shapes[0] for shape in shapes):
        raise ShapeMismatchError(f"batch shapes differ: {shapes}")
    return shapes[0][0]
