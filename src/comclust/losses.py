"""Training objectives: traditional triplet, center-oriented margin-free
(COM) triplet, its cluster-center form for pseudo-labeled training, and
weighted cross-entropy.

The batch losses take (M, S) operands, one triplet or anchor per row, or
SDC's one (3M, S) embedding whose row blocks are A, P and N. Each is one
graph node over a (3, M, S) array of those blocks: its cosine distances
(one ``autodiff.row_cosine_with_vjp`` over every pair of blocks the loss
measures, each row's norm taken once), per-row hinge, ReLU and mean, with
one vector-Jacobian product, evaluated in the order the composed
primitives would take, so value and gradients keep their bits. The
single-triplet functions (``triplet_loss``, ``com_dist_wa``,
``com_adaptive_margin``) take 1-D vectors, are composed from primitives,
and serve as the per-row definitions; a pseudo-labeled anchor's row is
``com_dist_wa`` with its own cluster center as P and the other as N. Both
kinds follow the tape rule of ``autodiff``.
COM-triplet is margin-free: its only bound is the adaptive 1 - d(P, N) of
each triplet. The traditional triplet loss's constant margin is
``TRIPLET_MARGIN``.
Distances are cosine distances, so all losses are invariant to positive
rescaling of any embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import cosine_distance
from .errors import (EmptyBatchError, InvalidSpecError, ShapeMismatchError,
                     ZeroVectorError)

PROB_CLAMP = 1e-12
TRIPLET_MARGIN = 0.2        # the traditional triplet loss's constant margin

C_MAJ = 0
C_MIN = 1


@dataclass(frozen=True)
class ClassWeights:
    w_min: float = 1.0
    w_maj: float = 1.0

    def __post_init__(self):
        if not (self.w_min > 0 and self.w_maj > 0
                and np.isfinite(self.w_min) and np.isfinite(self.w_maj)):
            raise InvalidSpecError("class weights must be finite and positive")


def triplet_loss(e_a, e_p, e_n, alpha: float):
    """Classic triplet hinge: max(0, d(A,P) - d(A,N) + alpha)."""
    return ad.relu(ad.add(ad.sub(cosine_distance(e_a, e_p),
                                 cosine_distance(e_a, e_n)), alpha))


def com_dist_wa(e_a, e_p, e_n):
    """Within- vs across-cluster term: d(A,P) - 0.5*(d(A,N) + d(P,N))."""
    across = ad.add(cosine_distance(e_a, e_n), cosine_distance(e_p, e_n))
    return ad.sub(cosine_distance(e_a, e_p), ad.scale(across, 0.5))


def com_adaptive_margin(e_p, e_n):
    """Adaptive margin 1 - d(P,N); negative once the pair is separated
    past orthogonality, which relaxes the constraint."""
    return ad.sub(1.0, cosine_distance(e_p, e_n))


# each batch loss's cosine pairs, as indices into its (3, M, S) A, P and N
# row blocks: COM's (A, P), (A, N), (P, N), the triplet loss's first two
_COM_U, _COM_V = np.array([0, 0, 1]), np.array([1, 2, 2])
_TRIPLET_U, _TRIPLET_V = _COM_U[:2], _COM_V[:2]


def com_triplet_loss(anchors, positives=None, negatives=None):
    """Mean COM-triplet hinge over a batch of M triplets, with the adaptive
    bound 1 - d(P, N) of each triplet, its only margin.

    ``anchors``/``positives``/``negatives`` are (M, S) arrays or Vars; row i
    of each forms one triplet. Plain positives and negatives (UDC's center
    rows) are constant leaves, whose grad stays None. With ``positives``
    and ``negatives`` left out, ``anchors`` is one (3M, S) embedding whose
    row blocks are A, P and N (SDC's batch), and the loss node has it as
    its only parent.
    """
    blocks = _triplet_blocks(anchors, positives, negatives)
    (d_ap, d_an, d_pn), vjp = _pair_cosines(blocks, _COM_U, _COM_V)
    # com_dist_wa's term plus the bound 1 - d(P, N)
    hinge = (d_ap - (d_an + d_pn) * 0.5) + (1.0 - d_pn)
    active = hinge > 0.0

    def grads(g):
        gd = np.empty((3, len(active)))
        gd[0] = g / len(active) * active
        gd[1] = -gd[0] * 0.5
        gd[2] = -gd[0] + gd[1]
        gu, gv = vjp(gd)
        full = np.empty_like(blocks)
        np.add(gu[0], gu[1], out=full[0])
        np.add(gv[0], gu[2], out=full[1])
        np.add(gv[1], gv[2], out=full[2])
        return full

    return _loss_node(np.where(active, hinge, 0.0).mean(),
                      (anchors, positives, negatives), grads)


def triplet_loss_batch(anchors, positives=None, negatives=None):
    """Mean traditional triplet hinge over a batch (ablation baseline) with
    the constant margin ``TRIPLET_MARGIN``, as one graph node like
    ``com_triplet_loss``, whose operands it takes in either form."""
    blocks = _triplet_blocks(anchors, positives, negatives)
    (d_ap, d_an), vjp = _pair_cosines(blocks, _TRIPLET_U, _TRIPLET_V)
    hinge = (d_ap - d_an) + TRIPLET_MARGIN
    active = hinge > 0.0

    def grads(g):
        gd = np.empty((2, len(active)))
        gd[0] = g / len(active) * active
        gd[1] = -gd[0]
        gu, gv = vjp(gd)
        full = np.empty_like(blocks)
        np.add(gu[0], gu[1], out=full[0])
        full[1:] = gv
        return full

    return _loss_node(np.where(active, hinge, 0.0).mean(),
                      (anchors, positives, negatives), grads)


def _triplet_blocks(anchors, positives, negatives) -> np.ndarray:
    """A batch loss's operands as one plain (3, M, S) array of its A, P and
    N row blocks: a (3M, S) ``anchors`` alone reshaped, or the three given
    concatenated."""
    if positives is None and negatives is None:
        emb = ad.value_of(anchors)
        if emb.ndim != 2 or len(emb) % 3:
            raise ShapeMismatchError(f"a stacked triplet batch has 3M rows, "
                                     f"got shape {emb.shape}")
        blocks = emb.reshape(3, len(emb) // 3, emb.shape[1])
        _batch_len(*blocks)
        return blocks
    rows = [ad.value_of(x) for x in (anchors, positives, negatives)]
    _batch_len(*rows)
    return np.concatenate(rows).reshape(3, *rows[0].shape)


def _pair_cosines(blocks: np.ndarray, iu: np.ndarray, iv: np.ndarray):
    """(K, M) cosine distances between the row blocks ``blocks[iu[k]]`` and
    ``blocks[iv[k]]`` of each pair k, and their vjp, from one
    ``autodiff.row_cosine_with_vjp`` over the gathered blocks with every
    row's norm taken once. A collapsed row raises the ZeroVectorError of
    the first pair that holds one."""
    norms = ad.row_norms(blocks)
    try:
        return ad.row_cosine_with_vjp(blocks[iu], blocks[iv], norms[iu],
                                      norms[iv])
    except ZeroVectorError:
        for i, j in zip(iu, iv):
            ad.row_cosine_with_vjp(blocks[i], blocks[j], norms[i], norms[j])
        raise


def _loss_node(value, operands: tuple, grads):
    """A batch loss as one node over its operands, given ``grads(g)``, the
    (3, M, S) gradient of the A, P and N blocks; a plain P or N operand is
    given None. A stacked (3M, S) batch is the only parent, and its
    gradient takes each block as 0.0 + gX: the bits of the three blocks
    gathered by ``autodiff.take_rows`` and their gradients summed."""
    anchors, positives, negatives = operands
    if positives is None and negatives is None:
        def vjp(g):
            full = grads(g)
            full += 0.0
            return (full.reshape(-1, full.shape[2]),)

        return ad.node(value, (anchors,), vjp)

    def vjp(g):
        ga, gp, gn = grads(g)
        return (ga, gp if ad.needs_grad(positives) else None,
                gn if ad.needs_grad(negatives) else None)

    return ad.node(value, operands, vjp)


def center_rows(pseudo_classes, mu_min, mu_maj):
    """(M, S) rows of each anchor's own cluster center and of the other
    center, per the anchors' pseudo-classes (``C_MIN``, or True, owns
    ``mu_min``): the rows UDC trains on and ``udc_com_loss`` states."""
    minority = (np.asarray(pseudo_classes, dtype=int) == C_MIN)[:, None]
    return (np.where(minority, mu_min, mu_maj),
            np.where(minority, mu_maj, mu_min))


def udc_com_loss(anchors, pseudo_classes, mu_min, mu_maj):
    """``com_triplet_loss`` over a pseudo-labeled batch, with each anchor's
    own cluster center as its positive and the other center as its negative
    (``center_rows``). The centers ``mu_min``/``mu_maj`` are constant (S,)
    arrays, so the margin is 1 - d(mu_min, mu_maj).
    """
    return com_triplet_loss(anchors,
                            *center_rows(pseudo_classes, mu_min, mu_maj))


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
    if shapes[0][1] < 1:
        raise ShapeMismatchError(f"batch rows have no entries: {shapes[0]}")
    return shapes[0][0]
