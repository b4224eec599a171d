"""Cluster prototypes: per-class center computation, the keep-the-best-pair
update rule, inference-time feature selection, label assignment, and the
continuous malignancy-style score."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import cosine_distance, row_cosine_distance
from .errors import (DegenerateDistancesError, MissingClassError,
                     ShapeMismatchError)
from .losses import C_MAJ, C_MIN


@dataclass(frozen=True)
class Prototypes:
    """The pair of class centers tracked across training, their cosine
    separation, and the inference-time feature mask (all-true until
    ``with_feature_mask`` is applied)."""
    cl_min: np.ndarray
    cl_maj: np.ndarray
    separation: float
    feature_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.feature_mask is None:
            object.__setattr__(self, "feature_mask",
                               np.ones(len(self.cl_min), dtype=bool))

    @staticmethod
    def from_pair(cl_min, cl_maj) -> "Prototypes":
        cl_min = np.asarray(cl_min, dtype=np.float64)
        cl_maj = np.asarray(cl_maj, dtype=np.float64)
        return Prototypes(cl_min, cl_maj, cosine_distance(cl_min, cl_maj))

    def with_feature_mask(self) -> "Prototypes":
        mask = feature_mask(self.cl_min, self.cl_maj)
        return Prototypes(self.cl_min, self.cl_maj, self.separation, mask)


def batch_centers(embeddings, classes):
    """Arithmetic mean embedding per class.

    Each embedding is averaged into its own class's center; when all anchors
    happen to be majority-class this reduces to averaging A and P rows into
    the majority center and N rows into the minority center.

    Returns (cl_min_candidate, cl_maj_candidate).
    """
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    classes = np.asarray(classes, dtype=int)
    if len(classes) != embeddings.shape[0]:
        raise ShapeMismatchError("class tags do not match embedding rows")
    out = {}
    for c in (C_MIN, C_MAJ):
        members = embeddings[classes == c]
        if len(members) == 0:
            raise MissingClassError(f"no embeddings of class {c} in batch")
        out[c] = members.mean(axis=0)
    return out[C_MIN], out[C_MAJ]


def update_prototypes(current: Prototypes | None, cl_min_cand, cl_maj_cand) -> Prototypes:
    """Keep whichever center *pair* has strictly larger cosine separation;
    ties keep the current pair. Centers from different iterations are never
    mixed."""
    candidate = Prototypes.from_pair(cl_min_cand, cl_maj_cand)
    if current is None or candidate.separation > current.separation:
        return candidate
    return current


def feature_mask(cl_min, cl_maj) -> np.ndarray:
    """Select features whose weights differ meaningfully across prototypes.

    The threshold is the per-prototype spread (max minus min component),
    averaged over the two prototypes; features with |cl_min - cl_maj| below
    it are dropped. An empty mask falls back to all-true.
    """
    cl_min = np.asarray(cl_min, dtype=np.float64)
    cl_maj = np.asarray(cl_maj, dtype=np.float64)
    if cl_min.shape != cl_maj.shape:
        raise ShapeMismatchError("prototype shapes differ")
    tau = 0.5 * ((cl_min.max() - cl_min.min()) + (cl_maj.max() - cl_maj.min()))
    mask = np.abs(cl_min - cl_maj) >= tau
    if not mask.any():
        return np.ones_like(mask)
    return mask


def prototype_distances(e_test, proto: Prototypes):
    """(d_min, d_maj): cosine distances to the two prototypes on
    mask-selected coordinates, as floats for one 1-D embedding or as (N,)
    arrays for an (N, S) batch. A row gives the same bits alone as in any
    batch."""
    e_test = np.asarray(e_test, dtype=np.float64)
    rows = np.atleast_2d(e_test)
    cl_min, cl_maj = proto.cl_min, proto.cl_maj
    mask = proto.feature_mask
    if not mask.all():
        # compress keeps rows C-contiguous, which row-wise sums rely on
        rows = rows.compress(mask, axis=1)
        cl_min, cl_maj = cl_min[mask], cl_maj[mask]
    d_min = row_cosine_distance(rows, cl_min).value
    d_maj = row_cosine_distance(rows, cl_maj).value
    if e_test.ndim == 1:
        return float(d_min[0]), float(d_maj[0])
    return d_min, d_maj


def infer_label(e_test, proto: Prototypes):
    """Assign by nearest prototype. An exact tie goes to the minority class,
    favoring sensitivity for the rare class.

    Returns (label, d_min, d_maj): an int and two floats for a 1-D
    embedding, (N,) arrays for an (N, S) batch.
    """
    d_min, d_maj = prototype_distances(e_test, proto)
    label = np.where(d_maj < d_min, C_MAJ, C_MIN)
    return (int(label) if label.ndim == 0 else label), d_min, d_maj


def malignancy_score(e_test, proto: Prototypes):
    """Continuous score d_maj / (d_maj + d_min) in [0, 1]; above 0.5 exactly
    when infer_label assigns the minority class. A float for a 1-D
    embedding, an (N,) array for an (N, S) batch."""
    d_min, d_maj = prototype_distances(e_test, proto)
    total = d_maj + d_min
    if np.any(total < 1e-12):
        raise DegenerateDistancesError("both prototype distances near zero")
    return d_maj / total
