"""Cluster prototypes: per-class center computation, the keep-the-best-pair
update rule, nearest-prototype label assignment, and the continuous
malignancy-style score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import row_cosine_distance, row_cosine_with_vjp, row_norms
from .errors import (DegenerateDistancesError, MissingClassError,
                     ShapeMismatchError)
from .losses import C_MAJ, C_MIN


@dataclass(frozen=True)
class Prototypes:
    """The pair of class centers tracked across training, which is what a
    checkpoint stores, and their cosine separation, which
    ``update_prototypes`` derives from them."""
    cl_min: np.ndarray
    cl_maj: np.ndarray
    separation: float


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
        out[c] = np.add.reduce(members, axis=0) / len(members)
    return out[C_MIN], out[C_MAJ]


def update_prototypes(current: Prototypes | None, cl_min_cand, cl_maj_cand) -> Prototypes:
    """Keep whichever center *pair* has strictly larger cosine separation;
    ties keep the current pair. Centers from different iterations are never
    mixed. The separation is ``cosine_distance`` of the two 1-D centers,
    measured on the arrays without a graph node. A rejected candidate
    builds no ``Prototypes``, but a zero-norm center raises ZeroVectorError
    either way."""
    cl_min = np.asarray(cl_min_cand, dtype=np.float64)
    cl_maj = np.asarray(cl_maj_cand, dtype=np.float64)
    if cl_min.ndim != 1 or cl_min.shape != cl_maj.shape or not cl_min.size:
        raise ShapeMismatchError(f"prototype center shapes {cl_min.shape}, "
                                 f"{cl_maj.shape}")
    separation = float(row_cosine_with_vjp(cl_min, cl_maj)[0])
    if current is None or separation > current.separation:
        return Prototypes(cl_min, cl_maj, separation)
    return current


def infer_label(e_test, proto: Prototypes):
    """Assign by nearest prototype in cosine distance over every coordinate.
    An exact tie goes to the minority class, favoring sensitivity for the
    rare class.

    Returns (labels, d_min, d_maj), (N,) arrays for an (N, S) batch; a 1-D
    embedding is a batch of one. A row gives the same bits alone as in any
    batch. The rows' norms are computed once for both centers.
    """
    rows = np.atleast_2d(np.asarray(e_test, dtype=np.float64))
    norms = row_norms(rows)
    d_min = row_cosine_distance(rows, proto.cl_min, norms)
    d_maj = row_cosine_distance(rows, proto.cl_maj, norms)
    return np.where(d_maj < d_min, C_MAJ, C_MIN), d_min, d_maj


def malignancy_score(d_min, d_maj):
    """(N,) continuous scores d_maj / (d_maj + d_min) in [0, 1] from the
    distances ``infer_label`` returns; above 0.5 exactly when it assigns
    the minority class."""
    total = d_maj + d_min
    if np.any(total < 1e-12):
        raise DegenerateDistancesError("both prototype distances near zero")
    return d_maj / total
