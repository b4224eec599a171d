"""Two-component, diagonal-covariance Gaussian mixture over embeddings:
k-means(++) init, EM fitting, responsibilities, and pseudo-label extraction.

The fit settings are module constants: ``EM_MAX_ITER`` EM iterations with
convergence tolerance ``EM_TOL``, variances floored at ``COV_FLOOR``,
``KMEANS_RESTARTS`` k-means++ restarts of up to ``KMEANS_MAX_ITER`` Lloyd
steps each, and ``EM_RESTARTS`` attempts on degeneracy.

``kmeans`` runs its restarts together, and EM updates both components in
one set of array operations. Both give the bits of the plain loops over
restarts and components (``tests/test_gmm.py`` keeps those loops as its
oracle), so a seeded run's pseudo-labels do not depend on the batching;
``kmeans`` states the rules that keep it so."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import make_rng
from .errors import (DegenerateComponentError, EmptyBatchError,
                     NonFiniteLossError, SingularCovarianceError,
                     TooFewSamplesError)

EM_MAX_ITER = 100
EM_TOL = 1e-3                # NLL change convergence threshold
COV_FLOOR = 1e-6
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
EM_RESTARTS = 3              # fresh k-means seeds on degeneracy
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianMixture:
    """Fitted two-component mixture: ``weights`` (2,), ``means`` (2, S) and
    ``covariances`` (2, S) of diagonal variances."""
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    nll_trace: list = field(default_factory=list)


@dataclass
class PseudoLabels:
    assignments: np.ndarray        # argmax responsibility per sample
    responsibilities: np.ndarray   # (N, 2), rows sum to 1
    minority_component: int


def gaussian_log_pdf(x, mean, cov):
    """Log-density of a diagonal-covariance normal, evaluated in log space.

    ``cov`` holds the diagonal variances, in the shape of ``mean``; both
    may carry leading axes that broadcast against ``x``, the density being
    taken over the last axis. A single point gives a float.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if np.any(cov <= 0):
        raise SingularCovarianceError("non-positive diagonal variance")
    out = _log_pdf(x, mean, cov)
    return out if out.size > 1 else float(out[0])


def _log_pdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``gaussian_log_pdf`` without its checks, which EM skips: its
    variances never fall below COV_FLOOR. Squares ``x - mean`` in place."""
    sq = x - mean
    sq *= sq
    sq /= cov
    return -0.5 * (mean.shape[-1] * LOG_2PI + np.log(cov).sum(axis=-1)
                   + sq.sum(axis=-1))


def _component_log_probs(model: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """(N, 2) matrix of log(h_k) + log G_k(x)."""
    return (gaussian_log_pdf(x[:, None, :], model.means, model.covariances)
            + np.log(model.weights))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = a.max(axis=axis, keepdims=True)
    return amax.squeeze(axis) + np.log(np.exp(a - amax).sum(axis=axis))


def mixture_nll(model: GaussianMixture, batch) -> float:
    """Negative log-likelihood of the batch under the mixture."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise EmptyBatchError("empty batch")
    return float(-np.sum(_logsumexp(_component_log_probs(model, batch), axis=1)))


def responsibilities(model: GaussianMixture, batch) -> PseudoLabels:
    """Posterior component memberships, computed via log-sum-exp."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise EmptyBatchError("empty batch")
    log_p = _component_log_probs(model, batch)
    log_r = log_p - _logsumexp(log_p, axis=1)[:, None]
    r = np.exp(log_r)
    assign = np.argmax(r, axis=1)
    return PseudoLabels(assign, r, identify_minority(model, assign))


def identify_minority(model: GaussianMixture, assignments=None) -> int:
    """Component standing in for the rare class: smaller mixture weight,
    tie-broken by fewer assigned members, then by index 0. The paper-side
    mapping from components to disease classes is unspecified, so this is
    a deliberate policy."""
    w = model.weights
    if abs(w[0] - w[1]) > 1e-12:
        return int(np.argmin(w))
    if assignments is not None:
        counts = np.bincount(np.asarray(assignments), minlength=2)
        if counts[0] != counts[1]:
            return int(np.argmin(counts))
    return 0


def kmeans(points, k: int, restarts: int = KMEANS_RESTARTS,
           max_iter: int = KMEANS_MAX_ITER, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by
    within-cluster sum of squares.

    The restarts run together, and give the bits that running them one
    after another gives:

    - every seed is drawn before the first Lloyd step, restart by restart,
      in that order: ``rng.integers(n)``, then one ``rng.choice(n, p=...)``
      per further centre (a duplicate of the first centre when every point
      sits on a chosen one);
    - each Lloyd step measures all live restarts in one (R, N, k) distance
      tensor, and a restart drops out at the first step that leaves its
      assignment unchanged;
    - a centre is the mean of its members, summed in row order; an empty
      cluster is re-seeded at the point farthest from its nearest centre;
    - at S = 1 the centres are summed restart by restart instead: numpy
      sums a one-column block of members pairwise, not in row order;
    - the first restart wins unless a later one beats its wcss by more
      than 1e-15.

    Returns (centers (k, S), assignments (N,), wcss).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if n < k:
        raise TooFewSamplesError(f"{n} points for k={k}")
    if not np.isfinite(points).all():
        raise NonFiniteLossError(
            "non-finite value among the points to cluster")
    rng = make_rng(seed)
    centers = _kmeans_pp_init(points, k, max(1, restarts), rng)
    assign = np.zeros((len(centers), n), dtype=np.intp)
    dist = np.empty((len(centers), n, k))
    live = np.arange(len(centers))
    for step in range(max_iter):
        d2 = _sq_dists(points, centers[live])
        dist[live] = d2
        new_assign = d2.argmin(axis=2)
        if step:
            moved = (new_assign != assign[live]).any(axis=1)
            live, d2, new_assign = live[moved], d2[moved], new_assign[moved]
            if not live.size:
                break
        assign[live] = new_assign
        centers[live] = _lloyd_centers(points, d2, new_assign, k)
    else:
        # out of steps: these centres moved after their last distances
        dist[live] = _sq_dists(points, centers[live])
    assign = dist.argmin(axis=2)
    wcss = np.take_along_axis(dist, assign[..., None], axis=2)[..., 0].sum(
        axis=1).tolist()
    best = 0
    for r in range(1, len(wcss)):
        if wcss[r] < wcss[best] - 1e-15:
            best = r
    return centers[best], assign[best], wcss[best]


def _kmeans_pp_init(points: np.ndarray, k: int, restarts: int,
                    rng) -> np.ndarray:
    """(restarts, k, S) k-means++ seed centres, drawn restart by restart."""
    n = points.shape[0]
    seeds = np.empty((restarts, k), dtype=np.intp)
    for r in range(restarts):
        seeds[r, 0] = rng.integers(n)
        for c in range(1, k):
            d2 = _sq_dists(points, points[seeds[r, :c]]).min(axis=1)
            total = d2.sum()
            if total <= 0:
                # all points coincide with a chosen center: duplicate it and
                # let the covariance floor handle the degeneracy downstream
                seeds[r, c] = seeds[r, 0]
            else:
                seeds[r, c] = rng.choice(n, p=d2 / total)
    return points[seeds]


def _lloyd_centers(points: np.ndarray, d2: np.ndarray, assign: np.ndarray,
                   k: int) -> np.ndarray:
    """(R, k, S) centres of one Lloyd step from its (R, N, k) distances and
    (R, N) assignments."""
    n, s = points.shape
    member = assign[..., None] == np.arange(k)
    if s == 1:
        # numpy sums a one-column block of members pairwise, not in row
        # order, so the scattered sum below would round differently
        sums = np.array([[points[m].sum(axis=0) for m in mr.T]
                         for mr in member])
    else:
        # each point lands in its cluster's slot; -0.0 is the exact
        # additive identity, so the sum over points adds the members in
        # row order, as the sum over the members alone does
        slots = np.full((n, len(assign), k, s), -0.0)
        slots[np.arange(n)[:, None], np.arange(len(assign)), assign.T] = \
            points[:, None, :]
        sums = slots.sum(axis=0)
    counts = member.sum(axis=1)
    centers = sums / np.maximum(counts, 1)[..., None]
    empty = counts == 0
    if empty.any():
        farthest = points[np.argmax(np.min(d2, axis=2), axis=1)]
        centers = np.where(empty[..., None], farthest[:, None, :], centers)
    return centers


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., N, k) squared distances from the (N, S) points to the
    (..., k, S) centres."""
    diff = points[:, None, :] - centers[..., None, :, :]
    diff *= diff
    return diff.sum(axis=-1)


def fit_em(batch, seed: int = 0) -> GaussianMixture:
    """Fit the two-component mixture by EM with k-means initialization.

    Stops when the NLL improves by less than ``EM_TOL`` or after
    ``EM_MAX_ITER`` iterations. Variances are floored at ``COV_FLOOR`` after
    every M-step. If a component collapses below one effective sample, EM
    restarts from a fresh k-means seed (up to ``EM_RESTARTS`` attempts)
    before raising DegenerateComponentError.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    n = batch.shape[0]
    if n < 4:
        raise TooFewSamplesError(f"{n} samples for 2 components")

    last_exc = None
    for attempt in range(EM_RESTARTS):
        try:
            return _fit_em_once(batch, seed + 1000 * attempt)
        except DegenerateComponentError as exc:
            last_exc = exc
    raise DegenerateComponentError(
        f"component degenerate after {EM_RESTARTS} restarts") from last_exc


def _fit_em_once(batch: np.ndarray, seed: int) -> GaussianMixture:
    n, s = batch.shape
    centers, assign, _ = kmeans(batch, 2, seed=seed)
    weights = np.bincount(assign, minlength=2).astype(np.float64)
    weights = np.clip(weights, 1.0, None)
    weights /= weights.sum()
    means = centers.copy()
    covs = np.empty((2, s))
    for j in range(2):
        members = batch[assign == j]
        var = members.var(axis=0) if len(members) else np.ones(s)
        covs[j] = np.maximum(var, COV_FLOOR)

    nll_trace = []
    prev_nll = None
    for _ in range(EM_MAX_ITER):
        # _component_log_probs, unchecked
        log_p = _log_pdf(batch[:, None, :], means, covs)
        log_p += np.log(weights)
        lse = _logsumexp(log_p, axis=1)
        nll = float(-lse.sum())
        nll_trace.append(nll)
        if prev_nll is not None and abs(prev_nll - nll) < EM_TOL:
            break
        prev_nll = nll

        log_p -= lse[:, None]
        r = np.exp(log_p, out=log_p)
        nk = r.sum(axis=0)
        if (nk < 1.0).any():
            raise DegenerateComponentError(
                f"effective counts {nk} below 1")
        weights = nk / n
        means = (r.T @ batch) / nk[:, None]
        sq = batch - means[:, None, :]
        sq *= sq
        covs = np.maximum(np.matmul(r.T[:, None, :], sq)[:, 0] / nk[:, None],
                          COV_FLOOR)

    model = GaussianMixture(weights, means, covs, nll_trace)
    collapsed = (np.all(model.covariances <= COV_FLOOR * (1 + 1e-9))
                 and np.allclose(model.means[0], model.means[1], atol=1e-9))
    if collapsed:
        raise DegenerateComponentError(
            "both components collapsed onto a single point")
    return model
