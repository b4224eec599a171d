"""Two-component, diagonal-covariance Gaussian mixture over embeddings:
k-means(++) init, EM fitting, responsibilities, and pseudo-label extraction.

The fit settings are module constants: ``EM_MAX_ITER`` EM iterations with
convergence tolerance ``EM_TOL``, variances floored at ``COV_FLOOR``,
``KMEANS_RESTARTS`` k-means++ restarts of up to ``KMEANS_MAX_ITER`` Lloyd
steps each, and ``EM_RESTARTS`` attempts on degeneracy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import make_rng
from .errors import (DegenerateComponentError, EmptyBatchError,
                     SingularCovarianceError, TooFewSamplesError)

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

    ``cov`` holds the diagonal variances; ``mean`` and ``cov`` may carry
    leading axes that broadcast against ``x``, the density being taken over
    the last axis. A single point gives a float.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    if np.any(cov <= 0):
        raise SingularCovarianceError("non-positive diagonal variance")
    diff = x - mean
    logdet = np.sum(np.log(cov), axis=-1)
    maha = np.sum(diff * diff / cov, axis=-1)
    out = -0.5 * (mean.shape[-1] * LOG_2PI + logdet + maha)
    return out if out.size > 1 else float(out[0])


def _component_log_probs(model: GaussianMixture, x: np.ndarray) -> np.ndarray:
    """(N, 2) matrix of log(h_k) + log G_k(x)."""
    return (gaussian_log_pdf(x[:, None, :], model.means, model.covariances)
            + np.log(model.weights))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(amax, axis) + np.log(np.sum(np.exp(a - amax), axis=axis))


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

    Returns (centers (k, S), assignments (N,), wcss).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if n < k:
        raise TooFewSamplesError(f"{n} points for k={k}")
    rng = make_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        centers = _kmeans_pp_init(points, k, rng)
        assign = None
        for _ in range(max_iter):
            d2 = _sq_dists(points, centers)
            new_assign = np.argmin(d2, axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                members = points[assign == j]
                if len(members) == 0:
                    # re-seed an empty cluster at the farthest point
                    centers[j] = points[np.argmax(np.min(d2, axis=1))]
                else:
                    centers[j] = members.mean(axis=0)
        d2 = _sq_dists(points, centers)
        assign = np.argmin(d2, axis=1)
        wcss = float(np.sum(d2[np.arange(n), assign]))
        if best is None or wcss < best[2] - 1e-15:
            best = (centers.copy(), assign.copy(), wcss)
    return best


def _kmeans_pp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(_sq_dists(points, np.array(centers)), axis=1)
        total = d2.sum()
        if total <= 0:
            # all points coincide with a chosen center: duplicate it and let
            # the covariance floor handle the degeneracy downstream
            centers.append(centers[0].copy())
            continue
        centers.append(points[rng.choice(n, p=d2 / total)])
    return np.array(centers, dtype=np.float64)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.sum(diff * diff, axis=2)


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

    model = GaussianMixture(weights, means, covs, nll_trace=[])
    prev_nll = None
    for _ in range(EM_MAX_ITER):
        log_p = _component_log_probs(model, batch)
        lse = _logsumexp(log_p, axis=1)
        nll = float(-np.sum(lse))
        model.nll_trace.append(nll)
        if prev_nll is not None and abs(prev_nll - nll) < EM_TOL:
            break
        prev_nll = nll

        r = np.exp(log_p - lse[:, None])
        nk = r.sum(axis=0)
        if np.any(nk < 1.0):
            raise DegenerateComponentError(
                f"effective counts {nk} below 1")
        model.weights = nk / n
        model.means = (r.T @ batch) / nk[:, None]
        for j in range(2):
            diff = batch - model.means[j]
            var = (r[:, j] @ (diff * diff)) / nk[j]
            model.covariances[j] = np.maximum(var, COV_FLOOR)

    collapsed = (np.allclose(model.means[0], model.means[1], atol=1e-9)
                 and np.all(model.covariances <= COV_FLOOR * (1 + 1e-9)))
    if collapsed:
        raise DegenerateComponentError(
            "both components collapsed onto a single point")
    return model
