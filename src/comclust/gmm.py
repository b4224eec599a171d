"""Two-component, diagonal-covariance Gaussian mixture over embeddings:
two-centre k-means(++) init and EM fitting, which hands back the fitted
batch's pseudo-labels.

The fit settings are module constants: ``EM_MAX_ITER`` EM iterations with
convergence tolerance ``EM_TOL``, variances floored at ``COV_FLOOR``,
``KMEANS_RESTARTS`` k-means++ restarts of up to ``KMEANS_MAX_ITER`` Lloyd
steps each, and ``EM_RESTARTS`` attempts on degeneracy.

One function, ``_e_step``, computes the mixture's log-densities, and
``responsibilities`` turns the E-step of the model ``fit_em`` returns into
the fitted batch's pseudo-labels, ``model.labels``.

``kmeans`` runs its restarts together, and EM updates both components in
one set of array operations. Both give the bits of the plain loops over
restarts and components (``tests/test_gmm.py`` keeps those loops, and
``rng.choice`` for the seeds, as its oracle), so a seeded run's
pseudo-labels do not depend on the batching; ``kmeans`` states the rules
that keep it so. The second k-means++ seed is the draw that
``rng.choice(n, p=d2 / total)`` makes: one ``rng.random()`` placed by
``searchsorted`` in the normalised cumulative sum of ``p``. A restart
whose ``total`` is 0 repeats its first seed and still spends that
uniform. Squared distances that overflow make the draw undefined, and
``kmeans`` raises NonFiniteLossError instead."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import make_rng
from .errors import (DegenerateComponentError, NonFiniteLossError,
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
    ``covariances`` (2, S) of diagonal variances, the NLL of each EM
    iteration, and the pseudo-labels of the batch it was fitted on."""
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    nll_trace: list = field(default_factory=list)
    labels: PseudoLabels | None = None


@dataclass
class PseudoLabels:
    assignments: np.ndarray        # argmax responsibility per sample
    responsibilities: np.ndarray   # (N, 2), rows sum to 1
    minority_component: int


def _e_step(sq: np.ndarray, covs: np.ndarray, weights: np.ndarray,
            scaled: np.ndarray):
    """The (N, 2) matrix log_p of log(h_k) + log G_k(x) and its row-wise
    log-sum-exp, from the (2, N, S) squared deviations ``sq`` and the
    (2, S) variances. ``scaled`` is an (N, 2, S) buffer for ``sq / covs``:
    on that layout log_p comes out C-contiguous, and ``r.sum(axis=0)``
    adds the rows of its exponent in order."""
    np.divide(sq, covs[:, None, :], out=scaled.transpose(1, 0, 2))
    log_p = -0.5 * (scaled.shape[-1] * LOG_2PI + np.log(covs).sum(axis=-1)
                    + scaled.sum(axis=-1))
    log_p += np.log(weights)
    return log_p, _logsumexp(log_p, axis=1)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    amax = a.max(axis=axis, keepdims=True)
    return amax.squeeze(axis) + np.log(np.exp(a - amax).sum(axis=axis))


def responsibilities(model: GaussianMixture, log_p: np.ndarray,
                     lse: np.ndarray) -> PseudoLabels:
    """Posterior component memberships of the batch ``model`` was fitted
    on, from its E-step there: the (N, 2) log(h_k) + log G_k(x) ``log_p``,
    which becomes the posteriors in place, and its row-wise log-sum-exp."""
    log_p -= lse[:, None]
    r = np.exp(log_p, out=log_p)
    assign = np.argmax(r, axis=1)
    return PseudoLabels(assign, r, identify_minority(model, assign))


def identify_minority(model: GaussianMixture, assignments) -> int:
    """Component standing in for the rare class: smaller mixture weight,
    tie-broken by fewer assigned members, then by index 0. The paper-side
    mapping from components to disease classes is unspecified, so this is
    a deliberate policy."""
    w = model.weights
    if abs(w[0] - w[1]) > 1e-12:
        return int(np.argmin(w))
    counts = np.bincount(np.asarray(assignments), minlength=2)
    if counts[0] != counts[1]:
        return int(np.argmin(counts))
    return 0


def kmeans(points, seed: int = 0):
    """Lloyd's algorithm for two centres with k-means++ seeding, best of
    ``KMEANS_RESTARTS`` restarts of up to ``KMEANS_MAX_ITER`` steps by
    within-cluster sum of squares.

    The restarts run together, and give the bits that running them one
    after another gives:

    - every draw comes before the first Lloyd step, restart by restart:
      ``rng.integers(n)`` for the first seed, then ``rng.random()``;
    - the second seeds of all restarts are placed together: a uniform
      lands by ``searchsorted(..., side="right")`` in the cumulative sum
      of ``p = d2 / total`` divided by its last entry, which is the draw
      ``rng.choice(n, p=p)`` makes; a restart whose ``total`` is 0 (every
      point on the first seed) repeats its first seed and still spends
      its uniform;
    - a ``total`` that overflows raises NonFiniteLossError;
    - each Lloyd step measures all live restarts in one (R, N, 2) distance
      tensor, and a restart drops out at the first step that leaves its
      assignment unchanged;
    - a centre is the mean of its members, summed in row order; an empty
      cluster is re-seeded at the point farthest from its nearest centre;
    - at S = 1 the centres are summed restart by restart instead: numpy
      sums a one-column block of members pairwise, not in row order;
    - the first restart wins unless a later one beats its wcss by more
      than 1e-15.

    Returns (centers (2, S), assignments (N,), wcss).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if n < 2:
        raise TooFewSamplesError(f"{n} points for 2 centres")
    if not np.isfinite(points).all():
        raise NonFiniteLossError(
            "non-finite value among the points to cluster")
    rng = make_rng(seed)
    centers = _kmeans_pp_init(points, KMEANS_RESTARTS, rng)
    assign = np.zeros((len(centers), n), dtype=np.intp)
    dist = np.empty((len(centers), n, 2))
    live = np.arange(len(centers))
    for step in range(KMEANS_MAX_ITER):
        d2 = _sq_dists(points, centers[live])
        dist[live] = d2
        new_assign = d2.argmin(axis=2)
        if step:
            moved = (new_assign != assign[live]).any(axis=1)
            live, d2, new_assign = live[moved], d2[moved], new_assign[moved]
            if not live.size:
                break
        assign[live] = new_assign
        centers[live] = _lloyd_centers(points, d2, new_assign)
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


def _kmeans_pp_init(points: np.ndarray, restarts: int, rng) -> np.ndarray:
    """(restarts, 2, S) k-means++ seed centres, drawn as ``kmeans`` states."""
    n = points.shape[0]
    seeds = np.empty((restarts, 2), dtype=np.intp)
    u = np.empty(restarts)
    for r in range(restarts):
        seeds[r, 0] = rng.integers(n)
        u[r] = rng.random()
    d2 = _sq_dists(points, points[seeds[:, 0], None])[..., 0]    # (R, N)
    total = d2.sum(axis=1)
    if not np.isfinite(total).all():
        raise NonFiniteLossError(
            "squared distances between the points to cluster overflow")
    # a restart whose points all sit on its first seed (total 0) repeats
    # it; the covariance floor handles it downstream
    spread = total > 0
    cdf = (d2[spread] / total[spread, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    seeds[:, 1] = seeds[:, 0]
    # searchsorted(cdf[r], u[r], side="right"), row by row
    seeds[spread, 1] = (cdf <= u[spread, None]).sum(axis=1)
    return points[seeds]


def _lloyd_centers(points: np.ndarray, d2: np.ndarray,
                   assign: np.ndarray) -> np.ndarray:
    """(R, 2, S) centres of one Lloyd step from its (R, N, 2) distances and
    (R, N) assignments."""
    n, s = points.shape
    restarts = len(assign)
    slot = assign + 2 * np.arange(restarts)[:, None]
    counts = np.bincount(slot.ravel(), minlength=restarts * 2).reshape(
        restarts, 2)
    if s == 1:
        # numpy sums a one-column block of members pairwise, not in row
        # order, so the scattered sum below would round differently
        member = assign[..., None] == np.arange(2)
        sums = np.array([[points[m].sum(axis=0) for m in mr.T]
                         for mr in member])
    else:
        # each point lands in its cluster's slot; -0.0 is the exact
        # additive identity, so the sum over points adds the members in
        # row order, as the sum over the members alone does
        slots = np.full((n, restarts * 2, s), -0.0)
        slots[np.arange(n)[:, None], slot.T] = points[:, None, :]
        sums = slots.sum(axis=0).reshape(restarts, 2, s)
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
    before raising DegenerateComponentError. The returned model carries
    the batch's pseudo-labels as ``labels``, from the E-step whose NLL met
    ``EM_TOL`` or, when EM runs out of iterations, from one more E-step,
    which ``nll_trace`` does not record.
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
    centers, assign, _ = kmeans(batch, seed=seed)
    weights = np.bincount(assign, minlength=2).astype(np.float64)
    weights = np.clip(weights, 1.0, None)
    weights /= weights.sum()
    means = centers.copy()
    covs = np.empty((2, s))
    for j in range(2):
        members = batch[assign == j]
        var = members.var(axis=0) if len(members) else np.ones(s)
        covs[j] = np.maximum(var, COV_FLOOR)

    # sq holds the (2, N, S) squared deviations from the current means,
    # which the M-step's variances need too
    sq = batch - means[:, None, :]
    sq *= sq
    scaled = np.empty((n, 2, s))
    nll_trace = []
    prev_nll = None
    for _ in range(EM_MAX_ITER):
        log_p, lse = _e_step(sq, covs, weights, scaled)
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
    else:
        log_p, lse = _e_step(sq, covs, weights, scaled)

    model = GaussianMixture(weights, means, covs, nll_trace)
    collapsed = (np.all(model.covariances <= COV_FLOOR * (1 + 1e-9))
                 and np.allclose(model.means[0], model.means[1], atol=1e-9))
    if collapsed:
        raise DegenerateComponentError(
            "both components collapsed onto a single point")
    # a module-level call: perfbench's layer trace wraps it by name
    model.labels = responsibilities(model, log_p, lse)
    return model
