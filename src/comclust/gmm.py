"""Two-component, diagonal-covariance Gaussian mixture over embeddings:
two-centre k-means(++) init and EM fitting, which hands back the fitted
batch's posteriors and their argmax. The mixture knows no classes: UDC,
in ``training``, picks the component that stands for the rare class.

The fit settings are module constants: ``EM_MAX_ITER`` EM iterations with
convergence tolerance ``EM_TOL``, variances floored at ``COV_FLOOR``,
``KMEANS_RESTARTS`` k-means++ restarts of up to ``KMEANS_MAX_ITER`` Lloyd
steps each, and ``EM_RESTARTS`` attempts on degeneracy.

``kmeans`` runs its restarts together, and EM updates both components in
one set of array operations. Both give the bits of the plain loops over
restarts and components (``tests/test_gmm.py`` keeps those loops, and
``rng.choice`` for the seeds, as its oracle), so a seeded run's
pseudo-labels do not depend on the batching. ``kmeans`` states the rules
that keep its bits: its draws, its Lloyd steps and its exact distances.
``fit_em`` states how EM works: its statistics anchored at the k-means
centres, and its state, allocated once per fit; each of its E-steps ends
in ``responsibilities``, and the last one's give ``model.posteriors``."""

from __future__ import annotations

from dataclasses import dataclass

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
EM_MIN_SAMPLES = 4           # the fewest rows fit_em fits
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianMixture:
    """Fitted two-component mixture: ``weights`` (2,), ``means`` (2, S) and
    ``covariances`` (2, S) of diagonal variances, the NLL of each EM
    iteration, and the fitted batch's (N, 2) ``posteriors`` and their argmax
    ``assignments``."""
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    nll_trace: list
    assignments: np.ndarray
    posteriors: np.ndarray


def responsibilities(log_p: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """Posterior component memberships from an E-step: the (2, N)
    log(h_k) + log G_k(x) ``log_p``, which becomes the posteriors in place,
    and its (N,) log-sum-exp over the two components."""
    log_p -= lse
    return np.exp(log_p, out=log_p)


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
    - each Lloyd step assigns the points by a bisector test on offsets
      from their mean ``m``: with ``a = c0 - m`` and ``b = c1 - m``, a
      point ``p`` goes to centre 1 when
      ``(p - m) @ (b - a) > (|b|**2 - |a|**2) / 2``, and to centre 0
      otherwise, a tie included, as ``argmin`` breaks it; one stacked
      ``matmul`` tests every restart, and the steps stop at the first
      that leaves every restart's assignment unchanged;
    - a centre is the mean of its members: one stacked ``matmul`` of the
      (R, 2, N) 0/1 membership matrix by the points, divided by the
      member counts, so a restart whose assignment held gets its centres'
      bits again; an empty cluster is re-seeded at the point farthest, by
      exact squared distance, from its nearest centre, except in a
      restart whose assignment held, which keeps its centres;
    - the exact squared distances ``|c - p|**2`` from every restart's
      final centres, taken centre-major as (R, 2, N), give the assignments
      (the argmin over the two centres) and the wcss;
    - the first restart wins unless a later one beats its wcss by more
      than 1e-15.

    Returns (centers (2, S), assignments (N,), wcss).
    """
    # C order: matmul takes another BLAS path, with other bits, for a
    # Fortran-ordered or strided copy of the points
    points = np.atleast_2d(np.asarray(points, dtype=np.float64, order="C"))
    n = points.shape[0]
    if n < 2:
        raise TooFewSamplesError(f"{n} points for 2 centres")
    if not np.logical_and.reduce(np.isfinite(points), axis=None):
        raise NonFiniteLossError(
            "non-finite value among the points to cluster")
    rng = make_rng(seed)
    centers = _kmeans_pp_init(points, KMEANS_RESTARTS, rng)
    mean = np.add.reduce(points, axis=0) / n
    centred = points - mean
    assign = None
    moved = np.ones(len(centers), dtype=bool)
    for step in range(KMEANS_MAX_ITER):
        new_assign = _nearer_second(centred, centers - mean)
        if step:
            moved = np.logical_or.reduce(new_assign != assign, axis=1)
            if not np.logical_or.reduce(moved):
                break
        assign = new_assign
        centers = _lloyd_centers(points, centers, assign, moved)
    dist = _sq_dists(points, centers)                           # (R, 2, N)
    # argmin and min over the two centres' rows, a tie going to centre 0
    assign = (dist[:, 1] < dist[:, 0]).astype(np.intp)
    wcss = np.add.reduce(np.minimum(dist[:, 0], dist[:, 1]), axis=1).tolist()
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
    d2 = _sq_dists(points, points[seeds[:, 0], None])[:, 0]      # (R, N)
    total = np.add.reduce(d2, axis=1)
    if not np.logical_and.reduce(np.isfinite(total)):
        raise NonFiniteLossError(
            "squared distances between the points to cluster overflow")
    # a restart whose points all sit on its first seed (total 0) repeats
    # it; the covariance floor handles it downstream
    spread = total > 0
    cdf = (d2[spread] / total[spread, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    seeds[:, 1] = seeds[:, 0]
    # searchsorted(cdf[r], u[r], side="right"), row by row
    seeds[spread, 1] = np.add.reduce(cdf <= u[spread, None], axis=1)
    return points[seeds]


def _nearer_second(centred: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(R, N) bool, True where a point is nearer centre 1 than centre 0 by
    the bisector test, from the (N, S) points and the (R, 2, S) centres,
    both less the points' mean."""
    w = offsets[:, 1, :, None] - offsets[:, 0, :, None]       # (R, S, 1)
    norms = np.add.reduce(offsets * offsets, axis=-1)
    half_gap = 0.5 * (norms[:, 1:] - norms[:, :1])            # (R, 1)
    return np.matmul(centred, w)[..., 0] > half_gap


def _lloyd_centers(points: np.ndarray, centers: np.ndarray,
                   nearer_second: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """(R, 2, S) centres of one Lloyd step from the (R, 2, S) centres that
    assigned the points, the (R, N) assignment to centre 1 and the (R,)
    restarts whose assignment changed."""
    member = np.empty((len(centers), 2, len(points)))
    member[:, 1] = nearer_second
    np.logical_not(nearer_second, out=member[:, 0])
    counts = np.add.reduce(member, axis=2, keepdims=True)     # (R, 2, 1)
    new = np.matmul(member, points)
    new /= np.maximum(counts, 1.0)
    empty = counts == 0
    if np.logical_or.reduce(empty, axis=None):
        # a re-seed reads the centres: a converged restart keeps them
        new[~moved] = centers[~moved]
        reseed = empty.any(axis=(1, 2)) & moved
        d2 = _sq_dists(points, centers[reseed])
        farthest = points[np.argmax(d2.min(axis=1), axis=1)]
        new[reseed] = np.where(empty[reseed], farthest[:, None, :],
                               new[reseed])
    return new


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., k, N) squared distances from the (..., k, S) centres to the
    (N, S) points, centre-major: each centre's N differences are one
    contiguous run, and each point's S-term sum has the bits of the
    point-major layout, since (c - p)**2 equals (p - c)**2 exactly."""
    diff = centers[..., None, :] - points
    diff *= diff
    return np.add.reduce(diff, axis=-1)


def fit_em(batch, seed: int = 0) -> GaussianMixture:
    """Fit the two-component mixture by EM with k-means initialization.

    EM starts from one M-step on the 0/1 k-means memberships (a component
    with no member keeps its centre, weight 1 / (N + 1) and the variance
    floor). It stops when the NLL improves by less than ``EM_TOL`` or
    after ``EM_MAX_ITER`` iterations, so it makes at most EM_MAX_ITER + 1
    E-steps, and ``nll_trace`` records one NLL per iteration, not the
    last, extra E-step. Variances are floored at ``COV_FLOOR`` after every
    M-step. If a component collapses below one effective sample, EM
    restarts from a fresh k-means seed (up to ``EM_RESTARTS`` attempts)
    before raising DegenerateComponentError. The returned model carries
    the batch's ``posteriors`` and their argmax, ``assignments``, from its
    last E-step: the one whose NLL met ``EM_TOL``, or the extra one. Neither
    component stands for a class.

    EM works on sufficient statistics anchored at the k-means centres:
    with ``c_k`` component k's centre, one (2, N, 2S) design
    ``z[k] = [x - c_k, (x - c_k)**2]`` is built per fit, and a component
    is its weight, its offset ``d_k = mean_k - c_k`` and its variances. An
    E-step is one stacked matrix product, ``z[k] @ [d_k / var_k,
    -1 / (2 var_k)]`` plus a per-component constant, then a two-column
    log-sum-exp; an M-step is another, the (2, N) posteriors times ``z``,
    which gives ``d_k`` and ``var_k = E_r[(x - c_k)**2] - d_k**2``. The
    centres keep those differences well conditioned when the batch sits
    far from the origin.

    Each fit allocates EM's state once and every iteration writes into it,
    with the bits of arrays made afresh, so the model's ``covariances``
    and ``posteriors`` are views of buffers that belong to that fit alone.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    n = batch.shape[0]
    if n < EM_MIN_SAMPLES:
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
    # z[k] = [x - c_k, (x - c_k)**2], c_k the k-means centres
    z = np.empty((2, n, 2 * s))
    np.subtract(batch, centers[:, None, :], out=z[..., :s])
    np.square(z[..., :s], out=z[..., s:])
    # EM's state, which every iteration overwrites: the M-step's
    # statistics [d, var], the E-step's weights [d/var, -1/(2 var)], the
    # (2, N) log-posteriors (a view of matmul's (2, N, 1) output) with
    # their two rows, and the rows' max and log-sum-exp
    stats = np.empty((2, 1, 2 * s))
    offsets, covs = stats[:, 0, :s], stats[:, 0, s:]
    w = np.empty((2, 2 * s, 1))
    scaled, half_precision = w[:, :s, 0], w[:, s:, 0]
    log_p3 = np.empty((2, n, 1))
    log_p = log_p3[..., 0]
    first, second = log_p
    top, lse = np.empty(n), np.empty(n)
    r = (assign == np.arange(2)[:, None]) * 1.0     # 0/1 k-means memberships
    nll_trace = []
    s_log_2pi = s * LOG_2PI
    for it in range(EM_MAX_ITER + 1):
        # M-step: the effective counts, then d = mean - c_k and the floored
        # var = E_r[(x - c_k)**2] - d**2 in the views of the statistics
        nk = np.add.reduce(r, axis=1)
        np.matmul(r[:, None, :], z, out=stats)
        stats /= np.maximum(nk, 1.0)[:, None, None]
        covs -= offsets * offsets
        np.maximum(covs, COV_FLOOR, out=covs)
        if it == 0:
            # from k-means: a component with no members keeps its anchor,
            # the floor and weight 1 / (N + 1)
            weights = np.maximum(nk, 1.0)
            weights /= np.add.reduce(weights)
        elif np.minimum.reduce(nk) < 1.0:
            raise DegenerateComponentError(
                f"effective counts {nk} below 1")
        else:
            weights = nk / n
        # log(h_k) + log G_k(x) = z[k] @ [d/var, -1/(2 var)] + const_k, with
        # const_k = log h_k - (S log 2 pi + sum(log var + d * d/var)) / 2
        # added as a float: Python rounds its three steps as numpy does
        np.divide(offsets, covs, out=scaled)
        np.divide(-0.5, covs, out=half_precision)
        log_h = np.log(weights).tolist()
        spread = np.add.reduce(np.log(covs) + offsets * scaled,
                               axis=1).tolist()
        np.matmul(z, w, out=log_p3)
        first += log_h[0] - 0.5 * (s_log_2pi + spread[0])
        second += log_h[1] - 0.5 * (s_log_2pi + spread[1])
        # lse = top + log1p(exp(bottom - top)), formed in place
        np.maximum(first, second, out=top)
        np.minimum(first, second, out=lse)
        lse -= top
        np.log1p(np.exp(lse, out=lse), out=lse)
        lse += top
        stop = it == EM_MAX_ITER     # out of iterations: posteriors only
        if not stop:
            nll_trace.append(float(-np.add.reduce(lse)))
            stop = it > 0 and abs(nll_trace[-2] - nll_trace[-1]) < EM_TOL
        # a module-level call: perfbench's layer trace wraps it by name
        r = responsibilities(log_p, lse)
        if stop:
            break

    means = centers + offsets
    if (np.logical_and.reduce(covs <= COV_FLOOR * (1 + 1e-9), axis=None)
            and np.allclose(means[0], means[1], atol=1e-9)):
        raise DegenerateComponentError(
            "both components collapsed onto a single point")
    return GaussianMixture(weights, means, covs, nll_trace,
                           r.argmax(axis=0), r.T)

