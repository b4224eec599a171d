import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comclust import gmm
from comclust.autodiff import make_rng
from comclust.errors import (DegenerateComponentError, NonFiniteLossError,
                             TooFewSamplesError)
from comclust.gmm import GaussianMixture, fit_em, identify_minority, kmeans


def _two_component(mu0, mu1, var=1.0, weights=(0.5, 0.5), dim=None):
    mu0, mu1 = np.atleast_1d(np.asarray(mu0, float)), np.atleast_1d(np.asarray(mu1, float))
    d = dim or len(mu0)
    covs = np.full((2, d), var)
    return GaussianMixture(np.array(weights, float),
                           np.stack([mu0, mu1]), covs)


def _two_blobs(rng, n=45, s=4, scale=1.0, shift=3.0):
    x = rng.normal(size=(n, s))
    x[: n // 3] += shift
    return x * scale


def _oracle_log_density(x, mean, var):
    """Closed-form log-density of a diagonal-covariance normal over the
    last axis: -(S log 2 pi + sum log var + sum (x - mean)^2 / var) / 2."""
    diff = x - mean
    return -0.5 * (len(mean) * np.log(2 * np.pi) + np.sum(np.log(var))
                   + np.sum(diff * diff / var, axis=-1))


class TestKmeans:
    def test_square_corners_match_exhaustive_partition(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        centers, assign, wcss = kmeans(pts, seed=1)
        # brute-force optimum over all 2-partitions
        best = np.inf
        for mask_bits in itertools.product([0, 1], repeat=4):
            mask = np.array(mask_bits, dtype=bool)
            if not mask.any() or mask.all():
                continue
            cost = sum(np.sum((pts[m] - pts[m].mean(axis=0)) ** 2)
                       for m in (mask, ~mask) if m.any())
            best = min(best, cost)
        assert wcss == pytest.approx(best, abs=1e-9)
        sep = np.sort(centers[:, 0])
        np.testing.assert_allclose(sep, [0.0, 10.0], atol=1e-9)
        np.testing.assert_allclose(np.sort(centers[:, 1]), [0.5, 0.5], atol=1e-9)

    def test_identical_points(self):
        pts = np.tile([1.5, -2.0], (6, 1))
        centers, assign, wcss = kmeans(pts, seed=0)
        np.testing.assert_allclose(centers, np.tile([1.5, -2.0], (2, 1)))
        assert wcss == pytest.approx(0.0)

    def test_too_few_points(self):
        with pytest.raises(TooFewSamplesError):
            kmeans(np.ones((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_an_error(self, bad):
        pts = make_rng(4).normal(size=(10, 3))
        pts[7, 1] = bad
        with pytest.raises(NonFiniteLossError):
            kmeans(pts)

    def test_overflowing_distances_are_an_error(self):
        """Finite points whose squared distances overflow leave k-means++
        no distribution to draw from. The CLI, like this test, lets numpy
        overflow without a warning."""
        pts = make_rng(4).normal(size=(10, 3)) * 1e300
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteLossError, match="overflow"):
                kmeans(pts)
            with pytest.raises(NonFiniteLossError, match="overflow"):
                fit_em(pts)

    def test_wcss_never_worse_than_single_restart(self):
        rng = make_rng(3)
        pts = rng.normal(size=(40, 2))
        _, _, multi = kmeans(pts, seed=7)
        with mock.patch.object(gmm, "KMEANS_RESTARTS", 1):
            _, _, single = kmeans(pts, seed=7)
        assert multi <= single + 1e-12


class TestFitEm:
    def test_degenerate_separable_clusters(self):
        pts = np.vstack([np.tile([0.0, 0.0], (10, 1)),
                         np.tile([10.0, 10.0], (10, 1))])
        model = fit_em(pts, seed=3)
        np.testing.assert_allclose(np.sort(model.weights), [0.5, 0.5], atol=1e-9)
        means = model.means[np.argsort(model.means[:, 0])]
        np.testing.assert_allclose(means, [[0, 0], [10, 10]], atol=1e-6)

    def test_recovers_generative_parameters(self):
        rng = make_rng(21)
        sigma = 0.7
        mu0, mu1 = np.zeros(3), np.full(3, 6 * sigma / np.sqrt(3))
        x = np.vstack([rng.normal(mu0, sigma, size=(1200, 3)),
                       rng.normal(mu1, sigma, size=(800, 3))])
        model = fit_em(x, seed=5)
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.means[order][0], mu0, atol=0.1 * sigma)
        np.testing.assert_allclose(model.means[order][1], mu1, atol=0.1 * sigma)
        np.testing.assert_allclose(model.weights[order], [0.6, 0.4], atol=0.05)

    def test_nll_nonincreasing(self):
        rng = make_rng(33)
        for trial in range(10):
            x = np.vstack([rng.normal(0, 1, size=(30, 2)),
                           rng.normal(3, 1.5, size=(20, 2))])
            model = fit_em(x, seed=trial)
            trace = np.array(model.nll_trace)
            assert np.all(np.diff(trace) <= 1e-9)

    def test_deterministic_given_seed(self):
        rng = make_rng(44)
        x = rng.normal(size=(50, 2))
        a = fit_em(x, seed=9)
        b = fit_em(x, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_all_identical_points_degenerate(self):
        pts = np.tile([2.0, 2.0], (20, 1))
        with pytest.raises(DegenerateComponentError):
            fit_em(pts, seed=0)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            fit_em(np.ones((3, 2)))

    def test_converged_nll_is_the_scoring_e_step(self):
        """When EM stops on EM_TOL, its last E-step scored the returned
        model: the labels are an E-step of that model made apart from EM,
        bit for bit, and its NLL is the last one traced."""
        rng = make_rng(34)
        for trial in range(20):
            x = _two_blobs(rng, s=16)
            model = fit_em(x, seed=trial)
            trace = model.nll_trace
            assert len(trace) < gmm.EM_MAX_ITER
            assert abs(trace[-2] - trace[-1]) < gmm.EM_TOL
            _assert_labels_equal(model.labels, _oracle_labels(model, x))
            log_p = _oracle_component_log_probs(model, x)
            assert float(-_oracle_logsumexp(log_p, axis=1).sum()) == trace[-1]

    def test_labels_after_the_last_iteration_are_one_more_e_step(self):
        """Out of iterations, the last M-step moved the model past EM's last
        E-step: the labels are one more E-step, of the returned model, and
        the trace keeps one NLL per iteration."""
        rng = make_rng(35)
        with mock.patch.object(gmm, "EM_MAX_ITER", 2):
            for trial in range(20):
                x = _two_blobs(rng, s=3, shift=1.0)
                model = fit_em(x, seed=trial)
                trace = model.nll_trace
                assert len(trace) == 2
                assert abs(trace[0] - trace[1]) >= gmm.EM_TOL
                _assert_labels_equal(model.labels, _oracle_labels(model, x))

    def test_covariance_floor_holds(self):
        pts = np.vstack([np.tile([0.0, 5.0], (10, 1)),
                         np.tile([5.0, 0.0], (10, 1))])
        model = fit_em(pts, seed=1)
        assert np.all(model.covariances >= 1e-6 * (1 - 1e-12))


def _two_blobs(rng, n=45, s=4, scale=1.0, shift=3.0):
    x = rng.normal(size=(n, s))
    x[: n // 3] += shift
    return x * scale


class TestLogPdf:
    """The component densities behind ``fit_em``'s labels and NLLs."""

    def test_matches_direct_density_formula(self):
        """The NLL of the E-step that met EM_TOL is the returned mixture's,
        from the product of univariate normal densities."""
        rng = make_rng(5)
        for trial in range(10):
            x = _two_blobs(rng, s=4)
            model = fit_em(x, seed=trial)
            assert len(model.nll_trace) < gmm.EM_MAX_ITER
            density = np.prod(
                np.exp(-0.5 * (x[:, None, :] - model.means) ** 2
                       / model.covariances)
                / np.sqrt(2 * np.pi * model.covariances), axis=-1)
            nll = -np.log(density @ model.weights).sum()
            assert model.nll_trace[-1] == pytest.approx(nll, rel=1e-12)

    def test_matches_scipy_norm_logpdf(self):
        stats = pytest.importorskip("scipy.stats")
        special = pytest.importorskip("scipy.special")
        rng = make_rng(6)
        for s in (1, 3, 16):
            for scale in (1e-3, 1.0, 1e3):
                x = _two_blobs(rng, s=s, scale=scale)
                model = fit_em(x, seed=s)
                log_joint = np.log(model.weights) + stats.norm.logpdf(
                    x[:, None, :], model.means,
                    np.sqrt(model.covariances)).sum(axis=-1)
                want = np.exp(log_joint - special.logsumexp(
                    log_joint, axis=1, keepdims=True))
                np.testing.assert_allclose(model.labels.responsibilities,
                                           want, rtol=1e-9, atol=1e-12)


class TestResponsibilities:
    """``fit_em`` hands back the fitted batch's pseudo-labels: the
    posteriors of the returned model on that batch."""

    def test_rows_sum_to_one(self):
        rng = make_rng(12)
        for trial in range(5):
            labels = fit_em(_two_blobs(rng), seed=trial).labels
            np.testing.assert_allclose(labels.responsibilities.sum(axis=1),
                                       1.0, atol=1e-9)
            np.testing.assert_array_equal(
                labels.assignments, np.argmax(labels.responsibilities, axis=1))

    def test_matches_naive_summation(self):
        rng = make_rng(10)
        for trial in range(5):
            x = _two_blobs(rng, s=3)
            model = fit_em(x, seed=trial)
            joint = np.array([[model.weights[k]
                               * np.exp(_oracle_log_density(
                                   row, model.means[k], model.covariances[k]))
                               for k in range(2)] for row in x])
            np.testing.assert_allclose(
                model.labels.responsibilities,
                joint / joint.sum(axis=1, keepdims=True), rtol=0, atol=1e-12)

    def test_midpoint_symmetry(self):
        """A batch mirrored through the origin, each row next to its
        mirror, gets mirrored labels."""
        half = make_rng(8).normal(size=(20, 2)) + 3.0
        x = np.stack([half, -half], axis=1).reshape(-1, 2)
        r = fit_em(x, seed=0).labels.responsibilities
        np.testing.assert_allclose(r[1::2], r[::2, ::-1], rtol=0, atol=1e-9)

    def test_point_at_far_component_mean(self):
        """Blobs 10 sigma apart: each row belongs to its own blob's
        component with posterior above 0.999."""
        rng = make_rng(9)
        x = np.vstack([rng.normal(size=(30, 2)),
                       rng.normal(size=(15, 2)) + [10.0, 0.0]])
        labels = fit_em(x, seed=0).labels
        own = labels.assignments[0]
        np.testing.assert_array_equal(labels.assignments,
                                      np.repeat([own, 1 - own], [30, 15]))
        assert labels.responsibilities.max(axis=1).min() > 0.999

    def test_empty_batch(self):
        with pytest.raises(TooFewSamplesError):
            fit_em(np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_an_error(self, bad):
        """A non-finite row would give NaN posteriors, which argmax files
        under component 0."""
        x = make_rng(4).normal(size=(10, 3))
        x[7, 1] = bad
        with pytest.raises(NonFiniteLossError):
            fit_em(x)


class TestIdentifyMinority:
    def test_smaller_weight_wins(self):
        """The weights decide even when the member counts disagree."""
        model = _two_component([0.0], [1.0], weights=(0.9, 0.1))
        assignments = np.array([0] * 15 + [1] * 30)
        assert identify_minority(model, assignments) == 1

    def test_tie_breaks_on_member_counts(self):
        model = _two_component([0.0], [1.0], weights=(0.5, 0.5))
        assignments = np.array([0] * 30 + [1] * 15)
        assert identify_minority(model, assignments) == 1

    def test_full_tie_gives_component_zero(self):
        model = _two_component([0.0], [1.0], weights=(0.5, 0.5))
        assignments = np.array([0] * 10 + [1] * 10)
        assert identify_minority(model, assignments) == 0


# --- Oracle: the per-restart k-means and the per-component EM loop that the
# restart-batched versions replaced. The batched code must give their bits.

def _oracle_sq_dists(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.sum(diff * diff, axis=2)


def _oracle_kmeans_pp_init(points, rng):
    n = points.shape[0]
    first = points[rng.integers(n)]
    d2 = _oracle_sq_dists(points, first[None])[:, 0]
    total = d2.sum()
    if total <= 0:
        rng.random()
        return np.array([first, first], dtype=np.float64)
    return np.array([first, points[rng.choice(n, p=d2 / total)]],
                    dtype=np.float64)


def _oracle_kmeans(points, restarts=gmm.KMEANS_RESTARTS,
                   max_iter=gmm.KMEANS_MAX_ITER, seed=0):
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if n < 2:
        raise TooFewSamplesError(f"{n} points for 2 centres")
    rng = make_rng(seed)
    best = None
    for _ in range(restarts):
        centers = _oracle_kmeans_pp_init(points, rng)
        assign = None
        for _ in range(max_iter):
            d2 = _oracle_sq_dists(points, centers)
            new_assign = np.argmin(d2, axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(2):
                members = points[assign == j]
                if len(members) == 0:
                    centers[j] = points[np.argmax(np.min(d2, axis=1))]
                else:
                    centers[j] = members.mean(axis=0)
        d2 = _oracle_sq_dists(points, centers)
        assign = np.argmin(d2, axis=1)
        wcss = float(np.sum(d2[np.arange(n), assign]))
        if best is None or wcss < best[2] - 1e-15:
            best = (centers.copy(), assign.copy(), wcss)
    return best


def _oracle_logsumexp(a, axis):
    amax = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(amax, axis) + np.log(np.sum(np.exp(a - amax),
                                                  axis=axis))


def _oracle_component_log_probs(model, x):
    return np.stack([_oracle_log_density(x, model.means[k],
                                         model.covariances[k])
                     + np.log(model.weights[k]) for k in range(2)], axis=1)


def _oracle_labels(model, x):
    """An E-step of ``model`` on ``x``, made apart from EM: the posteriors,
    their argmax and the minority component."""
    log_p = _oracle_component_log_probs(model, x)
    r = np.exp(log_p - _oracle_logsumexp(log_p, axis=1)[:, None])
    assign = np.argmax(r, axis=1)
    return gmm.PseudoLabels(assign, r, identify_minority(model, assign))


def _assert_labels_equal(got, want):
    assert got.responsibilities.tobytes() == want.responsibilities.tobytes()
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.minority_component == want.minority_component


def _oracle_fit_em_once(batch, seed):
    n, s = batch.shape
    centers, assign, _ = _oracle_kmeans(batch, seed=seed)
    weights = np.bincount(assign, minlength=2).astype(np.float64)
    weights = np.clip(weights, 1.0, None)
    weights /= weights.sum()
    means = centers.copy()
    covs = np.empty((2, s))
    for j in range(2):
        members = batch[assign == j]
        var = members.var(axis=0) if len(members) else np.ones(s)
        covs[j] = np.maximum(var, gmm.COV_FLOOR)
    model = GaussianMixture(weights, means, covs, nll_trace=[])
    prev_nll = None
    for _ in range(gmm.EM_MAX_ITER):
        log_p = _oracle_component_log_probs(model, batch)
        lse = _oracle_logsumexp(log_p, axis=1)
        nll = float(-np.sum(lse))
        model.nll_trace.append(nll)
        if prev_nll is not None and abs(prev_nll - nll) < gmm.EM_TOL:
            break
        prev_nll = nll
        r = np.exp(log_p - lse[:, None])
        nk = r.sum(axis=0)
        if np.any(nk < 1.0):
            raise DegenerateComponentError(f"effective counts {nk} below 1")
        model.weights = nk / n
        model.means = (r.T @ batch) / nk[:, None]
        for j in range(2):
            diff = batch - model.means[j]
            var = (r[:, j] @ (diff * diff)) / nk[j]
            model.covariances[j] = np.maximum(var, gmm.COV_FLOOR)
    if (np.allclose(model.means[0], model.means[1], atol=1e-9)
            and np.all(model.covariances <= gmm.COV_FLOOR * (1 + 1e-9))):
        raise DegenerateComponentError("both components collapsed")
    return model


def _oracle_fit_em(batch, seed):
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] < 4:
        raise TooFewSamplesError("too few samples")
    for attempt in range(gmm.EM_RESTARTS):
        try:
            return _oracle_fit_em_once(batch, seed + 1000 * attempt)
        except DegenerateComponentError:
            pass
    raise DegenerateComponentError("degenerate after restarts")


@st.composite
def kmeans_batches(draw):
    """Two shifted normal blobs at scale 1e-3, 1 or 1e3; optionally with the
    second half repeating the first (duplicate points, wcss ties) and
    rounded to integers (coinciding points, -0.0 coordinates)."""
    n = draw(st.integers(2, 60))
    s = draw(st.integers(1, 20))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, s))
    points[: n // 3] += draw(st.floats(0.0, 6.0))
    points *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        points[n // 2:] = points[: n - n // 2]
    if draw(st.booleans()):
        points = np.round(points)
    return points


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _underflow_batch():
    """Points at scale 1e-170 (every squared distance among them underflows
    to 0) beside three at -1.5e-162, -0.5e-162 and +1.5e-162: a first seed
    in the middle sees a total of 0, one at either end a subnormal total,
    which the seed at +1.5e-162 spreads over two points (2:1)."""
    middle = make_rng(6).normal(size=(6, 2)) * 1e-170
    return np.vstack([middle,
                      [[-1.5e-162, 0.0], [-0.5e-162, 0.0], [1.5e-162, 0.0]]])


SEEDING_EDGE_CASES = {
    "identical-points": np.tile([1.5, -2.0], (6, 1)),
    "underflow-in-some-restarts": _underflow_batch(),
    "one-column": make_rng(7).normal(size=(30, 1)),
}


class TestSeedingEdgeCases:
    """Branches of the k-means++ seeding that the property test below
    rarely reaches, pinned to the oracle's bits and to its draws."""

    @pytest.mark.parametrize("case", SEEDING_EDGE_CASES)
    @pytest.mark.parametrize("seed", range(8))
    def test_seeds_and_draws_match_rng_choice(self, case, seed):
        points = SEEDING_EDGE_CASES[case]
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        got = gmm._kmeans_pp_init(points, gmm.KMEANS_RESTARTS, rng)
        want = np.array([_oracle_kmeans_pp_init(points, oracle_rng)
                         for _ in range(gmm.KMEANS_RESTARTS)])
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("case", SEEDING_EDGE_CASES)
    def test_kmeans_matches_per_restart_loop(self, case):
        points = SEEDING_EDGE_CASES[case]
        for seed in range(8):
            got = kmeans(points, seed=seed)
            want = _oracle_kmeans(points, seed=seed)
            assert got[0].tobytes() == want[0].tobytes()
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_underflow_case_mixes_zero_and_positive_totals(self):
        """The premise of the underflow case: over the seeds above, some
        first seeds see a total of 0 and others a positive one, in some
        restarts spread over more than one point, so the draws that follow
        a zero-total restart are compared on a spread distribution too."""
        points = _underflow_batch()
        d2 = _oracle_sq_dists(points, points)
        seen = set()
        for seed in range(8):
            rng = make_rng(seed)
            for _ in range(gmm.KMEANS_RESTARTS):
                first = _oracle_kmeans_pp_init(points, rng)[0]
                seen.add(int((d2[(points == first).all(axis=1)][0] > 0).sum()))
        assert {0, 2} <= seen


class TestRestartBatchedOracle:
    @settings(max_examples=250, deadline=None, derandomize=True,
              database=None)
    @given(kmeans_batches(), st.integers(1, 11),
           st.sampled_from([gmm.KMEANS_MAX_ITER, 0, 1, 2, 3]),
           st.integers(0, 2**16))
    def test_kmeans_matches_per_restart_loop(self, points, restarts,
                                             max_iter, seed):
        with mock.patch.object(gmm, "KMEANS_RESTARTS", restarts), \
                mock.patch.object(gmm, "KMEANS_MAX_ITER", max_iter):
            got = kmeans(points, seed=seed)
        want = _oracle_kmeans(points, restarts=restarts, max_iter=max_iter,
                              seed=seed)
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]

    @settings(max_examples=250, deadline=None, derandomize=True,
              database=None)
    @given(kmeans_batches(), st.integers(0, 2**16))
    def test_fit_em_matches_per_component_loop(self, batch, seed):
        got = _outcome(fit_em, batch, seed=seed)
        want = _outcome(_oracle_fit_em, batch, seed)
        if isinstance(want, type):
            assert got is want
            return
        for name in ("weights", "means", "covariances"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name
        assert got.nll_trace == want.nll_trace


class TestComponentLogProbs:
    """The E-step behind ``fit_em``'s labels."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kmeans_batches(), st.integers(0, 2**16),
           st.sampled_from([gmm.EM_MAX_ITER, 2]))
    def test_equals_per_component_log_pdf(self, batch, seed, max_iter):
        """Whether EM stops on EM_TOL or runs out of iterations, the labels
        have the bits of the closed-form density of each component on its
        own, taken at the returned model."""
        with mock.patch.object(gmm, "EM_MAX_ITER", max_iter):
            model = _outcome(fit_em, batch, seed=seed)
        if not isinstance(model, type):
            _assert_labels_equal(model.labels, _oracle_labels(model, batch))
