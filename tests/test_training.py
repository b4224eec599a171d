import numpy as np
import pytest

from comclust import autodiff as ad
from comclust import gmm, losses, training
from comclust.autodiff import make_rng
from comclust.dataio import TEST, TRAIN, BlobSpec, LabeledDataset, \
    split_dataset, synth_imbalanced
from comclust.encoder import AdamConfig, embed
from comclust.errors import (MissingClassError, NonFiniteLossError,
                             TooFewSamplesError)
from comclust.losses import (C_MAJ, C_MIN, TRIPLET_MARGIN, ClassWeights,
                             MarginSpec)
from comclust.training import (EQUAL, INVERSE_FREQUENCY, TrainConfig,
                               batch_class_weights, best_permutation_accuracy,
                               evaluate_classifier, evaluate_prototypes,
                               sample_triplets, train_classifier, train_sdc,
                               train_udc)


def _dataset(n_maj=120, n_min=40, dim=4, separation=6.0, seed=0):
    return split_dataset(
        synth_imbalanced(BlobSpec(n_maj=n_maj, n_min=n_min, dim=dim,
                                  separation=separation, seed=seed)),
        seed=seed + 1)


def _fast(seed=0, **kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("hidden", (16,))
    kw.setdefault("embedding_dim", 8)
    return TrainConfig(seed=seed, **kw)


class TestTrainConfig:
    def test_hashable(self):
        assert hash(TrainConfig()) == hash(TrainConfig())

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestSampleTriplets:
    def test_class_structure(self):
        labels = np.array([0] * 20 + [1] * 5)
        rng = make_rng(3)
        for _ in range(20):
            a, p, n = sample_triplets(labels, 8, rng)
            np.testing.assert_array_equal(labels[a], labels[p])
            np.testing.assert_array_equal(labels[n], 1 - labels[a])
            assert np.all(a != p)

    def test_singleton_class_reuses_anchor(self):
        labels = np.array([0, 0, 0, 1])
        rng = make_rng(4)
        a, p, n = sample_triplets(labels, 30, rng)
        minority_anchors = labels[a] == 1
        assert np.all(p[minority_anchors] == a[minority_anchors])

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            sample_triplets(np.zeros(10, dtype=int), 4, make_rng(0))

    def test_deterministic(self):
        labels = np.array([0] * 10 + [1] * 10)
        a1 = sample_triplets(labels, 6, make_rng(7))
        a2 = sample_triplets(labels, 6, make_rng(7))
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)


class TestTrainSdc:
    def test_log_lengths_and_monotone_separation(self):
        ds = _dataset()
        config = _fast(batch_size=10)
        result = train_sdc(ds, config)
        x_train, _ = ds.subset(TRAIN)
        expected = config.epochs * (len(x_train) // config.batch_size)
        assert len(result.losses) == len(result.separations) == expected
        assert np.all(np.isfinite(result.losses))
        assert np.all(np.diff(result.separations) >= 0.0)
        assert result.prototypes.feature_mask is not None

    def test_deterministic(self):
        ds = _dataset()
        a = train_sdc(ds, _fast(batch_size=10))
        b = train_sdc(ds, _fast(batch_size=10))
        assert a.losses == b.losses
        for pa, pb in zip(a.params.arrays, b.params.arrays):
            np.testing.assert_array_equal(pa, pb)

    def test_traditional_triplet_variant_runs(self):
        ds = _dataset()
        result = train_sdc(ds, _fast(batch_size=10, loss_kind="triplet"))
        assert np.all(np.isfinite(result.losses))

    def test_zero_iterations_rejected(self):
        ds = _dataset(n_maj=8, n_min=4, seed=3)
        with pytest.raises(TooFewSamplesError):
            train_sdc(ds, TrainConfig(batch_size=500, epochs=1))

    def test_learns_separable_problem(self):
        ds = _dataset(n_maj=400, n_min=40, dim=8, seed=5)
        result = train_sdc(ds, TrainConfig(seed=5, epochs=4))
        x, y = ds.subset(TEST)
        out = evaluate_prototypes(result.params, result.encoder_config,
                                  result.prototypes, x, y)
        assert out["metrics"]["accuracy"] >= 0.9


class TestTrainUdc:
    def test_ignores_labels(self):
        # identical features with permuted labels must train identically
        base = _dataset(n_maj=150, n_min=50, seed=2)
        shuffled = LabeledDataset(base.features,
                                  np.random.default_rng(0).permutation(base.labels),
                                  base.splits)
        config = _fast(seed=2, batch_size=5)
        a = train_udc(base, config)
        b = train_udc(shuffled, config)
        assert a.losses == b.losses
        for pa, pb in zip(a.params.arrays, b.params.arrays):
            np.testing.assert_array_equal(pa, pb)

    def test_log_includes_gmm_nll_and_monotone_separation(self):
        result = train_udc(_dataset(seed=4), _fast(seed=4, batch_size=5))
        assert len(result.gmm_nlls) == len(result.losses)
        assert np.all(np.isfinite(result.gmm_nlls))
        assert np.all(np.diff(result.separations) >= 0.0)

    def test_deterministic(self):
        ds = _dataset(seed=6)
        a = train_udc(ds, _fast(seed=6, batch_size=5))
        b = train_udc(ds, _fast(seed=6, batch_size=5))
        assert a.losses == b.losses

    @pytest.mark.parametrize("loss_kind, called, margin", [
        ("com", "com_triplet_loss", MarginSpec("adaptive")),
        ("triplet", "triplet_loss_batch", TRIPLET_MARGIN),
    ])
    def test_step_takes_the_batch_loss_on_center_rows(
            self, loss_kind, called, margin, monkeypatch):
        """Each anchor's own GMM mean is its positive and the other mean
        its negative, under the loss that SDC takes for the same kind."""
        fits, labels, calls = [], [], []

        def recording(fn, into):
            def wrapped(*args, **kwargs):
                into.append(fn(*args, **kwargs))
                return into[-1]
            return wrapped

        def capture(*args):
            calls.append(args)
            return getattr(losses, called)(*args)

        monkeypatch.setattr(gmm, "fit_em", recording(gmm.fit_em, fits))
        monkeypatch.setattr(gmm, "responsibilities",
                            recording(gmm.responsibilities, labels))
        for name in ("com_triplet_loss", "triplet_loss_batch"):
            monkeypatch.setattr(training, name, capture if name == called
                                else None)
        result = train_udc(_dataset(seed=4),
                           _fast(seed=4, batch_size=5, loss_kind=loss_kind))
        assert len(calls) == len(fits) == len(result.losses)
        for (anchors, own, other, got), model, label in zip(calls, fits,
                                                            labels):
            assert ad.value_of(anchors).shape == own.shape == (15, 8)
            np.testing.assert_array_equal(own, model.means[label.assignments])
            np.testing.assert_array_equal(other,
                                          model.means[1 - label.assignments])
            assert got == margin


class TestClassWeights:
    def test_equal(self):
        w = batch_class_weights(np.array([0, 0, 1]), EQUAL)
        assert (w.w_min, w.w_maj) == (1.0, 1.0)

    def test_inverse_frequency(self):
        w = batch_class_weights(np.array([0] * 9 + [1]), INVERSE_FREQUENCY)
        assert w.w_min == pytest.approx(10 / 2.0)
        assert w.w_maj == pytest.approx(10 / 18.0)

    def test_weighted_mean_is_one(self):
        rng = make_rng(8)
        for _ in range(50):
            labels = rng.integers(0, 2, size=int(rng.integers(2, 40)))
            if len(np.unique(labels)) < 2:
                continue
            w = batch_class_weights(labels, INVERSE_FREQUENCY)
            n_min = np.sum(labels == C_MIN)
            n_maj = np.sum(labels == C_MAJ)
            mean_w = (w.w_min * n_min + w.w_maj * n_maj) / len(labels)
            assert mean_w == pytest.approx(1.0, abs=1e-12)

    def test_missing_class_falls_back_to_equal(self):
        w = batch_class_weights(np.zeros(6, dtype=int), INVERSE_FREQUENCY)
        assert (w.w_min, w.w_maj) == (1.0, 1.0)


class TestTrainClassifier:
    def test_learns_separable_problem(self):
        ds = _dataset(n_maj=400, n_min=40, dim=8, seed=9)
        result = train_classifier(ds, TrainConfig(seed=9, epochs=4))
        x, y = ds.subset(TEST)
        out = evaluate_classifier(result.params, result.encoder_config, x, y)
        assert out["metrics"]["accuracy"] >= 0.9
        assert out["metrics"]["auc"] >= 0.95
        assert np.all(np.isfinite(result.losses))

    def test_invalid_weighting(self):
        with pytest.raises(ValueError):
            train_classifier(_dataset(), _fast(), weighting="nope")

    def test_deterministic(self):
        ds = _dataset(seed=10)
        a = train_classifier(ds, _fast(seed=10))
        b = train_classifier(ds, _fast(seed=10))
        assert a.losses == b.losses

    def test_probabilities_in_unit_interval(self):
        ds = _dataset(seed=11)
        result = train_classifier(ds, _fast(seed=11))
        x, y = ds.subset(TEST)
        p = np.array(evaluate_classifier(result.params, result.encoder_config,
                                         x, y)["scores"])
        assert np.all((p >= 0.0) & (p <= 1.0))


class TestEvaluation:
    def test_single_class_split_gives_none_auc(self):
        ds = _dataset(seed=12)
        result = train_classifier(ds, _fast(seed=12))
        x, _ = ds.subset(TEST)
        out = evaluate_classifier(result.params, result.encoder_config, x,
                                  np.zeros(len(x), dtype=int))
        assert out["metrics"]["auc"] is None

    def test_prediction_and_score_lengths(self):
        ds = _dataset(seed=13)
        result = train_sdc(ds, _fast(seed=13, batch_size=10))
        x, y = ds.subset(TEST)
        out = evaluate_prototypes(result.params, result.encoder_config,
                                  result.prototypes, x, y)
        assert len(out["predictions"]) == len(out["scores"]) == len(x)

    def test_inference_builds_no_graph(self, monkeypatch):
        ds = _dataset(seed=14)
        sdc = train_sdc(ds, _fast(seed=14, batch_size=10))
        clf = train_classifier(ds, _fast(seed=14))
        x, y = ds.subset(TEST)
        built = []
        init = ad.Var.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Var, "__init__", counting_init)
        embed(sdc.params, sdc.encoder_config, x)
        evaluate_prototypes(sdc.params, sdc.encoder_config, sdc.prototypes,
                            x, y)
        evaluate_classifier(clf.params, clf.encoder_config, x, y)
        assert built == []
        ad.Var(np.zeros(1))     # the counter itself is live
        assert built == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_raises(self, bad):
        y = np.array([0, 1, 1])
        with pytest.raises(NonFiniteLossError, match="1 of 3 scores"):
            training._aggregate(y, np.array([0, 1, 1]),
                                np.array([0.2, bad, 0.9]))


class TestBestPermutationAccuracy:
    def test_flip_invariance(self):
        y = np.array([0, 1, 0, 1, 1])
        p = np.array([1, 0, 1, 0, 0])
        assert best_permutation_accuracy(y, p) == 1.0

    def test_at_least_half(self):
        rng = make_rng(15)
        for _ in range(30):
            y = rng.integers(0, 2, size=20)
            p = rng.integers(0, 2, size=20)
            assert best_permutation_accuracy(y, p) >= 0.5
