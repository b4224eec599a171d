import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comclust import autodiff as ad
from comclust import encoder as enc
from comclust import gmm, losses, training
from comclust.autodiff import make_rng
from comclust.dataio import TEST, TRAIN, VAL, BlobSpec, LabeledDataset, \
    split_dataset, synth_imbalanced
from comclust.encoder import AdamConfig, embed
from comclust.errors import (EmptyBatchError, InvalidSpecError,
                             MissingClassError, NonFiniteLossError,
                             TooFewSamplesError)
from comclust.losses import C_MAJ, C_MIN, ClassWeights
from comclust.prototypes import infer_label, malignancy_score, \
    update_prototypes
from comclust.training import (EQUAL, INVERSE_FREQUENCY, TrainConfig,
                               batch_class_weights, best_permutation_accuracy,
                               class_layout, evaluate_classifier,
                               evaluate_prototypes, sample_triplets,
                               train_classifier, train_sdc, train_udc)
from helpers import sample_triplets_loop


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


@pytest.mark.parametrize("train", [train_sdc, train_udc, train_classifier])
def test_training_needs_a_split(train):
    unsplit = synth_imbalanced(BlobSpec(n_maj=40, n_min=12, dim=4, seed=0))
    with pytest.raises(InvalidSpecError, match="not been split"):
        train(unsplit, _fast())


@pytest.mark.parametrize("train", [train_sdc, train_udc])
def test_unknown_loss_kind_refused_before_any_work(train, monkeypatch):
    """The loss kind is refused before the split is read (this dataset has
    none), a parameter drawn or a mixture fitted."""
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(enc, "init_encoder_params", no_work)
    monkeypatch.setattr(gmm, "fit_em", no_work)
    unsplit = synth_imbalanced(BlobSpec(n_maj=40, n_min=12, dim=4, seed=0))
    with pytest.raises(InvalidSpecError,
                       match="^unknown loss kind 'margin'$"):
        train(unsplit, _fast(), loss_kind="margin")


class TestSampleTriplets:
    def test_class_structure(self):
        labels = np.array([0] * 20 + [1] * 5)
        layout = class_layout(labels)
        rng = make_rng(3)
        for _ in range(20):
            a, p, n = sample_triplets(layout, 8, rng)
            np.testing.assert_array_equal(labels[a], labels[p])
            np.testing.assert_array_equal(labels[n], 1 - labels[a])
            assert np.all(a != p)

    def test_singleton_class_reuses_anchor(self):
        labels = np.array([0, 0, 0, 1])
        rng = make_rng(4)
        layout = class_layout(labels)
        np.testing.assert_array_equal(layout.highs, [[2, 1], [1, 3]])
        np.testing.assert_array_equal(layout.skips, [True, False])
        a, p, n = sample_triplets(layout, 30, rng)
        minority_anchors = labels[a] == 1
        assert np.all(p[minority_anchors] == a[minority_anchors])

    def test_layout_orders_rows_by_class(self):
        """Class sizes, the rows in stable class order, each row's rank
        within its class, and per anchor class the (P, N) highs, where the
        (P, N) classes start in that order and whether P skips the
        anchor."""
        labels = np.array([1, 0, 0, 1, 0])
        layout = class_layout(labels)
        np.testing.assert_array_equal(layout.labels, labels)
        np.testing.assert_array_equal(layout.sizes, [3, 2])
        np.testing.assert_array_equal(layout.by_class, [1, 2, 4, 0, 3])
        np.testing.assert_array_equal(layout.ranks, [0, 0, 1, 1, 2])
        np.testing.assert_array_equal(layout.highs, [[2, 2], [1, 3]])
        np.testing.assert_array_equal(layout.bases, [[0, 3], [3, 0]])
        np.testing.assert_array_equal(layout.skips, [True, True])

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            class_layout(np.zeros(10, dtype=int))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_the_two_classes(self, bad):
        with pytest.raises(InvalidSpecError, match="labels must be"):
            class_layout(np.array([0, 1, 0, bad]))

    def test_deterministic(self):
        labels = np.array([0] * 10 + [1] * 10)
        a1 = sample_triplets(class_layout(labels), 6, make_rng(7))
        a2 = sample_triplets(class_layout(labels), 6, make_rng(7))
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n_maj=st.integers(1, 50), n_min=st.integers(1, 50),
           ms=st.lists(st.integers(1, 70), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_same_stream_as_the_loop(self, data, n_maj, n_min, ms, seed):
        """Equal triples and an equal generator state after every call of a
        run of calls on one generator; P is never A in a class of two or
        more."""
        labels = np.array(data.draw(st.permutations([C_MAJ] * n_maj
                                                    + [C_MIN] * n_min)))
        sizes = np.array([n_maj, n_min])
        layout = class_layout(labels)
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        for m in ms:
            got = sample_triplets(layout, m, rng)
            want = sample_triplets_loop(layout, m, oracle_rng)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            a, p, _ = got
            shared = sizes[labels[a]] >= 2
            assert np.all(p[shared] != a[shared])

    def test_two_member_class_gives_the_other_row(self):
        """In a two-row class, every anchor's P is the other row: the one P
        draw has a bound of 1 and steps past the anchor when it lands on
        the anchor's rank."""
        labels = np.array([C_MAJ] * 20 + [C_MIN] * 2)
        make_rng(5).shuffle(labels)
        pair = np.flatnonzero(labels == C_MIN)
        layout = class_layout(labels)
        rng = make_rng(11)
        a, p, _ = (np.concatenate(d) for d in zip(
            *[sample_triplets(layout, 60, rng) for _ in range(5)]))
        in_pair = labels[a] == C_MIN
        assert set(a[in_pair]) == set(pair)
        np.testing.assert_array_equal(p[in_pair],
                                      pair[0] + pair[1] - a[in_pair])

    def test_draws_are_uniform_within_each_class(self):
        """Anchors are uniform over the split, and P and N over their
        class's rows (chi-square at a fixed seed)."""
        stats = pytest.importorskip("scipy.stats")
        labels = np.array([C_MAJ] * 12 + [C_MIN] * 5)
        make_rng(2).shuffle(labels)
        rng = make_rng(21)
        layout = class_layout(labels)
        draws = [sample_triplets(layout, 60, rng) for _ in range(200)]
        a, p, n = (np.concatenate(d) for d in zip(*draws))
        counts = {"anchor": np.bincount(a, minlength=len(labels))}
        for c in (C_MAJ, C_MIN):
            rows = np.flatnonzero(labels == c)
            counts[f"P of class {c}"] = np.bincount(
                p[labels[a] == c], minlength=len(labels))[rows]
            counts[f"N of class {c}"] = np.bincount(
                n[labels[a] != c], minlength=len(labels))[rows]
        for role, observed in counts.items():
            assert observed.sum() > 0
            assert stats.chisquare(observed).pvalue > 0.001, role

    def test_one_warning_per_single_member_anchor(self, caplog):
        """The sampler gives a single-member class's anchors P = A without
        a warning; train_sdc warns once per such class, however many of
        its anchors the run draws."""
        labels = np.array([C_MAJ] * 10 + [C_MIN])
        with caplog.at_level(logging.WARNING, logger="comclust.training"):
            a, p, _ = sample_triplets(class_layout(labels), 40, make_rng(6))
        single = labels[a] == C_MIN
        assert np.count_nonzero(single) > 1
        np.testing.assert_array_equal(p[single], a[single])
        assert caplog.records == []
        ds = LabeledDataset(np.arange(22.0).reshape(11, 2), labels,
                            np.array([TRAIN] * 11))
        with caplog.at_level(logging.WARNING, logger="comclust.training"):
            train_sdc(ds, _fast(batch_size=5, epochs=3))
        assert [(r.name, r.levelno, r.getMessage())
                for r in caplog.records] == [
            ("comclust.training", logging.WARNING,
             "class 1 has a single training sample; using P = A")]


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

    def test_deterministic(self):
        ds = _dataset()
        a = train_sdc(ds, _fast(batch_size=10))
        b = train_sdc(ds, _fast(batch_size=10))
        assert a.losses == b.losses
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_traditional_triplet_variant_runs(self):
        ds = _dataset()
        result = train_sdc(ds, _fast(batch_size=10), loss_kind="triplet")
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
        for pa, pb in zip(a.params, b.params):
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

    @pytest.mark.parametrize("loss_kind, called", [
        ("com", "com_triplet_loss"),
        ("triplet", "triplet_loss_batch"),
    ])
    def test_step_takes_the_batch_loss_on_center_rows(
            self, loss_kind, called, monkeypatch):
        """Each anchor's own GMM mean is its positive and the other mean
        its negative, under the loss that SDC takes for the same kind; the
        offered prototype pair leads with the minority component's mean."""
        fits, calls, offers = [], [], []
        fit_em = gmm.fit_em

        def recording(*args, **kwargs):
            fits.append(fit_em(*args, **kwargs))
            return fits[-1]

        def capture(*args):
            calls.append(args)
            return getattr(losses, called)(*args)

        def offered(current, cl_min, cl_maj):
            offers.append((cl_min, cl_maj))
            return update_prototypes(current, cl_min, cl_maj)

        monkeypatch.setattr(gmm, "fit_em", recording)
        monkeypatch.setattr(training, "update_prototypes", offered)
        for name in ("com_triplet_loss", "triplet_loss_batch"):
            monkeypatch.setattr(training, name, capture if name == called
                                else None)
        result = train_udc(_dataset(seed=4), _fast(seed=4, batch_size=5),
                           loss_kind=loss_kind)
        assert len(calls) == len(fits) == len(offers) == len(result.losses)
        for (anchors, own, other), model, pair in zip(calls, fits, offers):
            assert ad.value_of(anchors).shape == own.shape == (15, 8)
            assign = model.assignments
            np.testing.assert_array_equal(own, model.means[assign])
            np.testing.assert_array_equal(other, model.means[1 - assign])
            k = training._minority_component(model.weights, assign)
            np.testing.assert_array_equal(pair[0], model.means[k])
            np.testing.assert_array_equal(pair[1], model.means[1 - k])


class TestMinorityComponent:
    """The component UDC reads as the rare class."""

    def test_smaller_weight_wins(self):
        """The weights decide even when the member counts disagree."""
        assignments = np.array([0] * 15 + [1] * 30)
        assert training._minority_component(np.array([0.9, 0.1]),
                                            assignments) == 1

    def test_tie_breaks_on_member_counts(self):
        assignments = np.array([0] * 30 + [1] * 15)
        assert training._minority_component(np.array([0.5, 0.5]),
                                            assignments) == 1

    def test_full_tie_gives_component_zero(self):
        assignments = np.array([0] * 10 + [1] * 10)
        assert training._minority_component(np.array([0.5, 0.5]),
                                            assignments) == 0


class TestSameProgram:
    """The fused dense layers and hinges, the loss's split of the stacked
    batch, the lazy prototype update and the in-place Adam step give the
    bits of the same step composed from elementary primitives
    (``conftest.py``)."""

    @pytest.mark.parametrize("mode", ["sdc-com", "sdc-triplet", "classifier"])
    def test_training_has_the_bits_of_the_composed_step(self, mode,
                                                        monkeypatch,
                                                        composed):
        ds = _dataset(seed=9)
        config = _fast(seed=9, batch_size=10, hidden=(16, 12), epochs=5)

        def run():
            if mode == "classifier":
                return train_classifier(ds, config)
            return train_sdc(ds, config, loss_kind=mode.split("-")[-1])

        shipped = run()
        called = set()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapped

        for module, name in [(enc, "forward"), (enc, "minority_probability"),
                             (enc, "adam_step"), (ad, "take_rows"),
                             (training, "com_triplet_loss"),
                             (training, "triplet_loss_batch"),
                             (training, "update_prototypes")]:
            monkeypatch.setattr(module, name,
                                counted(name, getattr(composed, name)))
        reference = run()
        expected = {"forward", "adam_step"} | (
            {"minority_probability"} if mode == "classifier" else
            {"take_rows", "update_prototypes",
             "com_triplet_loss" if mode == "sdc-com" else "triplet_loss_batch"})
        assert called == expected
        assert ([a.tobytes() for a in shipped.params]
                == [a.tobytes() for a in reference.params])
        assert shipped.losses == reference.losses
        assert shipped.separations == reference.separations
        assert len(shipped.losses) > 0
        if mode == "classifier":
            assert shipped.prototypes is reference.prototypes is None
            return
        for field in ("cl_min", "cl_maj", "separation"):
            assert (np.asarray(getattr(shipped.prototypes, field)).tobytes()
                    == np.asarray(getattr(reference.prototypes,
                                          field)).tobytes())


class TestSamplerSameProgram:
    """SDC trained with the per-anchor loop in place of the array sampler
    gives the same bits."""

    @pytest.mark.parametrize("case", ["criterion-6-com", "40:3-com",
                                      "40:3-triplet", "singleton-com",
                                      "singleton-triplet"])
    def test_train_sdc_has_the_bits_of_the_loop(self, case, monkeypatch):
        """40:3 leaves two minority rows in the train split, so each of
        their anchors takes the other as P; "singleton" keeps one, which is
        its own positive."""
        if case.startswith("criterion-6"):
            # tests/test_acceptance.py's _blobs(0)
            ds = split_dataset(synth_imbalanced(BlobSpec(
                n_maj=800, n_min=80, dim=8, separation=6.0, seed=100)),
                seed=200)
        elif case.startswith("singleton"):
            blobs = synth_imbalanced(BlobSpec(n_maj=40, n_min=3, dim=8,
                                              separation=6.0, seed=4))
            splits = np.full(blobs.n_samples, TRAIN)
            splits[np.flatnonzero(blobs.labels == C_MIN)[1:]] = VAL
            ds = LabeledDataset(blobs.features, blobs.labels, splits)
        else:
            ds = _dataset(n_maj=40, n_min=3, dim=8, seed=4)
        if not case.startswith("criterion-6"):
            _, y = ds.subset(TRAIN)
            assert np.count_nonzero(y == C_MIN) == (
                1 if case.startswith("singleton") else 2)
        config, loss_kind = TrainConfig(seed=3), case.split("-")[-1]
        shipped = train_sdc(ds, config, loss_kind)
        monkeypatch.setattr(training, "sample_triplets", sample_triplets_loop)
        reference = train_sdc(ds, config, loss_kind)
        assert ([a.tobytes() for a in shipped.params]
                == [a.tobytes() for a in reference.params])
        assert shipped.losses == reference.losses
        assert shipped.separations == reference.separations
        for field in ("cl_min", "cl_maj", "separation"):
            assert (np.asarray(getattr(shipped.prototypes, field)).tobytes()
                    == np.asarray(getattr(reference.prototypes,
                                          field)).tobytes())


@pytest.mark.parametrize("n, k", [(30, 45), (45, 45), (60, 45), (1, 3)])
def test_sample_rows_draws_distinct_rows(n, k):
    """min(k, n) distinct rows: a split smaller than the batch is used
    whole, each row once."""
    rows = training._sample_rows(n, k, make_rng(0))
    assert len(rows) == len(np.unique(rows)) == min(k, n)
    assert 0 <= rows.min() and rows.max() < n


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

    def test_missing_class_refused(self):
        """A training split without a class-1 row is refused."""
        ds = _dataset(seed=12)
        keep = (ds.splits != TRAIN) | (ds.labels == C_MAJ)
        one_class = LabeledDataset(ds.features[keep], ds.labels[keep],
                                   ds.splits[keep])
        with pytest.raises(MissingClassError,
                           match="^no samples of class 1$"):
            train_classifier(one_class, _fast(seed=12))

    def test_non_finite_loss_names_the_iteration(self, monkeypatch):
        monkeypatch.setattr(training, "weighted_cross_entropy",
                            lambda *args: ad.Var(np.nan))
        with pytest.raises(NonFiniteLossError,
                           match="^loss nan at iteration 0$"):
            train_classifier(_dataset(seed=13), _fast(seed=13))

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

    @staticmethod
    def _evaluate_untrained(mode, y):
        """``mode``'s evaluator on len(y) random rows of an untrained
        model: the prototype pair of two random centres, or the head."""
        config = enc.EncoderConfig(input_dim=3, hidden=(16,), embedding_dim=8)
        rng = make_rng(15)
        x = rng.normal(size=(len(y), 3))
        if mode == "prototypes":
            params = enc.init_encoder_params(config, rng)
            proto = update_prototypes(None, rng.normal(size=8),
                                      rng.normal(size=8))
            return evaluate_prototypes(params.arrays, config, proto, x, y)
        params = enc.init_encoder_params(config, rng, enc.HEAD_OUTPUTS)
        return evaluate_classifier(params.arrays, config, x, y)

    @pytest.mark.parametrize("mode", ["prototypes", "classifier"])
    def test_label_outside_the_classes_is_refused(self, mode):
        with pytest.raises(InvalidSpecError, match="labels must be 0 or 1"):
            self._evaluate_untrained(mode, np.array([0, 1, 1, 0, 2, 1]))

    @pytest.mark.parametrize("mode", ["prototypes", "classifier"])
    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_split_gives_none_auc(self, mode, label):
        out = self._evaluate_untrained(mode, np.full(6, label))
        assert out["metrics"]["auc"] is None

    def test_prediction_and_score_lengths(self):
        ds = _dataset(seed=13)
        result = train_sdc(ds, _fast(seed=13, batch_size=10))
        x, y = ds.subset(TEST)
        out = evaluate_prototypes(result.params, result.encoder_config,
                                  result.prototypes, x, y)
        assert len(out["predictions"]) == len(out["scores"]) == len(x)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(0, 40), block=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    @example(n=11, block=5, seed=0)     # a last block of one row
    @example(n=1, block=3, seed=1)
    @example(n=0, block=2, seed=2)
    def test_blocks_give_the_whole_batch_bits(self, n, block, seed):
        """Scored in blocks of 1-5 rows, a split gets the bits of embedding,
        labelling and scoring it whole; an empty split raises
        EmptyBatchError either way."""
        config = enc.EncoderConfig(input_dim=3, hidden=(16,), embedding_dim=8)
        params = enc.init_encoder_params(config, make_rng(seed))
        params.flat[:] = make_rng(seed + 1).normal(scale=0.7,
                                                   size=params.flat.size)
        rng = make_rng(seed + 2)
        proto = update_prototypes(None, rng.normal(size=8),
                                  rng.normal(size=8))
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)

        def whole():
            # stacked twice, so that a lone row, too, runs as a batch
            emb = embed(params.arrays, config, np.concatenate([x, x]))[:n]
            preds, d_min, d_maj = infer_label(emb, proto)
            return training._aggregate(y, preds,
                                       malignancy_score(d_min, d_maj))

        def blocked():
            with mock.patch.object(training, "INFER_BLOCK_ROWS", block):
                return evaluate_prototypes(params.arrays, config, proto, x, y)

        if n == 0:
            for score in (whole, blocked):
                with pytest.raises(EmptyBatchError):
                    score()
            return
        want, got = whole(), blocked()
        assert got["metrics"] == want["metrics"]
        for key in ("predictions", "scores"):
            assert got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes()

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
