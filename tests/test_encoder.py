import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comclust import autodiff as ad
from comclust import checkpoint as ckpt
from comclust import encoder as enc
from comclust import training
from comclust.autodiff import Var, backward, grad_of, make_rng
from comclust.encoder import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, HEAD_OUTPUTS,
                              MAX_PARAMETERS, AdamConfig, EncoderConfig,
                              ParamStore, adam_step, classify, embed,
                              forward, init_encoder_params,
                              minority_probability, param_shapes)
from comclust.errors import (InvalidSpecError, NonFiniteLossError,
                             ShapeMismatchError)
from comclust.losses import com_triplet_loss
from comclust.prototypes import (infer_label, malignancy_score,
                                 update_prototypes)
from comclust.training import evaluate_classifier, evaluate_prototypes


class TestForward:
    def test_identity_network(self):
        config = EncoderConfig(input_dim=3, hidden=(), embedding_dim=3,
                               dropout_rate=0.0)
        store = ParamStore([np.eye(3), np.zeros(3)])
        x = make_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(embed(store.arrays, config, x), x,
                                   atol=1e-15)

    def test_eval_mode_deterministic(self):
        config = EncoderConfig(input_dim=5, hidden=(8,), embedding_dim=4)
        store = init_encoder_params(config, make_rng(2))
        x = make_rng(3).normal(size=(6, 5))
        np.testing.assert_array_equal(embed(store.arrays, config, x),
                                      embed(store.arrays, config, x))

    def test_train_mode_dropout_changes_output(self):
        config = EncoderConfig(input_dim=5, hidden=(16,), embedding_dim=4,
                               dropout_rate=0.5)
        store = init_encoder_params(config, make_rng(4))
        x = make_rng(5).normal(size=(6, 5))
        a = forward(store.wrap(), config, x, train_mode=True, rng=make_rng(7)).value
        b = forward(store.wrap(), config, x, train_mode=False).value
        assert not np.allclose(a, b)

    def test_train_mode_dropout_without_rng_is_a_spec_error(self):
        config = EncoderConfig(input_dim=5, hidden=(16,), embedding_dim=4,
                               dropout_rate=0.5)
        store = init_encoder_params(config, make_rng(4))
        x = make_rng(5).normal(size=(6, 5))
        with pytest.raises(InvalidSpecError, match="needs an rng"):
            forward(store.wrap(), config, x, train_mode=True)

    def test_shape_mismatch(self):
        config = EncoderConfig(input_dim=5, hidden=(8,), embedding_dim=4)
        store = init_encoder_params(config, make_rng(6))
        with pytest.raises(ShapeMismatchError):
            embed(store.arrays, config, np.ones((3, 4)))

    def test_seeded_init_reproducible(self):
        config = EncoderConfig(input_dim=7, hidden=(10, 10), embedding_dim=5)
        a = init_encoder_params(config, make_rng(11))
        b = init_encoder_params(config, make_rng(11))
        for x, y in zip(a.arrays, b.arrays):
            np.testing.assert_array_equal(x, y)

    def test_loss_gradients_match_finite_differences(self):
        # COM-triplet loss through the encoder, dropout disabled
        config = EncoderConfig(input_dim=4, hidden=(16,), embedding_dim=3,
                               dropout_rate=0.0)
        store = init_encoder_params(config, make_rng(8))
        x = make_rng(9).normal(size=(6, 4))

        def loss_value():
            emb = forward(store.wrap(), config, x, train_mode=False)
            return com_triplet_loss(
                ad.take_rows(emb, [0, 1]), ad.take_rows(emb, [2, 3]),
                ad.take_rows(emb, [4, 5]))

        param_vars = store.wrap()
        emb = forward(param_vars, config, x, train_mode=False)
        loss = com_triplet_loss(
            ad.take_rows(emb, [0, 1]), ad.take_rows(emb, [2, 3]),
            ad.take_rows(emb, [4, 5]))
        backward(loss)

        h = 1e-4
        for arr, var in zip(store.arrays, param_vars):
            analytic = grad_of(var)
            flat = arr.ravel()
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_value().item()
                flat[i] = orig - h
                fm = loss_value().item()
                flat[i] = orig
                num[i] = (fp - fm) / (2 * h)
            denom = np.maximum.reduce([np.abs(analytic.ravel()), np.abs(num),
                                       np.full_like(num, 1e-8)])
            assert np.max(np.abs(analytic.ravel() - num) / denom) < 1e-3


def _assert_views_of_flat(store: ParamStore, shapes: list) -> None:
    """``store.arrays`` are views of ``store.flat`` with ``shapes``, laid
    out back to back in that order, and the moments match ``flat``."""
    assert [a.shape for a in store.arrays] == shapes
    assert store.m.shape == store.v.shape == store.flat.shape
    store.flat[:] = np.arange(store.flat.size)
    np.testing.assert_array_equal(
        np.concatenate([a.ravel() for a in store.arrays]),
        np.arange(store.flat.size))


class TestSizeCap:
    def test_cap_counts_weights_and_biases(self):
        """(9999 + 1) * 1000 parameters is the cap exactly; one more input
        passes it. Only the config is built, nothing is allocated."""
        at_cap = EncoderConfig(9999, (), 1000)
        assert sum(int(np.prod(shape))
                   for shape in param_shapes(at_cap)) == MAX_PARAMETERS
        with pytest.raises(InvalidSpecError, match="parameters"):
            EncoderConfig(10000, (), 1000)

    @pytest.mark.parametrize("hidden", [(10 ** 9,), (64, 10 ** 9),
                                        (2 ** 62, 2 ** 62)])
    def test_huge_widths_rejected(self, hidden):
        with pytest.raises(InvalidSpecError, match=str(MAX_PARAMETERS)):
            EncoderConfig(8, hidden, 32)


class TestFlatStore:
    @pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
    @pytest.mark.parametrize("head", [0, HEAD_OUTPUTS])
    def test_init_draws_the_layout_as_views_of_one_buffer(self, hidden, head):
        config = EncoderConfig(input_dim=4, hidden=hidden, embedding_dim=3)
        store = init_encoder_params(config, make_rng(20), head)
        _assert_views_of_flat(store, param_shapes(config, head))

    def test_layout_is_layers_then_head(self):
        config = EncoderConfig(input_dim=4, hidden=(6,), embedding_dim=3)
        assert param_shapes(config) == [(4, 6), (6,), (6, 3), (3,)]
        assert param_shapes(config, 2) == [(4, 6), (6,), (6, 3), (3,),
                                           (3, 2), (2,)]

    def test_head_draw_continues_the_encoder_draw(self):
        """The encoder's arrays come first, then the head's He-uniform
        weights and zero bias, drawn from where the encoder's draw left
        the generator."""
        config = EncoderConfig(input_dim=4, hidden=(6,), embedding_dim=3)
        rng = make_rng(21)
        encoder = init_encoder_params(config, rng).arrays
        limit = np.sqrt(6.0 / 3)
        head = [rng.uniform(-limit, limit, size=(3, HEAD_OUTPUTS)),
                np.zeros(HEAD_OUTPUTS)]
        joint = init_encoder_params(config, make_rng(21), HEAD_OUTPUTS)
        for a, b in zip(joint.arrays, encoder + head, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_loaded_checkpoint_is_the_saved_arrays(self, tmp_path):
        """A load gives the saved float64 arrays in ``param_shapes`` order."""
        config = EncoderConfig(input_dim=4, hidden=(6,), embedding_dim=3)
        store = init_encoder_params(config, make_rng(22), HEAD_OUTPUTS)
        path = tmp_path / "clf.json"
        ckpt.save_checkpoint(path, store.arrays, config, None, 0, {})
        loaded = ckpt.load_checkpoint(path)["params"]
        assert [a.shape for a in loaded] == param_shapes(config, HEAD_OUTPUTS)
        for a, b in zip(loaded, store.arrays, strict=True):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, b)


def reference_adam_step(arrays, m, v, t, grads, config) -> None:
    """Reference: the per-array Adam loop the flat update replaced; updates
    the lists ``arrays``, ``m`` and ``v`` in place for step ``t``."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, g in enumerate(grads):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        m_hat = m[i] / (1 - b1 ** t)
        v_hat = v[i] / (1 - b2 ** t)
        arrays[i] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


SHAPES = st.lists(st.lists(st.integers(1, 4), max_size=2).map(tuple),
                  min_size=1, max_size=5)


class TestAdam:
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(shapes=SHAPES, steps=st.integers(1, 6), seed=st.integers(0, 999),
           lr=st.sampled_from([1e-4, 1e-3, 0.1]))
    def test_flat_update_matches_per_array_loop(self, shapes, steps, seed,
                                                lr):
        rng = make_rng(seed)
        config = AdamConfig(learning_rate=lr)
        store = ParamStore([rng.normal(size=s) for s in shapes])
        arrays = [a.copy() for a in store.arrays]
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        for t in range(1, steps + 1):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s)
                     for s in shapes]
            adam_step(store, grads, config)
            reference_adam_step(arrays, m, v, t, grads, config)
        for a, b in zip(store.arrays, arrays, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            store.m, np.concatenate([a.ravel() for a in m]))
        np.testing.assert_array_equal(
            store.v, np.concatenate([a.ravel() for a in v]))

    def test_non_finite_gradient_raises_and_changes_nothing(self):
        config = EncoderConfig(input_dim=3, hidden=(4,), embedding_dim=2)
        store = init_encoder_params(config, make_rng(23))
        grads = [np.ones_like(a) for a in store.arrays]
        adam_step(store, grads, AdamConfig())
        before = (store.flat.copy(), store.m.copy(), store.v.copy(),
                  store.step)
        grads[2] = grads[2].copy()
        grads[2][1, 0] = np.nan
        with pytest.raises(NonFiniteLossError, match=r"parameter 2 of shape "
                                                     r"\(4, 2\)"):
            adam_step(store, grads, AdamConfig())
        for got, want in zip((store.flat, store.m, store.v), before[:3]):
            np.testing.assert_array_equal(got, want)
        assert store.step == before[3]

    def test_zero_gradients_are_noop(self):
        config = EncoderConfig(input_dim=3, hidden=(4,), embedding_dim=2)
        store = init_encoder_params(config, make_rng(12))
        before = [a.copy() for a in store.arrays]
        zeros = [np.zeros_like(a) for a in store.arrays]
        for _ in range(5):
            adam_step(store, zeros, AdamConfig())
        for a, b in zip(store.arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude(self):
        store = ParamStore([np.array([1.0, -2.0])])
        g = np.array([0.3, -0.7])
        cfg = AdamConfig(learning_rate=0.01)
        adam_step(store, [g], cfg)
        update = store.arrays[0] - np.array([1.0, -2.0])
        # first bias-corrected step moves ~lr against the gradient sign
        np.testing.assert_allclose(update, -np.sign(g) * cfg.learning_rate,
                                   rtol=1e-3)

    def test_converges_on_quadratic(self):
        store = ParamStore([np.array([1.0, 1.0])])
        cfg = AdamConfig(learning_rate=0.1)
        for _ in range(200):
            adam_step(store, [2.0 * store.arrays[0]], cfg)
        assert np.linalg.norm(store.arrays[0]) < 0.01

    def test_shape_mismatch(self):
        store = ParamStore([np.zeros((2, 2))])
        with pytest.raises(ShapeMismatchError):
            adam_step(store, [np.zeros(3)], AdamConfig())


class TestHead:
    def test_minority_probability_matches_softmax(self):
        rng = make_rng(13)
        head = [rng.normal(size=(4, 2)), rng.normal(size=2)]
        emb = rng.normal(size=(5, 4))
        p = minority_probability([Var(head[0]), Var(head[1])], Var(emb)).value
        logits = emb @ head[0] + head[1]
        expected = np.exp(logits[:, 1]) / np.exp(logits).sum(axis=1)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=20))
    def test_minority_probability_bit_equal_to_two_exp_form(self, zdiff):
        """Logits (-z/2, z/2) give zdiff = z exactly, +-inf and NaN
        included; the result matches the form that evaluated exp(-z) and
        exp(z) for every row, and raises no numpy warning."""
        z = np.array(zdiff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = minority_probability([np.array([[-0.5, 0.5]]), np.zeros(2)],
                                     z[:, None])
        with np.errstate(all="ignore"):
            reference = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                                 np.exp(z) / (1.0 + np.exp(z)))
        assert np.array_equal(p, reference, equal_nan=True)

    def test_probability_gradient(self):
        rng = make_rng(14)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        emb = rng.normal(size=(2, 3))

        def total(wv):
            p = minority_probability([Var(wv), Var(b)], Var(emb))
            return float(p.value.sum())

        vw = Var(w)
        p = minority_probability([vw, Var(b)], Var(emb))
        s = ad.matmul(ad.as_var(np.ones((1, 2))),
                      ad.Var(p.value[:, None], (p,), lambda g: (g[:, 0],)))
        backward(ad.mean(s))
        h = 1e-5
        flat = w.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = total(w)
            flat[i] = orig - h
            fm = total(w)
            flat[i] = orig
            num[i] = (fp - fm) / (2 * h)
        np.testing.assert_allclose(grad_of(vw).ravel(), num, atol=1e-6)


def _random_store(config: EncoderConfig, seed: int, head_outputs: int = 0):
    """Parameters of the layout with every weight and bias drawn, so no
    layer is the identity on its bias."""
    store = init_encoder_params(config, make_rng(seed), head_outputs)
    store.flat[:] = make_rng(seed + 1).normal(scale=0.7, size=store.flat.size)
    return store


class TestBlockedInference:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(input_dim=st.integers(1, 40),
           hidden=st.lists(st.integers(1, 64), max_size=2),
           embedding_dim=st.integers(2, 64), n=st.integers(0, 40),
           block=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
    def test_blocks_and_lone_rows_give_the_batch_bits(
            self, input_dim, hidden, embedding_dim, n, block, seed):
        """At any layer widths, with blocks of 1-5 rows,
        ``evaluate_prototypes`` and ``evaluate_classifier`` give the bytes
        of one whole-batch evaluation, and each row evaluated alone keeps
        its label and score bytes; the padded layers compute the model's
        unpadded values up to rounding; an empty batch keeps its shape."""
        config = EncoderConfig(input_dim, tuple(hidden), embedding_dim)
        encoder = _random_store(config, seed)
        classifier = _random_store(config, seed, HEAD_OUTPUTS)
        rng = make_rng(seed + 2)
        x = rng.normal(size=(n, input_dim))
        y = rng.integers(0, 2, size=n)
        proto = update_prototypes(None, rng.normal(size=embedding_dim),
                                  rng.normal(size=embedding_dim))

        def evaluate(rows, block):
            """The prototype predictions and scores, then the
            classifier's."""
            def unscored(y, preds, scores):
                return preds, scores

            with mock.patch.object(training, "INFER_BLOCK_ROWS", block), \
                    mock.patch.object(training, "_aggregate", unscored):
                return (*evaluate_prototypes(encoder.arrays, config, proto,
                                             x[rows], y[rows]),
                        *evaluate_classifier(classifier.arrays, config,
                                             x[rows], y[rows]))

        blocked = evaluate(slice(None), block)
        whole = evaluate(slice(None), training.INFER_BLOCK_ROWS)
        assert [a.shape for a in blocked] == [(n,)] * 4
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for i in range(n):
            alone = evaluate(slice(i, i + 1), block)
            for got, want in zip(alone, blocked):
                assert got.tobytes() == want[i:i + 1].tobytes()
        if n >= 2:
            _, d_min, d_maj = infer_label(embed(encoder.arrays, config, x),
                                          proto)
            np.testing.assert_allclose(blocked[1],
                                       malignancy_score(d_min, d_maj),
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(blocked[3],
                                       classify(classifier.arrays, config, x),
                                       rtol=1e-9, atol=1e-12)

    def test_one_row_takes_one_padded_call(self):
        """A one-row split runs once, as two copies of the row (numpy's gemv
        for one row gives other bits than the gemm of a batch), on layers
        whose output widths are zero-padded to a multiple of 8, the next W
        given zero rows to match."""
        config = EncoderConfig(input_dim=3, hidden=(5, 16), embedding_dim=9)
        store = _random_store(config, 4)
        proto = update_prototypes(None, np.ones(9), -np.ones(9))
        x = make_rng(5).normal(size=(1, 3))
        with mock.patch.object(enc, "forward", wraps=enc.forward) as spy:
            out = evaluate_prototypes(store.arrays, config, proto, x, [0])
        assert spy.call_count == 1
        padded, _, rows = spy.call_args.args
        assert rows.tobytes() == np.repeat(x, 2, axis=0).tobytes()
        assert [a.shape for a in padded] == [(3, 8), (8,), (8, 16), (16,),
                                             (16, 16), (16,)]
        for a, p in zip(store.arrays, padded, strict=True):
            assert p[tuple(map(slice, a.shape))].tobytes() == a.tobytes()
            assert np.count_nonzero(p) == np.count_nonzero(a)
        assert out["scores"].shape == (1,)

    def test_embed_takes_its_rows_at_once_and_skips_a_head(self):
        """``embed`` runs one ``forward`` call over the rows it is given,
        however many, on the encoder's part of a classifier's arrays."""
        config = EncoderConfig(input_dim=3, hidden=(8,), embedding_dim=8)
        classifier = _random_store(config, 8, HEAD_OUTPUTS)
        n_enc = len(param_shapes(config))
        x = make_rng(9).normal(size=(3 * training.INFER_BLOCK_ROWS, 3))
        with mock.patch.object(enc, "forward", wraps=enc.forward) as spy:
            out = embed(classifier.arrays, config, x)
        assert spy.call_count == 1
        assert out.tobytes() == forward(classifier.arrays[:n_enc], config,
                                        x).tobytes()

    @pytest.mark.parametrize("kind", ["prototypes", "classifier"])
    def test_scoring_holds_no_embedding(self, kind):
        """Scoring 40 000 rows runs the model a block at a time and peaks
        below one (40 000, 32) embedding, which scoring the whole batch at
        once allocates."""
        config = EncoderConfig(input_dim=8)
        rng = make_rng(7)
        x = rng.normal(size=(40_000, 8))
        y = rng.integers(0, 2, size=len(x))
        if kind == "classifier":
            store = init_encoder_params(config, make_rng(6), HEAD_OUTPUTS)
            evaluate, args = evaluate_classifier, (store.arrays, config, x, y)
        else:
            store = init_encoder_params(config, make_rng(6))
            proto = update_prototypes(
                None, rng.normal(size=config.embedding_dim),
                rng.normal(size=config.embedding_dim))
            evaluate, args = evaluate_prototypes, (store.arrays, config,
                                                   proto, x, y)
        tracemalloc.start()
        try:
            evaluate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(x) * config.embedding_dim * 8
