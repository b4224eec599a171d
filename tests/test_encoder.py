import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comclust import autodiff as ad
from comclust import checkpoint as ckpt
from comclust.autodiff import Var, backward, grad_of, make_rng
from comclust.encoder import (HEAD_OUTPUTS, MAX_PARAMETERS, AdamConfig,
                              EncoderConfig, ParamStore, adam_step, embed,
                              forward, init_encoder_params, init_head_params,
                              minority_probability, param_shapes)
from comclust.errors import (InvalidSpecError, NonFiniteLossError,
                             ShapeMismatchError)
from comclust.losses import MarginSpec, com_triplet_loss


class TestForward:
    def test_identity_network(self):
        config = EncoderConfig(input_dim=3, hidden=(), embedding_dim=3,
                               dropout_rate=0.0)
        store = ParamStore([np.eye(3), np.zeros(3)])
        x = make_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(embed(store, config, x), x, atol=1e-15)

    def test_eval_mode_deterministic(self):
        config = EncoderConfig(input_dim=5, hidden=(8,), embedding_dim=4)
        store = init_encoder_params(config, make_rng(2))
        x = make_rng(3).normal(size=(6, 5))
        np.testing.assert_array_equal(embed(store, config, x),
                                      embed(store, config, x))

    def test_train_mode_dropout_changes_output(self):
        config = EncoderConfig(input_dim=5, hidden=(16,), embedding_dim=4,
                               dropout_rate=0.5)
        store = init_encoder_params(config, make_rng(4))
        x = make_rng(5).normal(size=(6, 5))
        a = forward(store.wrap(), config, x, train_mode=True, rng=make_rng(7)).value
        b = forward(store.wrap(), config, x, train_mode=False).value
        assert not np.allclose(a, b)

    def test_shape_mismatch(self):
        config = EncoderConfig(input_dim=5, hidden=(8,), embedding_dim=4)
        store = init_encoder_params(config, make_rng(6))
        with pytest.raises(ShapeMismatchError):
            embed(store, config, np.ones((3, 4)))

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
                ad.take_rows(emb, [4, 5]), MarginSpec("adaptive"))

        param_vars = store.wrap()
        emb = forward(param_vars, config, x, train_mode=False)
        loss = com_triplet_loss(
            ad.take_rows(emb, [0, 1]), ad.take_rows(emb, [2, 3]),
            ad.take_rows(emb, [4, 5]), MarginSpec("adaptive"))
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
        config = EncoderConfig(input_dim=4, hidden=(6,), embedding_dim=3)
        rng = make_rng(21)
        encoder = init_encoder_params(config, rng).arrays
        head = init_head_params(3, HEAD_OUTPUTS, rng)
        joint = init_encoder_params(config, make_rng(21), HEAD_OUTPUTS)
        for a, b in zip(joint.arrays, encoder + head, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_loaded_checkpoint_is_views_of_one_buffer(self, tmp_path):
        config = EncoderConfig(input_dim=4, hidden=(6,), embedding_dim=3)
        store = init_encoder_params(config, make_rng(22), HEAD_OUTPUTS)
        path = tmp_path / "clf.json"
        ckpt.save_checkpoint(path, ckpt.KIND_CLASSIFIER, store, config, None,
                             0, {})
        loaded = ckpt.load_checkpoint(path)["params"]
        for a, b in zip(loaded.arrays, store.arrays, strict=True):
            np.testing.assert_array_equal(a, b)
        _assert_views_of_flat(loaded, param_shapes(config, HEAD_OUTPUTS))


def reference_adam_step(arrays, m, v, t, grads, config) -> None:
    """Reference: the per-array Adam loop the flat update replaced; updates
    the lists ``arrays``, ``m`` and ``v`` in place for step ``t``."""
    b1, b2 = config.beta1, config.beta2
    for i, g in enumerate(grads):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        m_hat = m[i] / (1 - b1 ** t)
        v_hat = v[i] / (1 - b2 ** t)
        arrays[i] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)


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
        head = init_head_params(4, 2, rng)
        emb = rng.normal(size=(5, 4))
        p = minority_probability([Var(head[0]), Var(head[1])], Var(emb)).value
        logits = emb @ head[0] + head[1]
        expected = np.exp(logits[:, 1]) / np.exp(logits).sum(axis=1)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    @settings(max_examples=300, deadline=None)
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
