import numpy as np
import pytest

from comclust import autodiff as ad
from comclust.autodiff import Var, backward, grad_of, make_rng
from comclust.encoder import (AdamConfig, EncoderConfig, ParamStore,
                              adam_step, embed, forward, init_encoder_params,
                              init_head_params, minority_probability)
from comclust.errors import ShapeMismatchError
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


class TestAdam:
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
