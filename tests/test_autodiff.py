import numpy as np
import pytest

from comclust import autodiff as ad
from comclust.autodiff import Var, backward, cosine_distance, grad_of, make_rng
from comclust.errors import NotScalarError, ShapeMismatchError, ZeroVectorError


def test_cosine_distance_identical_orthogonal_antipodal():
    assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)


def test_cosine_distance_properties():
    rng = make_rng(7)
    for _ in range(100):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        d = cosine_distance(u, v)
        assert 0.0 <= d <= 2.0
        assert d == pytest.approx(cosine_distance(v, u), abs=1e-12)
        a, b = rng.uniform(0.1, 10.0, size=2)
        assert cosine_distance(a * u, b * v) == pytest.approx(d, abs=1e-10)


def test_cosine_distance_zero_vector():
    with pytest.raises(ZeroVectorError):
        cosine_distance([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        cosine_distance([1.0, 0.0], [1e-13, 0.0])


def test_backward_square():
    x = Var(np.array(3.0))
    y = ad.mul(x, x)
    backward(y)
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = Var(np.ones(3))
    y = ad.mul(x, x)
    with pytest.raises(NotScalarError):
        backward(y)


def test_cosine_gradient_zero_at_identical_vectors():
    u = Var(np.array([0.4, -1.2, 0.7]))
    v = Var(np.array([0.4, -1.2, 0.7]))
    d = cosine_distance(u, v)
    backward(d)
    np.testing.assert_allclose(u.grad, np.zeros(3), atol=1e-12)


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce(
        [np.abs(a), np.abs(b), np.full_like(a, 1e-8)])


def central_diff(f, x, h=1e-4):
    """Finite-difference oracle, independent of the tape."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def test_mlp_gradients_match_finite_differences():
    # random 2-layer MLP with a scalar loss built from tape primitives
    rng = make_rng(12)
    w1 = rng.normal(size=(4, 6)) * 0.5
    b1 = rng.normal(size=6) * 0.1
    w2 = rng.normal(size=(6, 3)) * 0.5
    x = rng.normal(size=(5, 4))

    def run():
        vw1, vb1, vw2 = Var(w1), Var(b1), Var(w2)
        h = ad.relu(ad.add(ad.matmul(Var(x), vw1), vb1))
        out = ad.matmul(h, vw2)
        loss = ad.mul(out, out)
        # reduce to scalar: sum of all entries via dots with ones
        s = ad.matmul(ad.as_var(np.ones((1, 5))),
                      ad.matmul(loss, ad.as_var(np.ones((3, 1)))))
        return vw1, vb1, vw2, ad.row(ad.row(s, 0), 0)

    vw1, vb1, vw2, loss = run()
    backward(loss)
    for param, var in ((w1, vw1), (b1, vb1), (w2, vw2)):
        num = central_diff(lambda: float(run()[3].value), param)
        assert np.max(_rel_err(grad_of(var), num)) < 1e-3


def test_take_rows_scatter_adds_duplicates():
    x = Var(np.arange(6.0).reshape(3, 2))
    g = ad.take_rows(x, [0, 0, 2])
    s = ad.matmul(ad.as_var(np.ones((1, 3))), ad.matmul(g, ad.as_var(np.ones((2, 1)))))
    backward(ad.row(ad.row(s, 0), 0))
    np.testing.assert_allclose(x.grad, [[2, 2], [0, 0], [1, 1]])


def test_rng_reproducibility():
    a = make_rng(42).normal(size=10)
    b = make_rng(42).normal(size=10)
    c = make_rng(43).normal(size=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


class TestRowCosineDistance:
    @staticmethod
    def _weighted_mean(d, w):
        # unequal row weights so a gradient routed to the wrong row shows
        return ad.mean(ad.mul(d, w))

    @pytest.mark.parametrize("v_rows", [True, False],
                             ids=["MxS-by-MxS", "MxS-by-S-constant"])
    def test_gradient_matches_finite_differences(self, v_rows):
        rng = make_rng(51)
        for _ in range(20):
            u = rng.normal(size=(5, 4))
            w = rng.uniform(0.5, 2.0, size=5)
            if v_rows:
                v = rng.normal(size=(5, 4))

                def run(u=u, v=v, w=w):
                    vu, vv = Var(u), Var(v)
                    return vu, vv, self._weighted_mean(
                        ad.row_cosine_distance(vu, vv), w)

                vu, vv, loss = run()
                backward(loss)
                for arr, var in ((u, vu), (v, vv)):
                    num = central_diff(lambda: run()[2].item(), arr)
                    assert np.max(_rel_err(grad_of(var), num)) < 1e-3
            else:
                c = rng.normal(size=4)

                def run(u=u, c=c, w=w):
                    vu = Var(u)
                    return vu, self._weighted_mean(
                        ad.row_cosine_distance(vu, c), w)

                vu, loss = run()
                backward(loss)
                num = central_diff(lambda: run()[1].item(), u)
                assert np.max(_rel_err(grad_of(vu), num)) < 1e-3

    def test_constant_row_var_gets_summed_gradient(self):
        rng = make_rng(52)
        u, c = rng.normal(size=(6, 3)), rng.normal(size=3)
        vc = Var(c.copy())
        backward(ad.mean(ad.row_cosine_distance(u, vc)))
        num = central_diff(
            lambda: ad.mean(ad.row_cosine_distance(u, c)).item(), c)
        assert np.max(_rel_err(grad_of(vc), num)) < 1e-3

    def test_rows_match_one_dimensional_distance(self):
        rng = make_rng(53)
        u, v = rng.normal(size=(2, 7, 5))
        d = ad.row_cosine_distance(u, v).value
        assert d.shape == (7,)
        for i in range(7):
            assert d[i] == pytest.approx(cosine_distance(u[i], v[i]), abs=1e-15)
            single = ad.row_cosine_distance(u[i:i + 1], v[i]).value[0]
            assert single == ad.row_cosine_distance(u, v[i]).value[i]

    @pytest.mark.parametrize("swap", [False, True])
    def test_zero_row_raises(self, swap):
        u = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        v = np.ones((3, 2))
        with pytest.raises(ZeroVectorError):
            ad.row_cosine_distance(*((v, u) if swap else (u, v)))
        with pytest.raises(ZeroVectorError):
            ad.row_cosine_distance(Var(v), np.zeros(2))

    @pytest.mark.parametrize("u_shape,v_shape", [
        ((3, 2), (4, 2)), ((3, 2), (3, 3)), ((3, 2), (3,)), ((3,), (2,)),
        ((2, 3, 2), (2, 3, 2)), ((3, 0), (3, 0))])
    def test_mismatched_shapes_raise(self, u_shape, v_shape):
        with pytest.raises(ShapeMismatchError):
            ad.row_cosine_distance(np.ones(u_shape), Var(np.ones(v_shape)))

    def test_mean_gradient(self):
        x = Var(np.arange(6.0).reshape(2, 3))
        m = ad.mean(x)
        assert m.item() == pytest.approx(2.5)
        backward(m)
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))
