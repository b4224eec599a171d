import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from comclust import autodiff as ad
from comclust import encoder as enc
from comclust.autodiff import Var, backward, cosine_distance, grad_of, make_rng
from comclust.errors import NotScalarError, ShapeMismatchError, ZeroVectorError
from comclust.losses import (ClassWeights, center_rows, com_triplet_loss,
                             triplet_loss_batch, weighted_cross_entropy)


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
        return vw1, vb1, vw2, ad.mean(s)

    vw1, vb1, vw2, loss = run()
    backward(loss)
    for param, var in ((w1, vw1), (b1, vb1), (w2, vw2)):
        num = central_diff(lambda: float(run()[3].value), param)
        assert np.max(_rel_err(grad_of(var), num)) < 1e-3


def test_take_rows_scatter_adds_duplicates():
    x = Var(np.arange(6.0).reshape(3, 2))
    g = ad.take_rows(x, [0, 0, 2])
    s = ad.matmul(ad.as_var(np.ones((1, 3))), ad.matmul(g, ad.as_var(np.ones((2, 1)))))
    backward(ad.mean(s))
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
            lambda: ad.mean(ad.row_cosine_distance(u, c)), c)
        assert np.max(_rel_err(grad_of(vc), num)) < 1e-3

    def test_rows_match_one_dimensional_distance(self):
        rng = make_rng(53)
        u, v = rng.normal(size=(2, 7, 5))
        d = ad.row_cosine_distance(u, v)
        assert d.shape == (7,)
        for i in range(7):
            assert d[i] == pytest.approx(cosine_distance(u[i], v[i]), abs=1e-15)
            single = ad.row_cosine_distance(u[i:i + 1], v[i])[0]
            assert single == ad.row_cosine_distance(u, v[i])[i]

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


def _array(draw, *shape, low=-10.0, high=10.0):
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(
        low, high, allow_subnormal=False)))


def _rows(draw, *shape):
    """An array whose last-axis rows all have a usable norm."""
    a = _array(draw, *shape)
    assume(np.all(np.linalg.norm(np.atleast_2d(a), axis=1) > 1e-3))
    return a


def _scale_case(d, m, s):
    c = d(st.floats(-3.0, 3.0))
    return (lambda a: ad.scale(a, c)), [_array(d, m, s)]


def _take_rows_case(d, m, s):
    idx = d(st.lists(st.integers(0, m - 1), min_size=1))
    return (lambda a: ad.take_rows(a, idx)), [_array(d, m, s)]


def _stack_params(d, s):
    """(W, b) pairs of one to three layers of widths 1-4 on s inputs, and
    the last layer's input width."""
    widths = [s] + d(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    params = [a for d_in, d_out in zip(widths, widths[1:])
              for a in (_array(d, d_in, d_out), _array(d, d_out))]
    return params, widths[-2]


def _dense_case(d, m, s):
    params, last_in = _stack_params(d, s)
    in_mask = _array(d, m, last_in) if d(st.booleans()) else None
    return ((lambda x, *params: ad.dense_stack(x, params, in_mask)),
            [_array(d, m, s), *params])


def _cross_entropy_case(d, m, s):
    labels = d(hnp.arrays(np.float64, m, elements=st.sampled_from([0.0, 1.0])))
    return ((lambda p: weighted_cross_entropy(labels, p, ClassWeights(2.0, 0.5))),
            [_array(d, m, low=0.0, high=1.0)])


# primitive -> (draw, m, s) -> (call, inputs): call(*inputs) is one call of
# the primitive and each input may be wrapped in a Var
TAPE_CASES = {
    "add": lambda d, m, s: (ad.add, [_array(d, m, s), _array(d, s)]),
    "sub": lambda d, m, s: (ad.sub, [_array(d, m, s), _array(d, m, s)]),
    "mul": lambda d, m, s: (ad.mul, [_array(d, m, s), _array(d, m, 1)]),
    "scale": _scale_case,
    "matmul": lambda d, m, s: (ad.matmul, [_array(d, m, s), _array(d, s, 3)]),
    "dense": _dense_case,
    "relu": lambda d, m, s: (ad.relu, [_array(d, m, s)]),
    "take_rows": _take_rows_case,
    "mean": lambda d, m, s: (ad.mean, [_array(d, m, s)]),
    "row_cosine_distance": lambda d, m, s: (
        ad.row_cosine_distance, [_rows(d, m, s), _rows(d, s)]),
    "row_cosine_distance-1d": lambda d, m, s: (
        ad.row_cosine_distance, [_rows(d, s), _rows(d, s)]),
    "minority_probability": lambda d, m, s: (
        lambda w, b, e: enc.minority_probability([w, b], e),
        [_array(d, s, 2, low=-1.0, high=1.0), _array(d, 2), _array(d, m, s)]),
    "weighted_cross_entropy": _cross_entropy_case,
    "com_triplet_loss": lambda d, m, s: (
        com_triplet_loss, [_rows(d, m, s), _rows(d, m, s), _rows(d, m, s)]),
    "triplet_loss_batch": lambda d, m, s: (
        triplet_loss_batch, [_rows(d, m, s), _rows(d, m, s), _rows(d, m, s)]),
}


@pytest.mark.parametrize("name", sorted(TAPE_CASES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_plain_inputs_give_the_recorded_value_untaped(name, data):
    """The tape rule: plain inputs record nothing and give the bits the
    recorded call holds; a 0-d plain result is a Python float."""
    m, s = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    call, inputs = TAPE_CASES[name](data.draw, m, s)
    recorded = call(*[Var(x) for x in inputs])
    plain = call(*inputs)
    assert isinstance(recorded, Var)
    if recorded.value.ndim == 0:
        assert type(plain) is float
    else:
        assert type(plain) is np.ndarray
    assert np.array_equal(plain, recorded.value)


# -- fused nodes against the composed graphs they replace -------------------

# entries bounded away from zero, so no row has a vanishing norm
ENTRY = st.one_of(st.floats(-5.0, -0.05), st.floats(0.05, 5.0))
FUSED = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)


def _value_and_grads(call, inputs, as_var, reduce):
    """The value of ``call`` on ``inputs`` (each wrapped in a Var where
    ``as_var`` says) and each Var's gradient of ``reduce`` of it."""
    leaves = [Var(x) if v else x for x, v in zip(inputs, as_var)]
    out = call(*leaves)
    backward(reduce(out))
    return [ad.value_of(out)] + [leaf.grad for leaf in leaves
                                 if isinstance(leaf, Var)]


def _assert_same_bits(fused, reference, inputs, as_var,
                      reduce=lambda out: out):
    got = _value_and_grads(fused, inputs, as_var, reduce)
    want = _value_and_grads(reference, inputs, as_var, reduce)
    assert len(got) == len(want) == 1 + sum(as_var)
    for g, w in zip(got, want):
        assert g is not None and g.tobytes() == w.tobytes()


def _dense_chain(composed, x, params, in_mask=None):
    """``dense_stack`` as one composed ``dense`` layer per (W, b) pair."""
    n = len(params) // 2
    for layer in range(n):
        last = layer == n - 1
        x = composed.dense(x, params[2 * layer], params[2 * layer + 1],
                           not last, in_mask if last else None)
    return x


def _dense_flags(n: int) -> list:
    """Var flags of x, W_0, b_0, ..., W_{n-1}, b_{n-1}: all Var; x plain;
    each W alone plain; each b alone plain; only x Var; only the weights
    Var; only the biases Var."""
    size = 1 + 2 * n
    return [[True] * size,
            *([i != plain for i in range(size)] for plain in range(size)),
            [i == 0 for i in range(size)],
            [i % 2 == 1 for i in range(size)],
            [i > 0 and i % 2 == 0 for i in range(size)]]


@FUSED
@given(data=st.data())
def test_dense_has_the_bits_of_the_composed_layer(composed, data):
    """A stack of one to three layers, with or without the mask on the last
    layer's input, has the value and the Var inputs' gradients of the
    composed chain under every pattern of ``_dense_flags``, so a plain
    input x, which alone gets no gradient computed, and plain weights and
    biases are each pinned."""
    m, s = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    params, last_in = _stack_params(data.draw, s)
    in_mask = (_array(data.draw, m, last_in) if data.draw(st.booleans())
               else None)
    weights = _array(data.draw, m, params[-1].shape[0])
    inputs = [_array(data.draw, m, s), *params]
    for as_var in _dense_flags(len(params) // 2):
        _assert_same_bits(
            lambda x, *params: ad.dense_stack(x, params, in_mask),
            lambda x, *params: _dense_chain(composed, x, params, in_mask),
            inputs, as_var, lambda out: ad.mean(ad.mul(out, weights)))


def test_dense_relu_has_the_composed_bits_on_special_values(composed):
    """Hidden pre-activations of signed zeros, NaN, infinities and
    subnormals: the ReLU gives +0.0 wherever the composed relu does, and
    the same gradient."""
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                        -5e-324, 1.0, -1.0])
    h = np.tile(special, 3)[:, None]          # times [[1.0]], plus 0.0: h
    weights = np.arange(1.0, len(h) + 1)[:, None]
    identity = [np.ones((1, 1)), np.zeros(1)]
    with np.errstate(invalid="ignore"):       # NaN through the matmul
        got, want = (_value_and_grads(
            stack, [h, *identity, *identity], [True] + [False] * 4,
            lambda out: ad.mean(ad.mul(out, weights)))
            for stack in (lambda x, *params: ad.dense_stack(x, params),
                          lambda x, *params: _dense_chain(composed, x,
                                                          params)))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].tobytes() == np.where(h > 0, h, 0.0).tobytes()


@FUSED
@given(data=st.data())
def test_fused_hinges_have_the_bits_of_the_composed_losses(composed, data):
    """Var anchors with positives and negatives each a Var or plain (every
    combination, so that a Var P or N beside a plain one is pinned), one
    stacked (3M, S) Var whose row blocks are A, P and N (SDC; the reference
    gathers them with ``take_rows``), or constant center rows (UDC)."""
    m, s = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))

    def rows(*shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=ENTRY))

    form = data.draw(st.sampled_from(["operands", "stacked", "centers"]))
    if form == "operands":
        inputs = [rows(m, s), rows(m, s), rows(m, s)]
        flags = [[True, p, n] for p in (True, False) for n in (True, False)]
    elif form == "stacked":
        inputs, flags = [rows(3 * m, s)], [[True]]
    else:
        classes = data.draw(hnp.arrays(int, m, elements=st.sampled_from([0, 1])))
        inputs = [rows(m, s), *center_rows(classes, rows(s), rows(s))]
        flags = [[True, False, False]]
    for as_var in flags:
        _assert_same_bits(com_triplet_loss, composed.com_triplet_loss, inputs,
                          as_var)
        _assert_same_bits(triplet_loss_batch, composed.triplet_loss_batch,
                          inputs, as_var)


@pytest.mark.parametrize("loss", [com_triplet_loss, triplet_loss_batch],
                         ids=["com_triplet_loss", "triplet_loss_batch"])
@pytest.mark.parametrize("p_var, n_var", [(False, False), (True, False),
                                          (False, True)])
def test_plain_operands_get_no_gradient(loss, p_var, n_var):
    """UDC's center rows are plain operands: their constant leaves keep
    grad None, while the anchors and any Var operand get theirs."""
    rng = make_rng(63)
    own, other = center_rows(rng.integers(0, 2, 6), rng.normal(size=4),
                             rng.normal(size=4))
    value = loss(Var(rng.normal(size=(6, 4))), Var(own) if p_var else own,
                 Var(other) if n_var else other)
    backward(value)
    assert ([leaf.grad is not None for leaf in value._parents]
            == [True, p_var, n_var])


def test_dense_stack_on_plain_inputs_keeps_no_activations():
    """Plain inputs give an array, record no node, and hold at most the
    input and output of the layer being computed: a four-hidden-layer stack
    whose activations were all kept would peak above three of them."""
    rng = make_rng(64)
    widths = [8, 256, 256, 256, 256, 8]
    x = rng.normal(size=(2000, 8))
    params = [a for d_in, d_out in zip(widths, widths[1:])
              for a in (rng.normal(size=(d_in, d_out)),
                        rng.normal(size=d_out))]
    activation_bytes = len(x) * 256 * 8
    tracemalloc.start()
    try:
        out = ad.dense_stack(x, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(out) is np.ndarray and out.shape == (2000, 8)
    assert peak < 3 * activation_bytes


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("masked", [False, True])
def test_dense_gradient_matches_finite_differences(relu, masked):
    """``dense_stack``'s gradients of its input and of every weight and
    bias: the one linear layer of the classifier head, or, with ``relu``,
    stacks of two and three layers whose hidden layers apply it; ``masked``
    multiplies the last layer's input by a constant mask."""
    rng = make_rng(61)
    for widths in ([[4, 3]] if not relu else [[4, 5, 3], [4, 6, 5, 3]]):
        h = rng.normal(size=(5, widths[0]))
        params = [a for d_in, d_out in zip(widths, widths[1:])
                  for a in (rng.normal(size=(d_in, d_out)),
                            rng.normal(size=d_out))]
        mask = (rng.uniform(0.0, 2.0, size=(5, widths[-2])) if masked
                else None)
        weights = rng.uniform(0.5, 2.0, size=(5, widths[-1]))
        # no hidden pre-activation within a finite-difference step of the
        # ReLU kink
        hidden = h
        for w, b in zip(params[:-2:2], params[1:-2:2]):
            pre = hidden @ w + b
            assert np.min(np.abs(pre)) > 1e-2
            hidden = np.maximum(pre, 0.0)

        def run():
            leaves = [Var(a) for a in (h, *params)]
            out = ad.dense_stack(leaves[0], leaves[1:], mask)
            return leaves, out, ad.mean(ad.mul(out, weights))

        leaves, out, loss = run()
        assert out._parents == tuple(leaves)        # the stack is one node
        backward(loss)
        for arr, leaf in zip((h, *params), leaves):
            num = central_diff(lambda: run()[2].item(), arr)
            assert np.max(_rel_err(grad_of(leaf), num)) < 1e-3


@pytest.mark.parametrize("loss", [com_triplet_loss, triplet_loss_batch],
                         ids=["com_triplet_loss", "triplet_loss_batch"])
def test_fused_hinge_gradient_matches_finite_differences(loss):
    """Every Var operand's gradient, with the operands in each form: three
    Vars, one stacked (3M, S) Var whose row blocks are A, P and N (SDC), and
    Var anchors with plain center rows (UDC)."""
    rng = make_rng(62)
    for form in ("operands", "stacked", "centers"):
        for _ in range(10):
            blocks = rng.normal(size=(3, 6, 4))
            if form == "operands":
                arrays, as_var = list(blocks), [True] * 3
            elif form == "stacked":
                arrays, as_var = [blocks.reshape(18, 4)], [True]
            else:
                arrays = [blocks[0], *center_rows(rng.integers(0, 2, 6),
                                                  *blocks[1, :2])]
                as_var = [True, False, False]

            def run(arrays=arrays, as_var=as_var):
                leaves = [Var(x) if v else x for x, v in zip(arrays, as_var)]
                return leaves, loss(*leaves)

            leaves, value = run()
            backward(value)
            for arr, leaf in zip(arrays, leaves):
                if isinstance(leaf, Var):
                    num = central_diff(lambda: run()[1].item(), arr)
                    assert np.max(_rel_err(grad_of(leaf), num)) < 1e-3
