import numpy as np
import pytest

from comclust.autodiff import Var, backward, cosine_distance, make_rng
from comclust.errors import (EmptyBatchError, InvalidSpecError,
                             ShapeMismatchError, ZeroVectorError)
from comclust.losses import (C_MAJ, C_MIN, ClassWeights, center_rows,
                             com_adaptive_margin, com_dist_wa,
                             com_triplet_loss, triplet_loss,
                             triplet_loss_batch, udc_com_loss,
                             weighted_cross_entropy)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
E1N = np.array([-1.0, 0.0])


class TestTripletLoss:
    def test_perfectly_separated(self):
        assert triplet_loss(E1, E1, E2, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_collapsed_triplet_pays_margin(self):
        assert triplet_loss(E1, E1, E1, 0.2) == pytest.approx(0.2, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = make_rng(3)
        for _ in range(50):
            a, p, n = rng.normal(size=(3, 4))
            alpha = rng.uniform(0, 0.5)
            expected = max(0.0, cosine_distance(a, p) - cosine_distance(a, n) + alpha)
            assert triplet_loss(a, p, n, alpha) == pytest.approx(expected, abs=1e-12)


class TestComDistWa:
    def test_anchor_equals_positive(self):
        assert com_dist_wa(E1, E1, E2) == pytest.approx(-1.0, abs=1e-12)

    def test_fully_collapsed(self):
        assert com_dist_wa(E1, E1, E1) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        # d(A,P)=1, d(A,N)=2, d(P,N)=1 -> 1 - 0.5*3 = -0.5
        assert com_dist_wa(E1, E2, E1N) == pytest.approx(-0.5, abs=1e-12)


class TestAdaptiveMargin:
    @pytest.mark.parametrize("p,n,expected", [
        (E1, E1, 1.0), (E1, E2, 0.0), (E1, E1N, -1.0)])
    def test_values(self, p, n, expected):
        assert com_adaptive_margin(p, n) == pytest.approx(expected, abs=1e-12)


class TestComTripletLoss:
    def test_collapsed_triple_adaptive(self):
        loss = com_triplet_loss(E1[None], E1[None], E1[None])
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_negative(self):
        loss = com_triplet_loss(E1[None], E1[None], E2[None])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_negative(self):
        loss = com_triplet_loss(E1[None], E1[None], E1N[None])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            com_triplet_loss(np.empty((0, 2)), np.empty((0, 2)),
                             np.empty((0, 2)))

    @pytest.mark.parametrize("loss", [com_triplet_loss, triplet_loss_batch])
    def test_rows_without_entries(self, loss):
        with pytest.raises(ShapeMismatchError, match="no entries"):
            loss(np.empty((3, 0)), Var(np.empty((3, 0))), np.empty((3, 0)))

    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["operands", "stacked"])
    @pytest.mark.parametrize("loss", [com_triplet_loss, triplet_loss_batch])
    @pytest.mark.parametrize("block, norms", [(0, "(0, 0.946942)"),
                                              (1, "(1.27104, 0)"),
                                              (2, "(1.27104, 0)")],
                             ids=["A", "P", "N"])
    def test_collapsed_row_names_its_first_pair(self, loss, stacked, block,
                                                norms):
        """A zero row in A, P or N: the error gives (min |U|, min |V|) of
        the first pair of (A, P), (A, N), (P, N) that holds it, in either
        form of the operands."""
        blocks = make_rng(65).normal(size=(3, 4, 3))
        blocks[block, 2] = 0.0
        operands = ([Var(blocks.reshape(12, 3))] if stacked
                    else [Var(b) for b in blocks])
        with pytest.raises(ZeroVectorError) as err:
            loss(*operands)
        assert str(err.value) == f"vector norm below 1e-12 {norms}"

    def test_nonnegative_and_matches_direct_formula(self):
        rng = make_rng(11)
        for _ in range(50):
            a, p, n = rng.normal(size=(3, 5, 4))
            loss = com_triplet_loss(a, p, n)
            assert loss >= 0.0
            expected = np.mean([
                max(0.0, com_dist_wa(a[i], p[i], n[i])
                    + com_adaptive_margin(p[i], n[i]))
                for i in range(5)])
            assert loss == pytest.approx(expected, abs=1e-12)

    def test_adaptive_penalizes_collapse_harder_than_constant(self):
        adaptive = com_triplet_loss(E1[None], E1[None], E1[None])
        constant = triplet_loss_batch(E1[None], E1[None], E1[None])
        assert adaptive == pytest.approx(1.0, abs=1e-12)
        assert constant == pytest.approx(0.2, abs=1e-12)

    def test_scale_invariance(self):
        rng = make_rng(13)
        a, p, n = rng.normal(size=(3, 4, 3))
        base = com_triplet_loss(a, p, n)
        scales = rng.uniform(0.1, 5.0, size=(3, 4, 1))
        scaled = com_triplet_loss(a * scales[0], p * scales[1], n * scales[2])
        assert scaled == pytest.approx(base, abs=1e-10)


def _center_dist_wa(e_a, mu_min, mu_maj, pseudo_class):
    """``com_dist_wa`` of one pseudo-labeled anchor on its ``center_rows``:
    its own cluster center as P and the other center as N."""
    (own,), (other,) = center_rows([pseudo_class], mu_min, mu_maj)
    return com_dist_wa(e_a, own, other)


class TestUdcDistWa:
    """UDC's within/across term: the anchor's own center is its positive."""

    def test_anchor_at_minority_mean(self):
        assert _center_dist_wa(E1, E1, E2, C_MIN) == pytest.approx(-1.0, abs=1e-12)

    def test_anchor_at_majority_mean(self):
        assert _center_dist_wa(E2, E1, E2, C_MAJ) == pytest.approx(-1.0, abs=1e-12)

    def test_equidistant_anchor_reduces_to_half_gap(self):
        mu_min = np.array([1.0, 0.0, 0.0])
        mu_maj = np.array([0.0, 1.0, 0.0])
        e_a = np.array([1.0, 1.0, 0.3])  # equidistant from both means
        d = cosine_distance(e_a, mu_min)
        assert d == pytest.approx(cosine_distance(e_a, mu_maj), abs=1e-12)
        d_cc = cosine_distance(mu_min, mu_maj)
        for cls in (C_MIN, C_MAJ):
            assert _center_dist_wa(e_a, mu_min, mu_maj, cls) == pytest.approx(
                0.5 * d - 0.5 * d_cc, abs=1e-12)

    def test_degenerate_anchor_equals_com_form(self):
        # anchor placed exactly on the minority mean
        mu_min = np.array([0.6, -0.2, 1.1])
        mu_maj = np.array([-0.4, 0.9, 0.3])
        got = _center_dist_wa(mu_min, mu_min, mu_maj, C_MIN)
        assert got == pytest.approx(com_dist_wa(mu_min, mu_min, mu_maj), abs=1e-12)
        assert got == pytest.approx(-cosine_distance(mu_min, mu_maj), abs=1e-12)


class TestWeightedCrossEntropy:
    def test_perfect_prediction(self):
        loss = weighted_cross_entropy([1], [1 - 1e-12], ClassWeights())
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_coin_flip(self):
        assert weighted_cross_entropy([1], [0.5], ClassWeights()) == pytest.approx(
            np.log(2), abs=1e-12)

    def test_matches_hand_summation(self):
        rng = make_rng(23)
        y = rng.integers(0, 2, size=30).astype(float)
        p = rng.uniform(0.01, 0.99, size=30)
        w = ClassWeights(w_min=2.5, w_maj=0.7)
        expected = np.mean([-(w.w_min * yi * np.log(pi)
                              + w.w_maj * (1 - yi) * np.log(1 - pi))
                            for yi, pi in zip(y, p)])
        assert weighted_cross_entropy(y, p, w) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            weighted_cross_entropy([1, 0], [0.5], ClassWeights())

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, float("nan"))])
    def test_class_weights_must_be_finite_and_positive(self, weights):
        with pytest.raises(InvalidSpecError, match="finite and positive"):
            ClassWeights(*weights)


def _fd_grad(f, x, h=1e-4):
    g = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        fp = f(x)
        x[i] = orig - h
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g


def _check_grad(build, x0, h=1e-4, kink_tol=1e-6):
    """Compare tape gradients against central differences, skipping hinge
    kinks. Returns False when the point sat on a kink."""
    var = Var(x0.copy())
    loss, kink_dist = build(var)
    if kink_dist is not None and abs(kink_dist) < kink_tol:
        return None
    backward(loss)
    num = _fd_grad(lambda x: build(Var(x))[0].item(), x0.copy(), h)
    analytic = var.grad if var.grad is not None else np.zeros_like(x0)
    denom = np.maximum.reduce([np.abs(analytic), np.abs(num),
                               np.full_like(num, 1e-8)])
    assert np.max(np.abs(analytic - num) / denom) < 1e-3
    return True


class TestGradients:
    def test_com_triplet_gradient(self):
        rng = make_rng(31)
        checked = 0
        while checked < 40:
            a = rng.normal(size=4)
            p, n = rng.normal(size=(2, 4))

            def build(va, p=p, n=n):
                arg_val = (com_dist_wa(va.value, p, n)
                           + com_adaptive_margin(p, n))
                loss = com_triplet_loss(_stack(va), Var(p[None]), Var(n[None]))
                return loss, arg_val

            if _check_grad(build, a):
                checked += 1

    def test_wce_gradient_through_probs(self):
        rng = make_rng(37)
        for _ in range(40):
            y = rng.integers(0, 2, size=8).astype(float)
            p0 = rng.uniform(0.05, 0.95, size=8)
            w = ClassWeights(1.5, 0.8)

            def build(vp, y=y, w=w):
                return weighted_cross_entropy(y, vp, w), None

            _check_grad(build, p0)

    def test_udc_gradient(self):
        rng = make_rng(41)
        mu_min, mu_maj = rng.normal(size=(2, 4))
        checked = 0
        while checked < 40:
            a = rng.normal(size=4)
            cls = int(rng.integers(0, 2))

            def build(va, cls=cls):
                arg = (_center_dist_wa(va.value, mu_min, mu_maj, cls)
                       + com_adaptive_margin(mu_min, mu_maj))
                loss = udc_com_loss(_stack(va), [cls], mu_min, mu_maj)
                return loss, arg

            if _check_grad(build, a):
                checked += 1


def _stack(v):
    """Treat a 1-D Var as a single-row batch while keeping the graph."""
    from comclust import autodiff as ad
    return ad.take_rows(_as_matrix(v), [0])


def _as_matrix(v):
    from comclust import autodiff as ad

    def vjp(g):
        return (g[0],)

    return ad.Var(v.value[None, :], (v,), vjp)
