import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from comclust import prototypes
from comclust.autodiff import cosine_distance, make_rng, row_cosine_distance
from comclust.errors import (DegenerateDistancesError, MissingClassError,
                             ZeroVectorError)
from comclust.losses import C_MAJ, C_MIN
from comclust.prototypes import (Prototypes, batch_centers, infer_label,
                                 malignancy_score, update_prototypes)


class TestBatchCenters:
    def test_majority_mean(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        classes = [C_MAJ, C_MAJ, C_MIN]
        cl_min, cl_maj = batch_centers(emb, classes)
        np.testing.assert_allclose(cl_maj, [0.5, 0.5])
        np.testing.assert_allclose(cl_min, [2.0, 2.0])

    def test_single_member_per_class(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        cl_min, cl_maj = batch_centers(emb, [C_MIN, C_MAJ])
        np.testing.assert_allclose(cl_min, [1.0, 2.0])
        np.testing.assert_allclose(cl_maj, [3.0, 4.0])

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            batch_centers(np.ones((3, 2)), [C_MAJ, C_MAJ, C_MAJ])

    def test_all_majority_anchors_match_literal_center_formula(self):
        # when every anchor is majority-class, the generalized per-class mean
        # equals (1/2M) sum(E_A + E_P) and (1/M) sum(E_N)
        rng = make_rng(8)
        m = 6
        e_a, e_p = rng.normal(size=(2, m, 4))
        e_n = rng.normal(size=(m, 4))
        emb = np.vstack([e_a, e_p, e_n])
        classes = [C_MAJ] * (2 * m) + [C_MIN] * m
        cl_min, cl_maj = batch_centers(emb, classes)
        np.testing.assert_allclose(cl_maj, (e_a + e_p).sum(axis=0) / (2 * m),
                                   atol=1e-12)
        np.testing.assert_allclose(cl_min, e_n.sum(axis=0) / m, atol=1e-12)


class TestUpdatePrototypes:
    def test_adopts_wider_pair(self):
        current = _proto([1.0, 0.1], [1.0, -0.1])
        updated = update_prototypes(current, [1.0, 0.0], [0.0, 1.0])
        assert updated.separation == pytest.approx(1.0)

    def test_keeps_wider_current(self):
        current = _proto([1.0, 0.0], [0.0, 1.0])
        updated = update_prototypes(current, [1.0, 0.1], [1.0, -0.1])
        assert updated is current

    def test_tie_keeps_current(self):
        current = _proto([1.0, 0.0], [0.0, 1.0])
        updated = update_prototypes(current, [0.0, 2.0], [2.0, 0.0])
        assert updated is current

    def test_rejected_candidate_builds_no_prototypes(self, monkeypatch):
        current = _proto([1.0, 0.0], [0.0, 1.0])
        built = []

        def counting(*args):
            built.append(Prototypes(*args))
            return built[-1]

        monkeypatch.setattr(prototypes, "Prototypes", counting)
        for cand in (([1.0, 0.1], [1.0, -0.1]), ([0.0, 2.0], [2.0, 0.0])):
            assert update_prototypes(current, *cand) is current
        assert built == []
        accepted = update_prototypes(current, [1.0, 0.0], [-1.0, 0.0])
        assert built == [accepted] and accepted.separation == 2.0

    @pytest.mark.parametrize("cand", [([0.0, 0.0], [1.0, 0.0]),
                                      ([1.0, 0.0], [0.0, 0.0])])
    def test_zero_norm_candidate_raises_even_when_current_is_wider(self,
                                                                   cand):
        current = _proto([1.0, 0.0], [-1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            update_prototypes(current, *cand)
        with pytest.raises(ZeroVectorError):
            update_prototypes(None, *cand)

    def test_accepted_pair_is_the_candidate(self):
        rng = make_rng(15)
        cl_min, cl_maj = rng.normal(size=(2, 4))
        got = update_prototypes(None, list(cl_min), list(cl_maj))
        assert got.separation == cosine_distance(cl_min, cl_maj)
        for a, b in ((got.cl_min, cl_min), (got.cl_maj, cl_maj)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_separation_sequence_nondecreasing(self):
        rng = make_rng(14)
        proto = None
        seps = []
        for _ in range(200):
            proto = update_prototypes(proto, rng.normal(size=3),
                                      rng.normal(size=3))
            seps.append(proto.separation)
        assert np.all(np.diff(seps) >= 0.0)


@st.composite
def centers_and_rows(draw):
    """Two centers and a batch of rows, all of one width and nonzero."""
    dim = draw(st.integers(1, 8))
    vector = hnp.arrays(np.float64, dim, elements=st.floats(-1e3, 1e3)).filter(
        lambda v: np.linalg.norm(v) >= 1e-6)
    rows = draw(st.lists(vector, min_size=1, max_size=6))
    return draw(vector), draw(vector), np.array(rows)


def _proto(cl_min, cl_maj):
    return update_prototypes(None, cl_min, cl_maj)


def _score(e, proto):
    """The malignancy score of ``e`` from infer_label's distances."""
    return malignancy_score(*infer_label(e, proto)[1:])


class TestInference:
    def test_closer_to_majority(self):
        proto = _proto([0.0, 1.0], [1.0, 0.0])
        label, d_min, d_maj = infer_label([1.0, 0.1], proto)
        assert label == C_MAJ and d_maj < d_min

    def test_closer_to_minority(self):
        proto = _proto([0.0, 1.0], [1.0, 0.0])
        label, d_min, d_maj = infer_label([0.1, 1.0], proto)
        assert label == C_MIN and d_min < d_maj

    def test_tie_goes_to_minority(self):
        proto = _proto([0.0, 1.0], [1.0, 0.0])
        label, d_min, d_maj = infer_label([1.0, 1.0], proto)
        assert d_min == pytest.approx(d_maj, abs=1e-12)
        assert label == C_MIN

    def test_one_embedding_gives_arrays_of_one(self):
        proto = _proto([0.0, 1.0], [1.0, 0.0])
        label, d_min, d_maj = infer_label([1.0, 0.1], proto)
        for out in (label, d_min, d_maj, malignancy_score(d_min, d_maj)):
            assert isinstance(out, np.ndarray) and out.shape == (1,)

    def test_hand_case_with_the_gap_on_one_coordinate(self):
        # e.cl_min = 0.71, e.cl_maj = 0.31; |e|^2 = 0.51, |cl_min|^2 = 1.07,
        # |cl_maj|^2 = 0.27. On coordinate 0 alone both distances would be 0.
        proto = _proto([0.9, 0.1, 0.5], [0.1, 0.1, 0.5])
        label, d_min, d_maj = infer_label([0.5, 0.1, 0.5], proto)
        want_min = 1 - 0.71 / np.sqrt(0.51 * 1.07)
        want_maj = 1 - 0.31 / np.sqrt(0.51 * 0.27)
        assert d_min[0] == pytest.approx(want_min, abs=1e-12)
        assert d_maj[0] == pytest.approx(want_maj, abs=1e-12)
        assert label[0] == C_MIN
        assert malignancy_score(d_min, d_maj)[0] == pytest.approx(
            want_maj / (want_min + want_maj), abs=1e-12)

    def test_zero_row_raises(self):
        proto = _proto([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            infer_label([[1.0, 1.0], [0.0, 0.0]], proto)

    def test_score_extremes_and_symmetry(self):
        proto = _proto([0.0, 1.0], [1.0, 0.0])
        assert _score([1.0, 0.0], proto) == pytest.approx(0.0, abs=1e-12)
        assert _score([0.0, 1.0], proto) == pytest.approx(1.0, abs=1e-12)
        assert _score([1.0, 1.0], proto) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_distances(self):
        proto = _proto([1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateDistancesError):
            _score([1.0, 0.0], proto)

    def test_label_and_score_agree(self):
        rng = make_rng(19)
        proto = _proto(rng.normal(size=5), rng.normal(size=5))
        for _ in range(200):
            e = rng.normal(size=5)
            label, d_min, d_maj = infer_label(e, proto)
            s = malignancy_score(d_min, d_maj)
            assert (label == C_MIN) == (s >= 0.5)

    def test_scale_invariance(self):
        rng = make_rng(20)
        proto = _proto(rng.normal(size=5), rng.normal(size=5))
        for _ in range(50):
            e = rng.normal(size=5)
            c = rng.uniform(0.1, 10.0)
            assert infer_label(e, proto)[0] == infer_label(c * e, proto)[0]
            assert _score(e, proto) == pytest.approx(
                _score(c * e, proto), abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(centers_and_rows())
    @example(([0.9, 0.1, 0.5], [0.1, 0.1, 0.5],
              [[0.9, 0.1, 0.5], [0.1, 0.1, 0.5], [0.5, 0.3, 0.1]]))
    def test_distances_use_every_coordinate(self, case):
        """Centers whose gap sits on one coordinate do not reduce the
        distances to that coordinate."""
        cl_min, cl_maj, rows = (np.asarray(a, dtype=np.float64)
                                for a in case)
        _, d_min, d_maj = infer_label(rows, _proto(cl_min, cl_maj))
        assert d_min.tobytes() == row_cosine_distance(rows, cl_min).tobytes()
        assert d_maj.tobytes() == row_cosine_distance(rows, cl_maj).tobytes()

    def test_separation_recomputes(self):
        rng = make_rng(22)
        u, v = rng.normal(size=(2, 6))
        proto = _proto(u, v)
        assert proto.separation == pytest.approx(cosine_distance(u, v), abs=1e-12)
