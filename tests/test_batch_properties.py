"""Property tests: each batched (M, S) loss equals the mean of its per-row
1-D definition and ignores positive row rescaling; batched prototype
inference equals per-row inference, exact ties included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from comclust.autodiff import cosine_distance
from comclust.errors import DegenerateDistancesError
from comclust.losses import (C_MAJ, C_MIN, MarginSpec, com_adaptive_margin,
                             com_dist_wa, com_triplet_loss, triplet_loss,
                             triplet_loss_batch, udc_adaptive_margin,
                             udc_com_loss, udc_dist_wa)
from comclust.prototypes import Prototypes, infer_label, malignancy_score

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# entries bounded away from zero, so no row can have a vanishing norm
ENTRY = st.one_of(st.floats(-5.0, -0.05), st.floats(0.05, 5.0))
MARGINS = st.one_of(st.just(MarginSpec("adaptive")),
                    st.floats(0.0, 2.0).map(lambda a: MarginSpec("constant", a)))


@st.composite
def batches(draw, n_arrays):
    m = draw(st.integers(1, 6))
    s = draw(st.integers(2, 5))
    return [draw(hnp.arrays(np.float64, (m, s), elements=ENTRY))
            for _ in range(n_arrays)]


@st.composite
def row_scales(draw, m):
    return draw(hnp.arrays(np.float64, (m, 1),
                           elements=st.floats(0.01, 100.0)))


def _com_row(a, p, n, margin):
    bound = (com_adaptive_margin(p, n) if margin.mode == "adaptive"
             else margin.alpha)
    return max(0.0, com_dist_wa(a, p, n) + bound)


def _udc_row(a, cls, mu_min, mu_maj, margin):
    bound = (udc_adaptive_margin(mu_min, mu_maj) if margin.mode == "adaptive"
             else margin.alpha)
    return max(0.0, udc_dist_wa(a, mu_min, mu_maj, cls) + bound)


@PROPERTY
@given(batches(3), MARGINS, st.data())
def test_com_triplet_loss_is_mean_of_rows(abn, margin, data):
    a, p, n = abn
    loss = com_triplet_loss(a, p, n, margin)
    assert isinstance(loss, float)
    expected = np.mean([_com_row(a[i], p[i], n[i], margin)
                        for i in range(len(a))])
    assert loss == pytest.approx(expected, abs=1e-12)
    k = data.draw(st.integers(0, 2))
    scaled = [x * data.draw(row_scales(len(a))) if j == k else x
              for j, x in enumerate(abn)]
    assert com_triplet_loss(*scaled, margin) == pytest.approx(loss, abs=1e-12)


@PROPERTY
@given(batches(3), st.floats(0.0, 2.0), st.data())
def test_triplet_loss_batch_is_mean_of_rows(abn, alpha, data):
    a, p, n = abn
    loss = triplet_loss_batch(a, p, n, alpha)
    expected = np.mean([triplet_loss(a[i], p[i], n[i], alpha)
                        for i in range(len(a))])
    assert loss == pytest.approx(expected, abs=1e-12)
    k = data.draw(st.integers(0, 2))
    scaled = [x * data.draw(row_scales(len(a))) if j == k else x
              for j, x in enumerate(abn)]
    assert triplet_loss_batch(*scaled, alpha) == pytest.approx(loss, abs=1e-12)


@PROPERTY
@given(batches(1), MARGINS, st.data())
def test_udc_com_loss_is_mean_of_rows(anchors, margin, data):
    (a,) = anchors
    m, s = a.shape
    mu_min, mu_maj = data.draw(hnp.arrays(np.float64, (2, s), elements=ENTRY))
    classes = data.draw(hnp.arrays(np.int64, m,
                                   elements=st.sampled_from([C_MAJ, C_MIN])))
    loss = udc_com_loss(a, classes, mu_min, mu_maj, margin)
    expected = np.mean([_udc_row(a[i], classes[i], mu_min, mu_maj, margin)
                        for i in range(m)])
    assert loss == pytest.approx(expected, abs=1e-12)
    scaled = udc_com_loss(a * data.draw(row_scales(m)), classes,
                          2.5 * mu_min, 0.3 * mu_maj, margin)
    assert scaled == pytest.approx(loss, abs=1e-12)


@PROPERTY
@given(batches(1), MARGINS, st.data())
def test_udc_com_loss_is_com_triplet_on_center_rows(anchors, margin, data):
    """Each anchor's own center is its positive, the other its negative."""
    (a,) = anchors
    m, s = a.shape
    mu_min, mu_maj = data.draw(hnp.arrays(np.float64, (2, s), elements=ENTRY))
    classes = data.draw(hnp.arrays(np.int64, m,
                                   elements=st.sampled_from([C_MAJ, C_MIN])))
    own = np.array([mu_min if c == C_MIN else mu_maj for c in classes])
    other = np.array([mu_maj if c == C_MIN else mu_min for c in classes])
    assert (udc_com_loss(a, classes, mu_min, mu_maj, margin)
            == com_triplet_loss(a, own, other, margin))


@st.composite
def inference_cases(draw):
    """A prototype pair and a batch of embeddings. With S=2 and swapped
    prototypes, a row with equal entries is an exact tie in floating
    point, so some cases carry ties."""
    if draw(st.booleans()):
        x, y = draw(ENTRY), draw(ENTRY)
        proto = Prototypes.from_pair([x, y], [y, x]).with_feature_mask()
        s = 2
    else:
        s = draw(st.integers(2, 6))
        cl_min, cl_maj = draw(hnp.arrays(np.float64, (2, s), elements=ENTRY))
        proto = Prototypes.from_pair(cl_min, cl_maj).with_feature_mask()
    emb = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), s),
                          elements=ENTRY))
    if s == 2:
        ties = draw(hnp.arrays(bool, len(emb)))
        emb[ties, 1] = emb[ties, 0]
    return proto, emb


@PROPERTY
@given(inference_cases())
def test_batched_inference_equals_per_row(case):
    proto, emb = case
    labels, d_min, d_maj = infer_label(emb, proto)
    try:
        scores = malignancy_score(emb, proto)
    except DegenerateDistancesError:   # then some row alone raises too
        with pytest.raises(DegenerateDistancesError):
            for e in emb:
                malignancy_score(e, proto)
        return
    for i, e in enumerate(emb):
        label, dmin_i, dmaj_i = infer_label(e, proto)
        assert isinstance(label, int)
        assert (label, dmin_i, dmaj_i) == (labels[i], d_min[i], d_maj[i])
        assert malignancy_score(e, proto) == scores[i]
        if dmin_i == dmaj_i:
            assert label == C_MIN and scores[i] == 0.5
        else:
            assert (scores[i] > 0.5) == (label == C_MIN)


def test_tie_rows_inside_a_batch_go_to_minority():
    proto = Prototypes.from_pair([0.3, 2.0], [2.0, 0.3]).with_feature_mask()
    emb = np.array([[1.0, 1.0], [1.0, 0.2], [0.2, 1.0], [-3.0, -3.0]])
    labels, d_min, d_maj = infer_label(emb, proto)
    assert d_min[0] == d_maj[0] and d_min[3] == d_maj[3]
    np.testing.assert_array_equal(labels, [C_MIN, C_MAJ, C_MIN, C_MIN])
    assert malignancy_score(emb, proto)[0] == 0.5
    assert cosine_distance(emb[1], [2.0, 0.3]) == pytest.approx(d_maj[1])
