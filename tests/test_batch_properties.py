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
from comclust.losses import (C_MAJ, C_MIN, TRIPLET_MARGIN,
                             com_adaptive_margin, com_dist_wa,
                             com_triplet_loss, triplet_loss,
                             triplet_loss_batch, udc_com_loss)
from comclust.prototypes import infer_label, malignancy_score, update_prototypes

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# entries bounded away from zero, so no row can have a vanishing norm
ENTRY = st.one_of(st.floats(-5.0, -0.05), st.floats(0.05, 5.0))


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


def _com_row(a, p, n):
    return max(0.0, com_dist_wa(a, p, n) + com_adaptive_margin(p, n))


def _udc_row(a, cls, mu_min, mu_maj):
    """The COM row of an anchor with its own center as P, the other as N."""
    own, other = (mu_min, mu_maj) if cls == C_MIN else (mu_maj, mu_min)
    return _com_row(a, own, other)


@PROPERTY
@given(batches(3), st.data())
def test_com_triplet_loss_is_mean_of_rows(abn, data):
    a, p, n = abn
    loss = com_triplet_loss(a, p, n)
    assert isinstance(loss, float)
    expected = np.mean([_com_row(a[i], p[i], n[i])
                        for i in range(len(a))])
    assert loss == pytest.approx(expected, abs=1e-12)
    k = data.draw(st.integers(0, 2))
    scaled = [x * data.draw(row_scales(len(a))) if j == k else x
              for j, x in enumerate(abn)]
    assert com_triplet_loss(*scaled) == pytest.approx(loss, abs=1e-12)


@PROPERTY
@given(batches(3), st.data())
def test_triplet_loss_batch_is_mean_of_rows(abn, data):
    a, p, n = abn
    loss = triplet_loss_batch(a, p, n)
    expected = np.mean([triplet_loss(a[i], p[i], n[i], TRIPLET_MARGIN)
                        for i in range(len(a))])
    assert loss == pytest.approx(expected, abs=1e-12)
    k = data.draw(st.integers(0, 2))
    scaled = [x * data.draw(row_scales(len(a))) if j == k else x
              for j, x in enumerate(abn)]
    assert triplet_loss_batch(*scaled) == pytest.approx(loss, abs=1e-12)


@PROPERTY
@given(batches(1), st.data())
def test_udc_com_loss_is_mean_of_rows(anchors, data):
    (a,) = anchors
    m, s = a.shape
    mu_min, mu_maj = data.draw(hnp.arrays(np.float64, (2, s), elements=ENTRY))
    classes = data.draw(hnp.arrays(np.int64, m,
                                   elements=st.sampled_from([C_MAJ, C_MIN])))
    loss = udc_com_loss(a, classes, mu_min, mu_maj)
    expected = np.mean([_udc_row(a[i], classes[i], mu_min, mu_maj)
                        for i in range(m)])
    assert loss == pytest.approx(expected, abs=1e-12)
    scaled = udc_com_loss(a * data.draw(row_scales(m)), classes,
                          2.5 * mu_min, 0.3 * mu_maj)
    assert scaled == pytest.approx(loss, abs=1e-12)


@PROPERTY
@given(batches(1), st.data())
def test_udc_com_loss_is_com_triplet_on_center_rows(anchors, data):
    """Each anchor's own center is its positive, the other its negative."""
    (a,) = anchors
    m, s = a.shape
    mu_min, mu_maj = data.draw(hnp.arrays(np.float64, (2, s), elements=ENTRY))
    classes = data.draw(hnp.arrays(np.int64, m,
                                   elements=st.sampled_from([C_MAJ, C_MIN])))
    own = np.array([mu_min if c == C_MIN else mu_maj for c in classes])
    other = np.array([mu_maj if c == C_MIN else mu_min for c in classes])
    assert (udc_com_loss(a, classes, mu_min, mu_maj)
            == com_triplet_loss(a, own, other))


@st.composite
def inference_cases(draw):
    """A prototype pair and a batch of embeddings. With S=2 and swapped
    prototypes, a row with equal entries is an exact tie in floating
    point, so some cases carry ties."""
    if draw(st.booleans()):
        x, y = draw(ENTRY), draw(ENTRY)
        proto = update_prototypes(None, [x, y], [y, x])
        s = 2
    else:
        s = draw(st.integers(2, 6))
        cl_min, cl_maj = draw(hnp.arrays(np.float64, (2, s), elements=ENTRY))
        proto = update_prototypes(None, cl_min, cl_maj)
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
        scores = malignancy_score(d_min, d_maj)
    except DegenerateDistancesError:   # then some row alone raises too
        with pytest.raises(DegenerateDistancesError):
            for i in range(len(emb)):
                malignancy_score(*infer_label(emb[i:i + 1], proto)[1:])
        return
    for i in range(len(emb)):
        row = emb[i:i + 1]
        label, dmin_i, dmaj_i = infer_label(row, proto)
        assert label == labels[i:i + 1]
        assert dmin_i == d_min[i:i + 1] and dmaj_i == d_maj[i:i + 1]
        assert malignancy_score(dmin_i, dmaj_i) == scores[i:i + 1]
        if dmin_i == dmaj_i:
            assert label == C_MIN and scores[i] == 0.5
        else:
            assert (scores[i] > 0.5) == (label == C_MIN)


def test_tie_rows_inside_a_batch_go_to_minority():
    proto = update_prototypes(None, [0.3, 2.0], [2.0, 0.3])
    emb = np.array([[1.0, 1.0], [1.0, 0.2], [0.2, 1.0], [-3.0, -3.0]])
    labels, d_min, d_maj = infer_label(emb, proto)
    assert d_min[0] == d_maj[0] and d_min[3] == d_maj[3]
    np.testing.assert_array_equal(labels, [C_MIN, C_MAJ, C_MIN, C_MIN])
    assert malignancy_score(d_min, d_maj)[0] == 0.5
    assert cosine_distance(emb[1], [2.0, 0.3]) == pytest.approx(d_maj[1])
