"""Property-based tests for conv primitives, softmax and detection math."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import functional as F
from repro.nn.models.yolo import (
    Detection,
    box_iou,
    non_max_suppression,
)
from repro.nn.tensor import Tensor

SMALL_FLOATS = st.floats(min_value=-3.0, max_value=3.0,
                         allow_nan=False, allow_infinity=False)
UNIT = st.floats(min_value=0.05, max_value=0.95,
                 allow_nan=False, allow_infinity=False)
SIZES = st.floats(min_value=0.05, max_value=0.4,
                  allow_nan=False, allow_infinity=False)


def images(max_side=6):
    shapes = st.tuples(st.integers(1, 2), st.integers(1, 2),
                       st.integers(3, max_side), st.integers(3, max_side))
    return hnp.arrays(np.float64, shapes, elements=SMALL_FLOATS)


@settings(max_examples=25, deadline=None)
@given(images(), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1))
def test_im2col_col2im_adjoint(x, kernel, stride, padding):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity
    that makes the conv backward pass correct."""
    n, c, h, w = x.shape
    if h + 2 * padding < kernel or w + 2 * padding < kernel:
        return
    cols, out_h, out_w = F.im2col(x, kernel, stride, padding)
    rng = np.random.default_rng(0)
    y = rng.normal(0, 1, cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * F.col2im(y, x.shape, kernel, stride, padding)).sum())
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(images(max_side=6))
def test_conv_linearity(x):
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(0, 1, (2, x.shape[1], 3, 3)))
    if x.shape[2] < 3 or x.shape[3] < 3:
        return
    a = F.conv2d(Tensor(x), w).data
    b = F.conv2d(Tensor(2.0 * x), w).data
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 6)),
                  elements=SMALL_FLOATS))
def test_softmax_is_distribution(logits):
    probs = F.softmax(Tensor(logits)).data
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 6)),
                  elements=SMALL_FLOATS),
       st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_softmax_shift_invariance(logits, shift):
    base = F.softmax(Tensor(logits)).data
    shifted = F.softmax(Tensor(logits + shift)).data
    np.testing.assert_allclose(base, shifted, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 6)),
                  elements=SMALL_FLOATS))
def test_entropy_bounds(logits):
    probs = F.softmax(Tensor(logits)).data
    entropy = F.entropy(probs)
    classes = logits.shape[-1]
    assert (entropy >= -1e-9).all()
    assert (entropy <= np.log(classes) + 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 5)),
                  elements=SMALL_FLOATS))
def test_cross_entropy_at_least_log_prob_of_truth(logits):
    targets = np.zeros(logits.shape[0], dtype=int)
    loss = F.cross_entropy(Tensor(logits), targets).item()
    assert loss >= -1e-9  # cross-entropy is nonnegative


def boxes():
    return st.builds(
        lambda cx, cy, w, h, c, s: Detection(cx, cy, w, h, c, s),
        UNIT, UNIT, SIZES, SIZES, st.integers(0, 2), UNIT)


@settings(max_examples=50, deadline=None)
@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    ab = box_iou(a, b)
    ba = box_iou(b, a)
    np.testing.assert_allclose(ab, ba, atol=1e-12)
    assert 0.0 <= ab <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(boxes())
def test_iou_identity(a):
    np.testing.assert_allclose(box_iou(a, a), 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(boxes(), max_size=8),
       st.floats(min_value=0.1, max_value=0.9, allow_nan=False))
def test_nms_output_properties(detections, threshold):
    kept = non_max_suppression(detections, iou_threshold=threshold)
    # Output is a subset, sorted by score, with no same-class pair above
    # the IoU threshold.
    assert len(kept) <= len(detections)
    scores = [d.score for d in kept]
    assert scores == sorted(scores, reverse=True)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            if a.class_id == b.class_id:
                assert box_iou(a, b) < threshold
