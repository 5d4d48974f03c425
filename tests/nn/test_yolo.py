"""Tests for the Fig. 5 YOLO-style early-exit detector, its loss and decoding."""

import numpy as np
import pytest

from repro import nn
from repro.nn.models import (
    Detection,
    EarlyExitDetector,
    GroundTruthBox,
    YoloLoss,
    box_iou,
    evaluate_detections,
    non_max_suppression,
)
from repro.nn.models.yolo import decode_predictions, detection_confidence
from repro.nn.tensor import Tensor


class TestBoxes:
    def test_ground_truth_validates_range(self):
        with pytest.raises(ValueError):
            GroundTruthBox(cx=1.5, cy=0.5, w=0.1, h=0.1, class_id=0)

    def test_iou_identical_boxes(self):
        a = GroundTruthBox(0.5, 0.5, 0.2, 0.2, 0)
        assert box_iou(a, a) == pytest.approx(1.0)

    def test_iou_disjoint_boxes(self):
        a = GroundTruthBox(0.2, 0.2, 0.1, 0.1, 0)
        b = GroundTruthBox(0.8, 0.8, 0.1, 0.1, 0)
        assert box_iou(a, b) == 0.0

    def test_iou_partial_overlap(self):
        a = Detection(0.5, 0.5, 0.2, 0.2, 0, 1.0)
        b = Detection(0.6, 0.5, 0.2, 0.2, 0, 1.0)
        iou = box_iou(a, b)
        assert 0.0 < iou < 1.0
        np.testing.assert_allclose(iou, (0.1 * 0.2) / (2 * 0.04 - 0.1 * 0.2))

    def test_nms_drops_overlapping_lower_score(self):
        detections = [
            Detection(0.5, 0.5, 0.2, 0.2, 0, 0.9),
            Detection(0.52, 0.5, 0.2, 0.2, 0, 0.8),
            Detection(0.1, 0.1, 0.1, 0.1, 0, 0.7),
        ]
        kept = non_max_suppression(detections, iou_threshold=0.5)
        assert len(kept) == 2
        assert kept[0].score == 0.9

    def test_nms_keeps_different_classes(self):
        detections = [
            Detection(0.5, 0.5, 0.2, 0.2, 0, 0.9),
            Detection(0.5, 0.5, 0.2, 0.2, 1, 0.8),
        ]
        assert len(non_max_suppression(detections)) == 2


class TestDecodePredictions:
    def test_decode_respects_threshold(self):
        raw = np.full((1, 7, 2, 2), -10.0)  # objectness ~0 everywhere
        assert decode_predictions(raw) == [[]]

    def test_decode_finds_confident_cell(self):
        raw = np.full((1, 7, 2, 2), -10.0)
        raw[0, 4, 1, 0] = 10.0      # objectness ~1 in cell (row 1, col 0)
        raw[0, 5, 1, 0] = 5.0       # class 0
        dets = decode_predictions(raw)[0]
        assert len(dets) == 1
        det = dets[0]
        assert det.class_id == 0
        assert 0.0 <= det.cx <= 0.5   # left column
        assert 0.5 <= det.cy <= 1.0   # bottom row


class TestYoloLoss:
    def test_targets_built_in_correct_cell(self):
        loss = YoloLoss(grid=4, num_classes=3)
        boxes = [[GroundTruthBox(0.9, 0.1, 0.2, 0.2, class_id=2)]]
        coords, obj, classes = loss.build_targets(boxes)
        assert obj[0, 0, 0, 3] == 1.0  # top row, rightmost column
        assert classes[0, 0, 3] == 2
        assert obj.sum() == 1.0

    def test_boundary_box_clamped(self):
        loss = YoloLoss(grid=4, num_classes=1)
        boxes = [[GroundTruthBox(1.0, 1.0, 0.1, 0.1, class_id=0)]]
        _, obj, _ = loss.build_targets(boxes)
        assert obj[0, 0, 3, 3] == 1.0

    def test_loss_is_positive_scalar(self):
        model = EarlyExitDetector(1, 16, num_classes=2, grid=4)
        loss_fn = YoloLoss(grid=4, num_classes=2)
        _, raw = model(Tensor(
            np.random.default_rng(0).normal(0, 1, (2, 1, 16, 16))))
        boxes = [[GroundTruthBox(0.5, 0.5, 0.3, 0.3, 0)], []]
        loss = loss_fn(raw, boxes)
        assert loss.data.size == 1
        assert loss.item() > 0

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        model = EarlyExitDetector(1, 16, num_classes=2, grid=4, rng=rng)
        loss_fn = YoloLoss(grid=4, num_classes=2)
        x = rng.normal(0, 0.1, (8, 1, 16, 16))
        boxes = []
        for i in range(8):
            cx, cy = (0.25, 0.25) if i % 2 == 0 else (0.75, 0.75)
            x[i, 0, int(cy * 16) - 3:int(cy * 16) + 3,
              int(cx * 16) - 3:int(cx * 16) + 3] = 1.0
            boxes.append([GroundTruthBox(cx, cy, 0.4, 0.4, i % 2)])
        opt = nn.Adam(model.parameters(), lr=0.01)
        first = loss_fn(model(Tensor(x))[0], boxes).item()
        for _ in range(30):
            opt.zero_grad()
            loss = loss_fn(model(Tensor(x))[0], boxes)
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first


class TestEvaluation:
    def test_perfect_detection(self):
        truth = [[GroundTruthBox(0.5, 0.5, 0.2, 0.2, 1)]]
        predicted = [[Detection(0.5, 0.5, 0.2, 0.2, 1, 0.9)]]
        metrics = evaluate_detections(predicted, truth)
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0
        assert metrics["f1"] == 1.0

    def test_missed_detection_counts_fn(self):
        truth = [[GroundTruthBox(0.5, 0.5, 0.2, 0.2, 1)]]
        metrics = evaluate_detections([[]], truth)
        assert metrics["recall"] == 0.0
        assert metrics["false_negatives"] == 1

    def test_spurious_detection_counts_fp(self):
        metrics = evaluate_detections(
            [[Detection(0.5, 0.5, 0.2, 0.2, 1, 0.9)]], [[]])
        assert metrics["precision"] == 0.0
        assert metrics["false_positives"] == 1

    def test_wrong_class_right_location(self):
        truth = [[GroundTruthBox(0.5, 0.5, 0.2, 0.2, 1)]]
        predicted = [[Detection(0.5, 0.5, 0.2, 0.2, 0, 0.9)]]
        metrics = evaluate_detections(predicted, truth)
        assert metrics["classification_accuracy"] == 0.0
        assert metrics["precision"] == 0.0

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_detections([[]], [[], []])


class TestEarlyExitDetector:
    def test_forward_shapes(self):
        model = EarlyExitDetector(1, 16, num_classes=3, grid=4)
        local, remote = model(Tensor(np.zeros((2, 1, 16, 16))))
        assert local.shape == (2, 8, 4, 4)
        assert remote.shape == (2, 8, 4, 4)

    def test_grid_output_shape(self):
        # Each exit predicts 5 box terms + one score per class in every
        # grid cell, whatever the frame size it reached the grid from.
        model = EarlyExitDetector(1, 32, num_classes=2, grid=4)
        local, remote = model(Tensor(np.zeros((3, 1, 32, 32))))
        assert local.shape == (3, 5 + 2, 4, 4)
        assert remote.shape == (3, 5 + 2, 4, 4)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            EarlyExitDetector(1, 12, num_classes=3, grid=4)  # 6 -> 3 skips 4
        with pytest.raises(ValueError):
            EarlyExitDetector(1, 4, num_classes=3, grid=4)   # stem below grid
        with pytest.raises(ValueError):
            EarlyExitDetector(1, 15, num_classes=3, grid=4)  # odd frame

    def test_remote_branch_heavier(self):
        from repro.nn.flops import estimate_flops
        model = EarlyExitDetector(1, 16, num_classes=3, grid=4)
        local, _ = estimate_flops(model.local_head, (8, 8, 8))
        remote, _ = estimate_flops(model.remote_stage, (8, 8, 8))
        assert remote > local

    def test_feature_map_smaller_than_raw_for_large_frames(self):
        model = EarlyExitDetector(3, 32, num_classes=3, grid=4)
        # 3*32*32 raw bytes vs 8*16*16*4 feature bytes
        assert model.raw_frame_bytes() == 3 * 32 * 32
        assert model.feature_map_bytes() == 8 * 16 * 16 * 4

    def test_infer_threshold_extremes(self):
        model = EarlyExitDetector(1, 16, num_classes=2, grid=2)
        x = Tensor(np.random.default_rng(0).normal(0, 1, (4, 1, 16, 16)))
        all_local = model.infer_batch(x, 0.0, confidence=detection_confidence)
        assert all_local.local_mask.all()
        assert all_local.remote_rows.size == 0
        all_remote = model.infer_batch(x, 1.01,
                                       confidence=detection_confidence)
        assert not all_remote.local_mask.any()
        assert all_remote.remote_logits.shape == (4, 7, 2, 2)

    def test_infer_result_count(self):
        model = EarlyExitDetector(1, 16, num_classes=2, grid=2)
        x = Tensor(np.zeros((5, 1, 16, 16)))
        decisions = model.infer_batch(x, 0.5, confidence=detection_confidence)
        assert len(decisions) == 5
        assert len(model.detections(decisions)) == 5

    def test_detections_come_from_the_answering_exit(self):
        rng = np.random.default_rng(3)
        model = EarlyExitDetector(1, 16, num_classes=2, grid=2, rng=rng)
        x = rng.normal(0, 1, (6, 1, 16, 16))
        confidence = model.infer_batch(
            x, 0.0, confidence=detection_confidence).confidence
        decisions = model.infer_batch(x, float(np.median(confidence)) + 1e-9,
                                      confidence=detection_confidence)
        assert 0 < decisions.remote_rows.size < 6
        local = decode_predictions(decisions.local_logits, 0.2)
        remote = dict(zip(decisions.remote_rows.tolist(),
                          decode_predictions(decisions.remote_logits, 0.2)))
        assert model.detections(decisions) == [
            remote.get(row, local[row]) for row in range(6)]
        # The exit-1 confidence is the best locally decoded score.
        best = [max((d.score for d in dets), default=0.0) for dets in local]
        np.testing.assert_array_equal(decisions.confidence, best)

    def test_joint_loss_trains(self):
        rng = np.random.default_rng(1)
        model = EarlyExitDetector(1, 16, num_classes=2, grid=2, rng=rng)
        loss_fn = YoloLoss(grid=2, num_classes=2)
        x = rng.normal(0, 0.1, (4, 1, 16, 16))
        boxes = [[GroundTruthBox(0.25, 0.25, 0.3, 0.3, 0)] for _ in range(4)]
        opt = nn.Adam(model.parameters(), lr=0.01)
        first = model.joint_loss(Tensor(x), boxes, loss_fn).item()
        for _ in range(15):
            opt.zero_grad()
            loss = model.joint_loss(Tensor(x), boxes, loss_fn)
            loss.backward()
            opt.step()
        assert loss.item() < first
