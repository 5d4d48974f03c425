"""YOLO-style single-shot grid detectors (Sec. IV-A-1, Figs. 5-6).

The paper's vehicle pipeline runs Tiny YOLO on the local device and, when
the classification score is below a threshold, ships the pre-branch feature
map to the server where the remaining YOLOv2 layers produce the final boxes.
This module implements that family at laptop scale:

- :class:`YoloDetector` — a generic one-box-per-cell grid detector;
- :class:`TinyYolo` — a thin trunk variant;
- :class:`EarlyExitDetector` — shared stem + tiny local branch + deep server
  branch, the exact Fig. 5 topology, as an
  :class:`~repro.nn.models.earlyexit.EarlyExitNetwork`;
- :func:`detection_confidence` — the Fig. 5 exit rule over a raw grid;
- :class:`YoloLoss` — coordinate + objectness + class loss;
- decoding, non-max suppression, and precision/recall/AP evaluation.

Boxes are (cx, cy, w, h) in image-fraction coordinates, [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.rng import resolve_rng

from repro import nn
from repro.nn import functional as F
from repro.nn.inference import eval_mode
from repro.nn.models.earlyexit import (
    BatchExitDecisions,
    EarlyExitNetwork,
    score_confidence,
)
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class GroundTruthBox:
    """A labelled object: center/size in image fractions plus a class id."""

    cx: float
    cy: float
    w: float
    h: float
    class_id: int

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


@dataclass
class Detection:
    """A decoded detection with confidence score."""

    cx: float
    cy: float
    w: float
    h: float
    class_id: int
    score: float


def box_iou(a, b) -> float:
    """Intersection-over-union of two (cx, cy, w, h) boxes."""
    ax1, ay1 = a.cx - a.w / 2, a.cy - a.h / 2
    ax2, ay2 = a.cx + a.w / 2, a.cy + a.h / 2
    bx1, by1 = b.cx - b.w / 2, b.cy - b.h / 2
    bx2, by2 = b.cx + b.w / 2, b.cy + b.h / 2
    ix = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    iy = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def non_max_suppression(detections: Sequence[Detection],
                        iou_threshold: float = 0.5,
                        class_agnostic: bool = False) -> List[Detection]:
    """Greedy NMS: keep highest-score boxes, drop overlapping lower ones.

    With ``class_agnostic`` set, overlapping boxes suppress each other even
    across classes (one object yields one detection).
    """
    remaining = sorted(detections, key=lambda d: d.score, reverse=True)
    kept: List[Detection] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining
                     if box_iou(best, d) < iou_threshold
                     or (not class_agnostic and d.class_id != best.class_id)]
    return kept


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


class YoloDetector(nn.Module):
    """One-box-per-cell grid detector.

    The trunk is a stride-2 conv stack taking ``image_size`` down to
    ``grid``; the head is a 1x1 conv producing ``5 + num_classes`` channels:
    (tx, ty, tw, th, objectness, class logits).
    """

    def __init__(self, in_channels: int, image_size: int, num_classes: int,
                 grid: int = 4, widths: Sequence[int] = (8, 16, 16),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.models.yolo.detector")
        stages = 0
        size = image_size
        while size > grid:
            if size % 2:
                raise ValueError(
                    f"image_size {image_size} cannot reach grid {grid} by halving")
            size //= 2
            stages += 1
        if stages == 0 or size != grid:
            raise ValueError(
                f"image_size {image_size} cannot reach grid {grid} by halving")
        if len(widths) < stages:
            widths = list(widths) + [widths[-1]] * (stages - len(widths))
        layers = []
        current = in_channels
        for stage in range(stages):
            layers += [
                nn.Conv2d(current, widths[stage], 3, stride=2, padding=1, rng=rng),
                nn.BatchNorm2d(widths[stage]),
                nn.LeakyReLU(0.1),
            ]
            current = widths[stage]
        self.trunk = nn.Sequential(*layers)
        self.head = nn.Conv2d(current, 5 + num_classes, 1, rng=rng)
        self.grid = grid
        self.num_classes = num_classes
        self.image_size = image_size
        self.in_channels = in_channels

    def forward(self, x: Tensor) -> Tensor:
        """Raw predictions, shape (N, 5 + C, S, S)."""
        return self.head(self.trunk(x))

    def decode(self, raw: np.ndarray, score_threshold: float = 0.5,
               nms_iou: float = 0.5) -> List[List[Detection]]:
        """Raw output (N, 5+C, S, S) -> per-image NMS-filtered detections."""
        return decode_predictions(raw, score_threshold, nms_iou)

    def detect(self, x: Tensor, score_threshold: float = 0.5) -> List[List[Detection]]:
        with eval_mode(self), nn.no_grad():
            raw = self.forward(x).data
        return self.decode(raw, score_threshold)

    def estimate_flops(self, input_shape: Tuple[int, ...]):
        from repro.nn.flops import estimate_flops
        flops, shape = estimate_flops(self.trunk, input_shape)
        head, shape = estimate_flops(self.head, shape)
        return flops + head, shape


class TinyYolo(YoloDetector):
    """A thin-trunk detector — the local-device half of the Fig. 5 pipeline."""

    def __init__(self, in_channels: int, image_size: int, num_classes: int,
                 grid: int = 4, rng: Optional[np.random.Generator] = None):
        super().__init__(in_channels, image_size, num_classes, grid=grid,
                         widths=(4, 8, 8), rng=rng)


def cell_scores(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell (score, class id) of a raw (N, 5+C, S, S) grid, each (N, S, S).

    A cell's score is its objectness times its best class probability.
    """
    raw = np.asarray(raw)
    class_logits = np.ascontiguousarray(np.moveaxis(raw[:, 5:], 1, -1))
    return (_sigmoid(raw[:, 4]) * score_confidence(class_logits),
            class_logits.argmax(axis=-1))


def detection_confidence(raw: np.ndarray,
                         score_floor: float = 0.2) -> np.ndarray:
    """The Fig. 5 exit confidence of a raw grid: its best decoded score.

    One value per image, 0 when no cell reaches ``score_floor`` (nothing
    would be decoded).  Drives :meth:`EarlyExitNetwork.infer_batch` as the
    ``confidence`` of an :class:`repro.fog.policies.ExitPolicy`.
    """
    scores, _ = cell_scores(raw)
    best = scores.reshape(scores.shape[0], -1).max(axis=1)
    return np.where(best >= score_floor, best, 0.0)


def decode_predictions(raw: np.ndarray, score_threshold: float = 0.5,
                       nms_iou: float = 0.5) -> List[List[Detection]]:
    """Shared decoding for any (N, 5+C, S, S) prediction volume."""
    raw = np.asarray(raw)
    grid = raw.shape[-1]
    scores, class_ids = cell_scores(raw)
    boxes = _sigmoid(raw[:, :4])
    results: List[List[Detection]] = []
    for image in range(raw.shape[0]):
        detections = [
            Detection(cx=(gx + float(boxes[image, 0, gy, gx])) / grid,
                      cy=(gy + float(boxes[image, 1, gy, gx])) / grid,
                      w=float(boxes[image, 2, gy, gx]),
                      h=float(boxes[image, 3, gy, gx]),
                      class_id=int(class_ids[image, gy, gx]),
                      score=float(scores[image, gy, gx]))
            for gy, gx in np.argwhere(
                scores[image] >= score_threshold).tolist()]
        results.append(non_max_suppression(detections, nms_iou,
                                           class_agnostic=True))
    return results


class YoloLoss:
    """YOLO training loss: coordinates + objectness + classification.

    Each ground-truth box is assigned to the grid cell containing its
    center.  Assigned cells pay a coordinate MSE (in sigmoid space), a
    BCE pushing objectness to 1, and a class cross-entropy; unassigned
    cells pay a down-weighted BCE pushing objectness to 0.
    """

    def __init__(self, grid: int, num_classes: int,
                 lambda_coord: float = 5.0, lambda_noobj: float = 0.5):
        self.grid = grid
        self.num_classes = num_classes
        self.lambda_coord = lambda_coord
        self.lambda_noobj = lambda_noobj

    def build_targets(self, batch_boxes: Sequence[Sequence[GroundTruthBox]]
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coord_targets, obj_mask, class_targets) numpy volumes."""
        n = len(batch_boxes)
        s = self.grid
        coords = np.zeros((n, 4, s, s))
        obj = np.zeros((n, 1, s, s))
        classes = np.zeros((n, s, s), dtype=int)
        for image, boxes in enumerate(batch_boxes):
            for box in boxes:
                gx = min(int(box.cx * s), s - 1)
                gy = min(int(box.cy * s), s - 1)
                coords[image, 0, gy, gx] = box.cx * s - gx   # offset in cell
                coords[image, 1, gy, gx] = box.cy * s - gy
                coords[image, 2, gy, gx] = box.w
                coords[image, 3, gy, gx] = box.h
                obj[image, 0, gy, gx] = 1.0
                classes[image, gy, gx] = box.class_id
        return coords, obj, classes

    def __call__(self, raw: Tensor,
                 batch_boxes: Sequence[Sequence[GroundTruthBox]]) -> Tensor:
        coords, obj, classes = self.build_targets(batch_boxes)
        pred_xy = raw[:, 0:2, :, :].sigmoid()
        pred_wh = raw[:, 2:4, :, :].sigmoid()
        pred_obj = raw[:, 4:5, :, :]
        pred_cls = raw[:, 5:, :, :]

        obj_mask = Tensor(obj)
        coord_target = Tensor(coords)
        xy_loss = (((pred_xy - coord_target[:, 0:2, :, :]) ** 2) * obj_mask).sum()
        wh_loss = (((pred_wh - coord_target[:, 2:4, :, :]) ** 2) * obj_mask).sum()

        obj_bce = _bce_elementwise(pred_obj, obj)
        obj_loss = (obj_bce * obj_mask).sum()
        noobj_loss = (obj_bce_target_zero(pred_obj) * (1.0 - obj_mask)).sum()

        # classification: cross-entropy over the class logits of object cells
        n, c, s, _ = pred_cls.shape
        flat_logits = pred_cls.transpose(0, 2, 3, 1).reshape(n * s * s, c)
        flat_classes = classes.reshape(-1)
        flat_mask = obj.reshape(-1)
        log_probs = F.log_softmax(flat_logits, axis=-1)
        picked = log_probs[np.arange(n * s * s), flat_classes]
        cls_loss = -(picked * Tensor(flat_mask)).sum()

        # Normalize every term by the batch size, as in the YOLO paper:
        # the no-object BCE then genuinely suppresses empty cells instead
        # of being diluted by the cell count.
        batch = float(raw.shape[0])
        return (self.lambda_coord * (xy_loss + wh_loss)
                + obj_loss
                + self.lambda_noobj * noobj_loss
                + cls_loss) * (1.0 / batch)


def _bce_elementwise(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-element BCE-with-logits (no reduction)."""
    t = Tensor(np.asarray(targets), dtype=logits.data.dtype)
    relu_x = logits.relu()
    abs_x = logits.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    return relu_x - logits * t + softplus


def obj_bce_target_zero(logits: Tensor) -> Tensor:
    """BCE with target 0 for every element: softplus(x)."""
    relu_x = logits.relu()
    abs_x = logits.abs()
    softplus = ((-abs_x).exp() + 1.0).log()
    return relu_x + softplus


class EarlyExitDetector(EarlyExitNetwork):
    """Shared stem + tiny local branch + deep server branch (Fig. 5).

    An :class:`EarlyExitNetwork` whose local stage is the stem, whose exit 1
    is the tiny branch + its grid head, and whose remote stage and exit 2
    are the deep branch + its grid head: images whose best detection score
    (:func:`detection_confidence`) clears the threshold resolve locally,
    the rest ship the *stem feature map* upstream.  Both heads are dense,
    so ``infer_batch``'s logits are raw ``(5 + C, S, S)`` grids;
    :meth:`detections` decodes the answering exit's grid of every row.
    """

    def __init__(self, in_channels: int, image_size: int, num_classes: int,
                 grid: int = 4, stem_width: int = 8,
                 rng: Optional[np.random.Generator] = None):
        rng = resolve_rng(rng, "nn.models.yolo.earlyexit")
        if image_size % 2:
            raise ValueError("image_size must be even")
        stem = nn.Sequential(
            nn.Conv2d(in_channels, stem_width, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(stem_width),
            nn.LeakyReLU(0.1))
        stem_size = image_size // 2
        # Local (tiny) branch: one strided stage per remaining halving.
        local_branch, local_width = _branch(
            stem_width, stem_size, grid, (8, 8), rng)
        local_head = nn.Conv2d(local_width, 5 + num_classes, 1, rng=rng)
        # Server (deep) branch: wider stages plus an extra refinement conv.
        remote_branch, remote_width = _branch(
            stem_width, stem_size, grid, (16, 32), rng, extra_refine=True)
        remote_head = nn.Conv2d(remote_width, 5 + num_classes, 1, rng=rng)
        super().__init__(stem, nn.Sequential(local_branch, local_head),
                         remote_branch, remote_head)
        self.grid = grid
        self.num_classes = num_classes
        self.image_size = image_size
        self.in_channels = in_channels
        self.stem_width = stem_width

    def joint_loss(self, x: Tensor, batch_boxes, loss_fn: "YoloLoss",
                   local_weight: float = 0.5) -> Tensor:
        local, remote = self.forward(x)
        return (local_weight * loss_fn(local, batch_boxes)
                + (1 - local_weight) * loss_fn(remote, batch_boxes))

    def feature_map_bytes(self) -> int:
        """Per-image bytes of the stem feature map shipped upstream (fp32)."""
        half = self.image_size // 2
        return self.stem_width * half * half * 4

    def raw_frame_bytes(self) -> int:
        """Per-image bytes of the raw frame (uint8 per channel)."""
        return self.in_channels * self.image_size * self.image_size

    def detections(self, decisions: BatchExitDecisions,
                   score_floor: float = 0.2) -> List[List[Detection]]:
        """Final per-image detections of an ``infer_batch`` result.

        Each row's grid comes from the exit that answered it — the local
        head's, or the server head's for escalated rows — and the batch is
        decoded once.
        """
        raw = np.array(decisions.local_logits)
        if decisions.remote_rows.size:
            raw[decisions.remote_rows] = decisions.remote_logits
        return decode_predictions(raw, score_threshold=score_floor)


def _branch(in_width: int, in_size: int, grid: int, widths, rng,
            extra_refine: bool = False):
    """Strided conv stack from ``in_size`` down to ``grid``.

    Returns (module, output_width).
    """
    stages = 0
    size = in_size
    while size > grid:
        if size % 2:
            raise ValueError(f"size {in_size} cannot reach grid {grid} by halving")
        size //= 2
        stages += 1
    if size != grid:
        raise ValueError(f"size {in_size} cannot reach grid {grid} by halving")
    widths = list(widths) + [widths[-1]] * max(0, stages - len(widths))
    layers = []
    current = in_width
    for stage in range(stages):
        layers += [
            nn.Conv2d(current, widths[stage], 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(widths[stage]),
            nn.LeakyReLU(0.1),
        ]
        current = widths[stage]
    if extra_refine:
        layers += [
            nn.Conv2d(current, current, 3, padding=1, rng=rng),
            nn.BatchNorm2d(current),
            nn.LeakyReLU(0.1),
        ]
    return nn.Sequential(*layers), current


def evaluate_detections(predicted: Sequence[Sequence[Detection]],
                        truth: Sequence[Sequence[GroundTruthBox]],
                        iou_threshold: float = 0.5) -> dict:
    """Precision / recall / F1 / mean-IoU over a batch at one IoU cut.

    A prediction matches at most one ground-truth box of the same class with
    IoU >= threshold (greedy by score).
    """
    if len(predicted) != len(truth):
        raise ValueError("predicted and truth batch sizes differ")
    tp = fp = fn = 0
    matched_ious = []
    class_correct = 0
    localized = 0
    for dets, boxes in zip(predicted, truth):
        unmatched = list(boxes)
        for det in sorted(dets, key=lambda d: d.score, reverse=True):
            best_iou, best_box = 0.0, None
            for box in unmatched:
                iou = box_iou(det, box)
                if iou > best_iou:
                    best_iou, best_box = iou, box
            if best_box is not None and best_iou >= iou_threshold:
                unmatched.remove(best_box)
                localized += 1
                matched_ious.append(best_iou)
                if det.class_id == best_box.class_id:
                    tp += 1
                    class_correct += 1
                else:
                    fp += 1
            else:
                fp += 1
        fn += len(unmatched)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "mean_iou": float(np.mean(matched_ious)) if matched_ious else 0.0,
        "classification_accuracy": class_correct / localized if localized else 0.0,
        "true_positives": tp,
        "false_positives": fp,
        "false_negatives": fn,
    }
