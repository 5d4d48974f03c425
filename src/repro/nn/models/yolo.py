"""YOLO-style single-shot grid detectors (Sec. IV-A-1, Figs. 5-6).

The paper's vehicle pipeline runs Tiny YOLO on the local device and, when
the classification score is below a threshold, ships the pre-branch feature
map to the server where the remaining YOLOv2 layers produce the final boxes.
This module implements that family at laptop scale:

- :class:`YoloDetector` — a generic one-box-per-cell grid detector;
- :class:`TinyYolo` — a thin trunk variant;
- :class:`EarlyExitDetector` — shared stem + tiny local branch + deep server
  branch, the exact Fig. 5 topology;
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
from repro.nn.inference import eval_mode, iter_microbatches, observe_inference
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
        return decode_predictions(raw, self.grid, self.num_classes,
                                  score_threshold, nms_iou)

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


def decode_predictions(raw: np.ndarray, grid: int, num_classes: int,
                       score_threshold: float = 0.5,
                       nms_iou: float = 0.5) -> List[List[Detection]]:
    """Shared decoding for any (N, 5+C, S, S) prediction volume."""
    raw = np.asarray(raw)
    n = raw.shape[0]
    results: List[List[Detection]] = []
    for image in range(n):
        detections: List[Detection] = []
        for gy in range(grid):
            for gx in range(grid):
                cell = raw[image, :, gy, gx]
                obj = float(_sigmoid(cell[4]))
                class_logits = cell[5:]
                shifted = class_logits - class_logits.max()
                probs = np.exp(shifted)
                probs /= probs.sum()
                class_id = int(probs.argmax())
                score = obj * float(probs[class_id])
                if score < score_threshold:
                    continue
                detections.append(Detection(
                    cx=(gx + float(_sigmoid(cell[0]))) / grid,
                    cy=(gy + float(_sigmoid(cell[1]))) / grid,
                    w=float(_sigmoid(cell[2])),
                    h=float(_sigmoid(cell[3])),
                    class_id=class_id,
                    score=score))
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


class EarlyExitDetector(nn.Module):
    """Shared stem + tiny local branch + deep server branch (Fig. 5).

    ``infer`` runs the stem and the tiny branch; images whose best detection
    score clears the threshold resolve locally, the rest ship the *stem
    feature map* upstream, where the deep branch finishes the job.
    """

    def __init__(self, in_channels: int, image_size: int, num_classes: int,
                 grid: int = 4, stem_width: int = 8,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.models.yolo.earlyexit")
        if image_size % 2:
            raise ValueError("image_size must be even")
        self.stem = nn.Sequential(
            nn.Conv2d(in_channels, stem_width, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(stem_width),
            nn.LeakyReLU(0.1))
        stem_size = image_size // 2
        # Local (tiny) branch: one strided stage per remaining halving.
        self.local_branch, local_width = _branch(
            stem_width, stem_size, grid, (8, 8), rng)
        self.local_head = nn.Conv2d(local_width, 5 + num_classes, 1, rng=rng)
        # Server (deep) branch: wider stages plus an extra refinement conv.
        self.remote_branch, remote_width = _branch(
            stem_width, stem_size, grid, (16, 32), rng, extra_refine=True)
        self.remote_head = nn.Conv2d(remote_width, 5 + num_classes, 1, rng=rng)
        self.grid = grid
        self.num_classes = num_classes
        self.image_size = image_size
        self.in_channels = in_channels
        self.stem_width = stem_width

    def stem_features(self, x: Tensor) -> Tensor:
        return self.stem(x)

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        features = self.stem(x)
        local = self.local_head(self.local_branch(features))
        remote = self.remote_head(self.remote_branch(features))
        return local, remote

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

    def _infer_chunk(self, chunk: np.ndarray, threshold: float,
                     score_floor: float) -> List[dict]:
        """Early-exit one micro-batch; only escalated rows hit the server."""
        features = self.stem(Tensor(chunk))
        local_raw = self.local_head(self.local_branch(features)).data
        local_dets = decode_predictions(local_raw, self.grid, self.num_classes,
                                        score_threshold=score_floor)
        confidences = np.array([_best_score(dets) for dets in local_dets])
        needs_remote = confidences < threshold
        remote_rows = np.flatnonzero(needs_remote)
        remote_dets = {}
        if remote_rows.size:
            remote_in = Tensor(F.take_rows(features.data, remote_rows))
            remote_raw = self.remote_head(self.remote_branch(remote_in)).data
            decoded = decode_predictions(remote_raw, self.grid, self.num_classes,
                                         score_threshold=score_floor)
            remote_dets = dict(zip(remote_rows.tolist(), decoded))
        results = []
        for i, dets in enumerate(local_dets):
            escalated = i in remote_dets
            results.append({
                "detections": remote_dets[i] if escalated else dets,
                "exit_index": 2 if escalated else 1,
                "confidence": float(confidences[i]),
                "shipped_bytes": self.feature_map_bytes() if escalated else 0,
            })
        return results

    def infer(self, x: Tensor, threshold: float, score_floor: float = 0.2,
              batch_size: Optional[int] = None) -> List[dict]:
        """Early-exit detection for a batch, in micro-batches of
        ``batch_size`` images (all at once if None).

        Returns one dict per image: ``detections`` (final list),
        ``exit_index`` (1 local / 2 server), ``confidence`` (best local
        score), ``shipped_bytes`` (0 if resolved locally, else the stem
        feature-map payload).
        """
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        results: List[dict] = []
        with observe_inference(type(self).__name__, int(data.shape[0])):
            with eval_mode(self), nn.no_grad():
                for chunk in iter_microbatches(data, batch_size):
                    results.extend(
                        self._infer_chunk(chunk, threshold, score_floor))
        return results


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


def _best_score(detections: Sequence[Detection]) -> float:
    return max((d.score for d in detections), default=0.0)


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
