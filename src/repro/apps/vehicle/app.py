"""The vehicle detection & classification application (Fig. 5 / Fig. 6).

Pulls the pieces together: the scene generator stands in for DOTD camera
frames; an :class:`~repro.nn.models.yolo.EarlyExitDetector` plays the Tiny
YOLO (local) + YOLOv2 (server) pair; the fog layer prices the deployment;
results are indexed into a document store for the web layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence

from repro import nn
from repro.cluster.machines import NetworkTopology
from repro.data.video import SceneGenerator, VehicleCatalog
from repro.fog.pipeline import FogPipeline
from repro.fog.policies import ExitPolicy, run_policy_batched
from repro.fog.split import model_split_from_early_exit, place_bottom_up
from repro.nn.flops import estimate_flops
from repro.nn.models.yolo import (
    EarlyExitDetector,
    YoloLoss,
    detection_confidence,
    evaluate_detections,
)
from repro.nn.tensor import Tensor
from repro.runtime import get_runtime

#: detection grid cells per side
GRID = 4


@dataclass
class StreamReport:
    """Outcome of processing a camera stream through the early-exit model."""

    frames: int
    local_exits: int
    server_exits: int
    bytes_shipped: int
    detection_metrics: Dict[str, float]
    annotations: List[Dict] = field(default_factory=list)

    @property
    def local_fraction(self) -> float:
        return self.local_exits / self.frames if self.frames else 0.0


class VehicleDetectionApp:
    """End-to-end vehicle pipeline: data -> train -> deploy -> stream.

    Parameters are laptop-scale by default; the paper-scale configuration
    (400 classes, 32k images) is exercised by benchmark E10 through
    :meth:`repro.data.video.SceneGenerator.classification_dataset`.
    """

    def __init__(self, num_classes: int = 6, image_size: int = 16,
                 seed: int = 0):
        self.runtime = get_runtime()
        self.num_classes = num_classes
        self.image_size = image_size
        self.grid = GRID
        self.seed = seed
        self.catalog = VehicleCatalog(max(num_classes, 1))
        self.scenes = SceneGenerator(image_size=image_size,
                                     num_classes=num_classes, seed=seed)
        rng = self.runtime.rng.np_child("apps.vehicle.model", seed)
        self.model = EarlyExitDetector(1, image_size, num_classes,
                                       grid=GRID, rng=rng)
        self.loss_fn = YoloLoss(grid=GRID, num_classes=num_classes)

    # -- data ----------------------------------------------------------------
    def build_detection_dataset(self, num_scenes: int):
        """One vehicle per scene."""
        return self.scenes.generate_batch(num_scenes, 1)

    # -- training -------------------------------------------------------------
    def train(self, num_scenes: int = 48, epochs: int = 25,
              lr: float = 0.01, batch_size: int = 16) -> List[float]:
        """Joint training of both exits; returns per-epoch losses."""
        frames, truth = self.build_detection_dataset(num_scenes)
        return nn.fit(
            self.model,
            lambda rows: self.model.joint_loss(
                Tensor(frames[rows]), [truth[i] for i in rows], self.loss_fn),
            num_scenes, epochs, lr, batch_size,
            self.runtime.rng.np_child("apps.vehicle.train", self.seed))

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, num_scenes: int = 24, threshold: float = 0.5,
                 score_floor: float = 0.2) -> StreamReport:
        """Run the early-exit pipeline over fresh scenes and score it."""
        frames, truth = self.build_detection_dataset(num_scenes)
        policy = ExitPolicy(threshold, partial(detection_confidence,
                                               score_floor=score_floor))
        decisions = run_policy_batched(self.model, frames, policy)
        predicted = self.model.detections(decisions, score_floor)
        metrics = evaluate_detections(predicted, truth)
        annotations = [{
            "frame": index,
            "label": self.catalog.label(det.class_id)
            if det.class_id < self.catalog.num_classes else str(det.class_id),
            "score": det.score,
            "box": [det.cx, det.cy, det.w, det.h],
            "exit": int(decisions.exit_index[index]),
        } for index, dets in enumerate(predicted) for det in dets]
        escalated = int(decisions.remote_rows.size)
        return StreamReport(
            frames=num_scenes,
            local_exits=num_scenes - escalated,
            server_exits=escalated,
            bytes_shipped=escalated * self.model.feature_map_bytes(),
            detection_metrics=metrics,
            annotations=annotations)

    def threshold_sweep(self, thresholds: Sequence[float],
                        num_scenes: int = 24) -> List[Dict]:
        """Accuracy/offload rows per threshold (the Fig. 5 tradeoff)."""
        rows = []
        for threshold in thresholds:
            report = self.evaluate(num_scenes=num_scenes, threshold=threshold)
            rows.append({
                "threshold": threshold,
                "f1": report.detection_metrics["f1"],
                "local_fraction": report.local_fraction,
                "bytes_shipped": report.bytes_shipped,
            })
        return rows

    # -- deployment -------------------------------------------------------------
    def fog_pipeline(self, topology: NetworkTopology,
                     edge_machine: str) -> FogPipeline:
        """Place the split model on the fog hierarchy (Fig. 3 x Fig. 5)."""
        shape = (1, self.image_size, self.image_size)
        local_branch, local_head = self.model.local_head
        stem_flops, stem_shape = estimate_flops(self.model.local_stage, shape)
        local_flops, local_shape = estimate_flops(local_branch, stem_shape)
        local_head_flops, _ = estimate_flops(local_head, local_shape)
        remote_flops, remote_shape = estimate_flops(
            self.model.remote_stage, stem_shape)
        remote_head_flops, _ = estimate_flops(
            self.model.remote_head, remote_shape)
        stages = model_split_from_early_exit(
            local_flops=stem_flops + local_flops,
            remote_flops=remote_flops + remote_head_flops,
            feature_bytes=self.model.feature_map_bytes(),
            input_bytes=self.model.raw_frame_bytes(),
            local_exit_flops=local_head_flops)
        return FogPipeline(place_bottom_up(topology, stages, edge_machine))

    def index_annotations(self, collection, report: StreamReport) -> int:
        """Write annotations into a document store (the Fig. 4 sink)."""
        return len(collection.insert_many(report.annotations))
