"""The vehicle detection & classification application (Fig. 5 / Fig. 6).

Pulls the pieces together: the scene generator stands in for DOTD camera
frames; an :class:`~repro.nn.models.yolo.EarlyExitDetector` plays the Tiny
YOLO (local) + YOLOv2 (server) pair; the fog layer prices the deployment;
results are indexed into a document store for the web layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

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
    :meth:`build_classification_dataset`.
    """

    def __init__(self, num_classes: int = 6, image_size: int = 16,
                 grid: int = 4, seed: int = 0, runtime=None):
        self.runtime = runtime or get_runtime()
        self.num_classes = num_classes
        self.image_size = image_size
        self.grid = grid
        self.seed = seed
        self.catalog = VehicleCatalog(max(num_classes, 1))
        self.scenes = SceneGenerator(image_size=image_size,
                                     num_classes=num_classes, seed=seed)
        rng = self.runtime.rng.np_child("apps.vehicle.model", seed)
        self.model = EarlyExitDetector(1, image_size, num_classes,
                                       grid=grid, rng=rng)
        self.loss_fn = YoloLoss(grid=grid, num_classes=num_classes)

    # -- data ----------------------------------------------------------------
    def build_detection_dataset(self, num_scenes: int,
                                vehicles_per_scene: int = 1):
        return self.scenes.generate_batch(num_scenes, vehicles_per_scene)

    def build_classification_dataset(self, num_images: int):
        """Single-vehicle crops + labels (the Sec. IV-A-1 dataset shape)."""
        return self.scenes.classification_dataset(num_images)

    # -- training -------------------------------------------------------------
    def train(self, num_scenes: int = 48, epochs: int = 25,
              lr: float = 0.01, batch_size: int = 16) -> List[float]:
        """Joint training of both exits; returns per-epoch losses."""
        frames, truth = self.build_detection_dataset(num_scenes)
        optimizer = nn.Adam(self.model.parameters(), lr=lr)
        losses = []
        rng = self.runtime.rng.np_child("apps.vehicle.train", self.seed)
        for _ in range(epochs):
            order = rng.permutation(num_scenes)
            epoch_losses = []
            for start in range(0, num_scenes, batch_size):
                batch = order[start:start + batch_size]
                optimizer.zero_grad()
                loss = self.model.joint_loss(
                    Tensor(frames[batch]),
                    [truth[i] for i in batch], self.loss_fn)
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
            self.runtime.registry.histogram(
                "app.vehicle.epoch_loss", "per-epoch mean training loss"
            ).observe(losses[-1])
        return losses

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, num_scenes: int = 24, threshold: float = 0.5,
                 score_floor: float = 0.2,
                 batch_size: Optional[int] = None) -> StreamReport:
        """Run the early-exit pipeline over fresh scenes and score it.

        ``batch_size`` feeds frames to the detector in micro-batches (all
        at once if None) — the fog-device serving pattern.
        """
        frames, truth = self.build_detection_dataset(num_scenes)
        policy = ExitPolicy(threshold, partial(detection_confidence,
                                               score_floor=score_floor))
        decisions = run_policy_batched(self.model, frames, policy,
                                       batch_size=batch_size)
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
        report = StreamReport(
            frames=num_scenes,
            local_exits=num_scenes - escalated,
            server_exits=escalated,
            bytes_shipped=escalated * self.model.feature_map_bytes(),
            detection_metrics=metrics,
            annotations=annotations)
        registry = self.runtime.registry
        registry.counter("app.vehicle.frames").inc(report.frames)
        registry.counter("app.vehicle.exits").inc(report.local_exits,
                                                  tier="local")
        registry.counter("app.vehicle.exits").inc(report.server_exits,
                                                  tier="server")
        registry.counter("app.vehicle.bytes_shipped").inc(report.bytes_shipped)
        return report

    def threshold_sweep(self, thresholds: Sequence[float],
                        num_scenes: int = 24,
                        batch_size: Optional[int] = None) -> List[Dict]:
        """Accuracy/offload rows per threshold (the Fig. 5 tradeoff)."""
        rows = []
        for threshold in thresholds:
            report = self.evaluate(num_scenes=num_scenes, threshold=threshold,
                                   batch_size=batch_size)
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
