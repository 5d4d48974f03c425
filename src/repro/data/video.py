"""Procedural traffic scenes and action clips (camera-feed substitute).

Real DOTD video is unavailable, so these generators render controllable
synthetic frames that exercise the identical model/pipeline code paths:

- :class:`VehicleCatalog` — the 400-class make/model/year catalog of
  Sec. IV-A-1 (Stanford cars + crawled images -> 32,000 images, 400
  classes).
- :class:`SceneGenerator` — grayscale frames containing rendered vehicles
  with per-class visual signatures and exact ground-truth boxes, plus
  single-vehicle classification datasets.
- :class:`ActionClipGenerator` — short frame sequences whose *temporal*
  pattern encodes an action class (the Fig. 7 recognition target);
  per-frame appearance alone is deliberately ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.core import get_runtime

from repro.nn.models.yolo import GroundTruthBox

_MAKES = ["Toyota", "Ford", "Chevrolet", "Honda", "Nissan", "Dodge",
          "Jeep", "GMC", "Hyundai", "Kia"]
_MODELS = ["Sedan", "Coupe", "SUV", "Pickup", "Van", "Hatchback",
           "Wagon", "Crossover"]
_YEARS = [2012, 2013, 2014, 2015, 2016]

ACTION_CLASSES = ("walking", "running", "loitering", "fighting", "breaking_in")


class VehicleCatalog:
    """Deterministic make/model/year class catalog.

    ``VehicleCatalog(400)`` enumerates 400 distinct (make, model, year)
    combinations — the label space of the paper's vehicle classifier.
    """

    def __init__(self, num_classes: int = 400):
        capacity = len(_MAKES) * len(_MODELS) * len(_YEARS)
        if not 1 <= num_classes <= capacity:
            raise ValueError(
                f"num_classes must be in [1, {capacity}]: {num_classes}")
        self.num_classes = num_classes

    def label(self, class_id: int) -> str:
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class_id out of range: {class_id}")
        make = _MAKES[class_id % len(_MAKES)]
        model = _MODELS[(class_id // len(_MAKES)) % len(_MODELS)]
        year = _YEARS[(class_id // (len(_MAKES) * len(_MODELS))) % len(_YEARS)]
        return f"{year} {make} {model}"

    def labels(self) -> List[str]:
        return [self.label(i) for i in range(self.num_classes)]


#: standard deviation of a scene's background and pixel noise
SCENE_NOISE = 0.05


class SceneGenerator:
    """Renders traffic frames with ground truth.

    Frames are single-channel (N, 1, H, W) arrays in [0, 1].  Each vehicle
    class has a fixed 4x4 micro-pattern (its "visual signature") scaled to
    the vehicle's box, so a classifier genuinely has something to learn.
    """

    def __init__(self, image_size: int = 32, num_classes: int = 10,
                 seed: int = 0):
        if image_size < 8:
            raise ValueError(f"image_size must be >= 8: {image_size}")
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1: {num_classes}")
        self.image_size = image_size
        self.num_classes = num_classes
        self._rng = get_runtime().rng.np_child("data.video.scenes", seed)
        # Per-class signature: a fixed 4x4 pattern in [0.3, 1.0].
        signature_rng = get_runtime().rng.np_child("data.video.signatures", seed)
        self._signatures = signature_rng.uniform(
            0.3, 1.0, size=(num_classes, 4, 4))

    def render_vehicle(self, class_id: int, height: int, width: int
                       ) -> np.ndarray:
        """The class's signature pattern resized to (height, width)."""
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class_id out of range: {class_id}")
        signature = self._signatures[class_id]
        rows = np.linspace(0, 3.999, height).astype(int)
        cols = np.linspace(0, 3.999, width).astype(int)
        return signature[np.ix_(rows, cols)]

    def generate_scene(self, num_vehicles: int = 2
                       ) -> Tuple[np.ndarray, List[GroundTruthBox]]:
        """One frame plus its ground-truth boxes."""
        size = self.image_size
        min_size = max(6, size // 5)
        max_size = max(min_size + 1, size // 2)
        frame = self._rng.normal(0.1, SCENE_NOISE, (1, size, size))
        boxes: List[GroundTruthBox] = []
        for _ in range(num_vehicles):
            class_id = int(self._rng.integers(self.num_classes))
            h = int(self._rng.integers(min_size, max_size + 1))
            w = int(self._rng.integers(min_size, max_size + 1))
            top = int(self._rng.integers(0, size - h + 1))
            left = int(self._rng.integers(0, size - w + 1))
            frame[0, top:top + h, left:left + w] = self.render_vehicle(
                class_id, h, w)
            boxes.append(GroundTruthBox(
                cx=(left + w / 2) / size, cy=(top + h / 2) / size,
                w=w / size, h=h / size, class_id=class_id))
        frame += self._rng.normal(0, SCENE_NOISE, frame.shape)
        return np.clip(frame, 0.0, 1.0), boxes

    def generate_batch(self, num_scenes: int, vehicles_per_scene: int = 2
                       ) -> Tuple[np.ndarray, List[List[GroundTruthBox]]]:
        frames = np.zeros((num_scenes, 1, self.image_size, self.image_size))
        truth: List[List[GroundTruthBox]] = []
        for index in range(num_scenes):
            frame, boxes = self.generate_scene(vehicles_per_scene)
            frames[index] = frame
            truth.append(boxes)
        return frames, truth

    def classification_dataset(self, num_images: int,
                               patch_size: Optional[int] = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Single-vehicle crops with labels (the Sec. IV-A-1 dataset shape).

        Classes cycle round-robin so every class is represented when
        ``num_images >= num_classes``.
        """
        patch = patch_size or self.image_size
        images = np.zeros((num_images, 1, patch, patch))
        labels = np.zeros(num_images, dtype=int)
        for index in range(num_images):
            class_id = index % self.num_classes
            labels[index] = class_id
            images[index, 0] = self.render_vehicle(class_id, patch, patch)
            images[index, 0] += self._rng.normal(0, SCENE_NOISE,
                                                 (patch, patch))
        return np.clip(images, 0.0, 1.0), labels


class ActionClipGenerator:
    """Short clips whose motion pattern determines the action label.

    Classes (subset of the paper's "suspicious behaviours"):

    - ``walking``    — one blob drifting slowly left-to-right;
    - ``running``    — one blob crossing fast;
    - ``loitering``  — one blob jittering in place;
    - ``fighting``   — two blobs oscillating against each other;
    - ``breaking_in``— a blob approaching and stopping at a fixed doorway.

    Every class uses the same blob appearance, so single-frame models fall
    well short of temporal (LSTM) models — the property Fig. 7's
    architecture exploits and the tests assert.
    """

    def __init__(self, image_size: int = 16, frames: int = 8, seed: int = 0):
        if image_size < 8:
            raise ValueError(f"image_size must be >= 8: {image_size}")
        if frames < 2:
            raise ValueError(f"frames must be >= 2: {frames}")
        self.image_size = image_size
        self.frames = frames
        self.num_classes = len(ACTION_CLASSES)
        self._rng = get_runtime().rng.np_child("data.video.clips", seed)

    def _blob(self, frame: np.ndarray, x: float, y: float,
              radius: float = 1.8) -> None:
        size = self.image_size
        ys, xs = np.mgrid[0:size, 0:size]
        mask = np.exp(-(((xs - x) ** 2 + (ys - y) ** 2) / (2 * radius ** 2)))
        frame += 0.9 * mask

    def generate_clip(self, class_id: int) -> np.ndarray:
        """One (T, 1, H, W) clip for the given action class."""
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class_id out of range: {class_id}")
        action = ACTION_CLASSES[class_id]
        size = self.image_size
        t_axis = np.arange(self.frames)
        clip = np.zeros((self.frames, 1, size, size))
        y0 = size / 2 + self._rng.normal(0, 1)
        phase = self._rng.uniform(0, 2 * np.pi)
        for t in range(self.frames):
            frame = np.zeros((size, size))
            progress = t / (self.frames - 1)
            if action == "walking":
                self._blob(frame, 2 + progress * (size - 4) * 0.4, y0)
            elif action == "running":
                self._blob(frame, 2 + progress * (size - 4), y0)
            elif action == "loitering":
                self._blob(frame,
                           size / 2 + 0.7 * np.sin(phase + t),
                           y0 + 0.7 * np.cos(phase + t))
            elif action == "fighting":
                offset = 2.0 * np.sin(phase + 2.5 * t)
                self._blob(frame, size / 2 - 2 + offset, y0)
                self._blob(frame, size / 2 + 2 - offset, y0)
            elif action == "breaking_in":
                # fixed "doorway" at the right edge; blob approaches, stops
                frame[int(size * 0.3):int(size * 0.7), size - 2:] = 0.5
                x = 2 + min(progress * 2.0, 1.0) * (size - 5)
                self._blob(frame, x, y0)
            frame += self._rng.normal(0, 0.05, (size, size))
            clip[t, 0] = np.clip(frame, 0.0, 1.0)
        return clip

    def dataset(self, clips_per_class: int
                ) -> Tuple[np.ndarray, np.ndarray]:
        """(N, T, 1, H, W) clips and integer labels, classes interleaved."""
        if clips_per_class < 1:
            raise ValueError(f"clips_per_class must be >= 1: {clips_per_class}")
        total = clips_per_class * self.num_classes
        clips = np.zeros((total, self.frames, 1, self.image_size,
                          self.image_size))
        labels = np.zeros(total, dtype=int)
        for index in range(total):
            class_id = index % self.num_classes
            clips[index] = self.generate_clip(class_id)
            labels[index] = class_id
        return clips, labels
