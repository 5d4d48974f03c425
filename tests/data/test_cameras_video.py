"""Tests for the camera registry and the procedural video generators."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import (
    ActionClipGenerator,
    Camera,
    CameraRegistry,
    SceneGenerator,
    VehicleCatalog,
    build_dotd_registry,
)
from repro.data.video import ACTION_CLASSES


class TestCameraRegistry:
    def test_paper_scale(self):
        registry = build_dotd_registry(seed=0)
        # Paper: "more than 200 cameras" across 9 cities.
        assert len(registry) > 200
        assert len(registry.cities()) == 9

    def test_baton_rouge_densest(self):
        registry = build_dotd_registry(seed=0)
        counts = {city: len(registry.by_city(city))
                  for city in registry.cities()}
        assert max(counts, key=counts.get) == "Baton Rouge"

    def test_deterministic(self):
        a = build_dotd_registry(seed=3)
        b = build_dotd_registry(seed=3)
        assert [c.camera_id for c in a] == [c.camera_id for c in b]
        assert [c.lat for c in a] == [c.lat for c in b]

    def test_coordinates_ignore_hash_seed(self):
        # str hashes are salted per process: camera placement must not
        # follow PYTHONHASHSEED, or Fig. 2's GeoJSON moves between runs
        job = ("from repro.data import build_dotd_registry\n"
               "print([(c.camera_id, c.lat, c.lon)"
               " for c in build_dotd_registry(seed=0)])\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", job], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert len(outputs) == 1

    def test_get_and_missing(self):
        registry = build_dotd_registry(seed=0)
        camera = registry.all()[0]
        assert registry.get(camera.camera_id) == camera
        with pytest.raises(KeyError):
            registry.get("ghost")

    def test_duplicate_ids_rejected(self):
        camera = Camera("c1", "X", "I-0", 0, 0, 30, 640, 480)
        with pytest.raises(ValueError):
            CameraRegistry([camera, camera])

    def test_feed_rates(self):
        camera = Camera("c1", "X", "I-0", 0, 0, 30, 640, 480)
        assert camera.bytes_per_frame == 640 * 480 * 3
        assert camera.bytes_per_second == camera.bytes_per_frame * 30

    def test_coverage_summary(self):
        registry = build_dotd_registry(seed=0)
        rows = registry.coverage_summary()
        assert len(rows) == 9
        assert sum(r["cameras"] for r in rows) == len(registry)
        assert all(r["mbytes_per_second"] > 0 for r in rows)

    def test_total_ingest_positive(self):
        assert build_dotd_registry(seed=0).total_ingest_bytes_per_second() > 0


class TestVehicleCatalog:
    def test_paper_scale_catalog(self):
        catalog = VehicleCatalog(400)
        labels = catalog.labels()
        assert len(labels) == 400
        assert len(set(labels)) == 400  # all distinct

    def test_label_format(self):
        label = VehicleCatalog(10).label(0)
        assert any(make in label for make in ["Toyota", "Ford"])

    def test_validates(self):
        with pytest.raises(ValueError):
            VehicleCatalog(0)
        with pytest.raises(ValueError):
            VehicleCatalog(10_000)
        with pytest.raises(ValueError):
            VehicleCatalog(10).label(10)


class TestSceneGenerator:
    def test_scene_shape_and_range(self):
        generator = SceneGenerator(image_size=32, num_classes=5, seed=0)
        frame, boxes = generator.generate_scene(num_vehicles=2)
        assert frame.shape == (1, 32, 32)
        assert frame.min() >= 0.0 and frame.max() <= 1.0
        assert len(boxes) == 2

    def test_boxes_within_frame(self):
        generator = SceneGenerator(image_size=32, num_classes=5, seed=1)
        _, boxes = generator.generate_scene(num_vehicles=4)
        for box in boxes:
            assert 0 <= box.cx - box.w / 2 and box.cx + box.w / 2 <= 1.0001
            assert 0 <= box.cy - box.h / 2 and box.cy + box.h / 2 <= 1.0001

    def test_signatures_distinguish_classes(self):
        generator = SceneGenerator(image_size=32, num_classes=5, seed=0)
        a = generator.render_vehicle(0, 8, 8)
        b = generator.render_vehicle(1, 8, 8)
        assert not np.allclose(a, b)

    def test_signature_stable_across_sizes(self):
        generator = SceneGenerator(image_size=32, num_classes=5, seed=0)
        small = generator.render_vehicle(2, 4, 4)
        large = generator.render_vehicle(2, 8, 8)
        # the large render downsampled at corners matches the small pattern
        assert large[0, 0] == small[0, 0]

    def test_classification_dataset_balanced(self):
        generator = SceneGenerator(image_size=16, num_classes=4, seed=0)
        images, labels = generator.classification_dataset(40)
        assert images.shape == (40, 1, 16, 16)
        counts = np.bincount(labels)
        assert (counts == 10).all()

    def test_batch_generation(self):
        generator = SceneGenerator(image_size=16, num_classes=3, seed=0)
        frames, truth = generator.generate_batch(5, vehicles_per_scene=1)
        assert frames.shape == (5, 1, 16, 16)
        assert all(len(b) == 1 for b in truth)

    def test_validates(self):
        with pytest.raises(ValueError):
            SceneGenerator(image_size=4)
        with pytest.raises(ValueError):
            SceneGenerator(num_classes=0)
        with pytest.raises(ValueError):
            SceneGenerator(num_classes=3).render_vehicle(5, 4, 4)


class TestActionClipGenerator:
    def test_clip_shape(self):
        generator = ActionClipGenerator(image_size=16, frames=8, seed=0)
        clip = generator.generate_clip(0)
        assert clip.shape == (8, 1, 16, 16)
        assert clip.min() >= 0 and clip.max() <= 1

    def test_all_classes_generate(self):
        generator = ActionClipGenerator(seed=0)
        for class_id in range(len(ACTION_CLASSES)):
            assert generator.generate_clip(class_id).shape[0] == 8

    def test_motion_distinguishes_running_from_loitering(self):
        generator = ActionClipGenerator(image_size=16, frames=8, seed=0)
        running = generator.generate_clip(ACTION_CLASSES.index("running"))
        loitering = generator.generate_clip(ACTION_CLASSES.index("loitering"))

        def travel(clip):
            # horizontal travel of the intensity centroid
            xs = np.arange(clip.shape[-1])
            centroids = [(frame[0] * xs).sum() / frame[0].sum()
                         for frame in clip]
            return abs(centroids[-1] - centroids[0])

        assert travel(running) > 3 * travel(loitering)

    def test_dataset_interleaves_classes(self):
        generator = ActionClipGenerator(image_size=8, frames=4, seed=0)
        clips, labels = generator.dataset(clips_per_class=2)
        assert clips.shape[0] == 2 * len(ACTION_CLASSES)
        assert labels[:len(ACTION_CLASSES)].tolist() == \
            list(range(len(ACTION_CLASSES)))

    def test_validates(self):
        with pytest.raises(ValueError):
            ActionClipGenerator(image_size=2)
        with pytest.raises(ValueError):
            ActionClipGenerator(frames=1)
        with pytest.raises(ValueError):
            ActionClipGenerator().generate_clip(99)
        with pytest.raises(ValueError):
            ActionClipGenerator().dataset(0)
