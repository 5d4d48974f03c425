"""Tests for storage/ingest capacity planning."""

import pytest

from repro.core.capacity import (
    ANNOTATED_FRACTION,
    BYTES_PER_ANNOTATION,
    CapacityPlanner,
)
from repro.data import Camera, CameraRegistry, build_dotd_registry


def small_registry(fps=10, cameras=4):
    return CameraRegistry([
        Camera(f"c{i}", "X", "I-0", 0.0, 0.0, fps, 100, 100)
        for i in range(cameras)
    ])


class TestRawTier:
    def test_rates_from_registry(self):
        planner = CapacityPlanner(small_registry())
        # 4 cameras x 10 fps x 100*100*3 bytes
        assert planner.raw_bytes_per_second == 4 * 10 * 30_000
        assert planner.frames_per_second == 40

    def test_retention_formula(self):
        planner = CapacityPlanner(small_registry())
        one_minute = planner.raw_bytes_per_second * 60
        assert planner.raw_retention_seconds(one_minute) == pytest.approx(60)

    def test_empty_registry_infinite_retention(self):
        planner = CapacityPlanner(CameraRegistry([]))
        assert planner.raw_retention_seconds(1e9) == float("inf")

    def test_validates(self):
        planner = CapacityPlanner(small_registry())
        with pytest.raises(ValueError):
            planner.raw_retention_seconds(-1)
        with pytest.raises(ValueError):
            planner.annotated_storage_for_days(-1)


class TestAnnotatedTier:
    def test_annotation_rate(self):
        planner = CapacityPlanner(small_registry())
        assert planner.annotation_bytes_per_second == pytest.approx(
            40 * ANNOTATED_FRACTION * BYTES_PER_ANNOTATION)

    def test_compression_factor_is_large(self):
        planner = CapacityPlanner(small_registry())
        # Raw pixels vs sparse 512-byte annotations: orders of magnitude.
        assert planner.compression_factor > 1000

    def test_zero_annotation_rate_infinite_compression(self):
        # no cameras, no annotations: the ratio is unbounded, not 0 / 0
        planner = CapacityPlanner(CameraRegistry([]))
        assert planner.compression_factor == float("inf")


class TestPaperScaleReport:
    def test_dotd_sizing_story(self):
        planner = CapacityPlanner(build_dotd_registry(seed=0))
        report = planner.report()   # a 10 TB raw buffer, 365 days kept
        assert report["cameras"] > 200
        # ~3.8 GB/s raw: a 10 TB buffer holds well under a day of video —
        # the paper's reason raw data cannot be kept long-term.
        assert report["raw_buffer_hours"] < 24
        # ...while a year of annotations (a few TB) fits in a modest
        # store, versus ~120 PB/year of raw video: a ~36,000x reduction.
        assert report["annotated_gb_per_year"] < 5000
        assert report["compression_factor"] > 10_000
