"""Tests for the visualization exporters."""

import json

import pytest

from repro.data import build_dotd_registry
from repro.viz import (
    bar_chart_svg,
    cameras_to_geojson,
    heatmap_svg,
    points_to_geojson,
    timeseries_json,
)


class TestGeoJson:
    def test_points_roundtrip(self):
        payload = points_to_geojson([
            {"lon": -91.1, "lat": 30.4, "kind": "crime"},
            {"lon": -90.0, "lat": 29.9, "kind": "traffic"},
        ])
        parsed = json.loads(payload)
        assert parsed["type"] == "FeatureCollection"
        assert len(parsed["features"]) == 2
        first = parsed["features"][0]
        assert first["geometry"]["coordinates"] == [-91.1, 30.4]
        assert first["properties"]["kind"] == "crime"

    def test_missing_coordinates_rejected(self):
        with pytest.raises(KeyError):
            points_to_geojson([{"lat": 30.0}])

    def test_property_selection(self):
        # every field but the coordinates becomes a property
        payload = points_to_geojson([{"lon": 0, "lat": 0, "a": 1, "b": 2}])
        props = json.loads(payload)["features"][0]["properties"]
        assert props == {"a": 1, "b": 2}

    def test_camera_registry_export(self):
        registry = build_dotd_registry(seed=0)
        parsed = json.loads(cameras_to_geojson(registry))
        assert len(parsed["features"]) == len(registry)
        assert parsed["features"][0]["properties"]["city"]


class TestTimeseries:
    def test_roundtrip(self):
        payload = timeseries_json({"crimes": [1, 2, 3], "calls": [4, 5, 6]})
        parsed = json.loads(payload)
        assert parsed["x"] == [0, 1, 2]
        assert parsed["series"]["crimes"] == [1.0, 2.0, 3.0]

    def test_validates(self):
        with pytest.raises(ValueError):
            timeseries_json({})
        with pytest.raises(ValueError):
            timeseries_json({"a": [1], "b": [1, 2]})


class TestSvg:
    def test_bar_chart_contains_bars_and_labels(self):
        svg = bar_chart_svg({"d1": 5.0, "d2": 10.0}, title="crimes")
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 2
        assert "crimes" in svg
        assert "d1" in svg

    def test_bar_chart_validates(self):
        with pytest.raises(ValueError):
            bar_chart_svg({})

    def test_heatmap_cell_count(self):
        svg = heatmap_svg([[0.0, 1.0], [0.5, 0.2]])
        assert svg.count("<rect") == 4

    def test_heatmap_scales_colors(self):
        svg = heatmap_svg([[0.0, 1.0]])
        assert "rgb(255,255,255)" in svg  # zero cell is white
        assert "rgb(255,0,0)" in svg      # peak cell is red

    def test_heatmap_validates(self):
        with pytest.raises(ValueError):
            heatmap_svg([])
        with pytest.raises(ValueError):
            heatmap_svg([[1.0], [1.0, 2.0]])

    def test_heatmap_all_zero_safe(self):
        svg = heatmap_svg([[0.0, 0.0]])
        assert svg.count("<rect") == 2
