"""Tests for AMBER-Alert vehicle search over indexed annotations."""

import pytest

from repro.apps.vehicle import AmberAlertSearch
from repro.nosql import Collection


def searchable(min_score=0.3):
    collection = Collection("sightings")
    search = AmberAlertSearch(collection, min_score=min_score)
    rows = [
        ("cam-a", 10.0, "2014 Ford Sedan", 0.9),
        ("cam-b", 12.0, "2014 Ford Sedan", 0.8),
        ("cam-a", 15.0, "2014 Ford Sedan", 0.7),
        ("cam-c", 11.0, "2013 Toyota SUV", 0.9),
        ("cam-a", 13.0, "2014 Ford Sedan", 0.1),  # below min_score
    ]
    for camera, time, label, score in rows:
        search.index_sighting(camera, time, label, score)
    return search


class TestSearch:
    def test_matches_description_case_insensitive(self):
        track = searchable().search("ford sedan")
        assert len(track.sightings) == 3
        assert all("Ford" in s.label for s in track.sightings)

    def test_sightings_time_ordered(self):
        track = searchable().search("Ford")
        times = [s.time for s in track.sightings]
        assert times == sorted(times)
        assert track.first_seen == 10.0
        assert track.last_seen == 15.0

    def test_low_confidence_filtered(self):
        track = searchable().search("Ford")
        assert all(s.score >= 0.3 for s in track.sightings)

    def test_time_range_filter(self):
        track = searchable().search("Ford", time_range=(11.0, 14.0))
        assert [s.time for s in track.sightings] == [12.0]

    def test_empty_time_range_rejected(self):
        with pytest.raises(ValueError):
            searchable().search("Ford", time_range=(14.0, 11.0))

    def test_no_match_returns_empty_track(self):
        track = searchable().search("Dodge Pickup")
        assert track.sightings == []
        assert track.first_seen is None

    def test_cameras_deduplicated_in_order(self):
        track = searchable().search("Ford")
        assert track.cameras == ["cam-a", "cam-b"]

    def test_regex_metacharacters_safe(self):
        search = searchable()
        search.index_sighting("cam-z", 1.0, "Weird (test) label", 0.9)
        track = search.search("(test)")
        assert len(track.sightings) == 1

    def test_validates_min_score(self):
        with pytest.raises(ValueError):
            AmberAlertSearch(Collection("c"), min_score=2.0)


class TestStakeout:
    def test_cameras_ranked_by_sightings(self):
        ranked = searchable().cameras_to_stake_out("Ford")
        assert ranked[0] == ("cam-a", 2)
        assert ranked[1] == ("cam-b", 1)

    def test_top_limits_results(self):
        search = searchable()
        for camera in ("cam-d", "cam-e", "cam-f"):
            search.index_sighting(camera, 20.0, "2014 Ford Sedan", 0.9)
        # five cameras saw the car; the three with most sightings are kept
        assert search.cameras_to_stake_out("Ford") == [
            ("cam-a", 2), ("cam-b", 1), ("cam-d", 1)]


class TestPipelineIntegration:
    def test_detection_annotations_searchable(self):
        # End-to-end: a trained detector's indexed annotations answer an
        # AMBER query with no schema translation.
        from repro.apps.vehicle import VehicleDetectionApp
        app = VehicleDetectionApp(num_classes=3, image_size=16, seed=0)
        app.train(num_scenes=24, epochs=12)
        report = app.evaluate(num_scenes=12, threshold=0.0)
        collection = Collection("annotations")
        search = AmberAlertSearch(collection, min_score=0.0)
        for annotation in report.annotations:
            search.index_sighting(
                camera_id="br-007",
                time=float(annotation["frame"]),
                label=annotation["label"],
                score=annotation["score"])
        if report.annotations:
            some_label = report.annotations[0]["label"]
            make = some_label.split()[1]  # e.g. "Ford"
            track = search.search(make)
            assert track.sightings
            assert track.cameras == ["br-007"]
