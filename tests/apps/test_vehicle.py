"""Tests for the vehicle detection & classification app (Fig. 5/6)."""

import numpy as np
import pytest

from repro.apps.vehicle import VehicleDetectionApp
from repro.cluster import NetworkTopology, Tier
from repro.nosql import Collection
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def trained_app():
    app = VehicleDetectionApp(num_classes=3, image_size=16, seed=0)
    app.train(num_scenes=48, epochs=30, lr=0.01)
    return app


class TestTraining:
    def test_losses_decrease(self):
        fresh = VehicleDetectionApp(num_classes=3, image_size=16, seed=0)
        losses = fresh.train(num_scenes=16, epochs=5)
        assert losses[-1] < losses[0]

    def test_server_exit_detection_quality(self, trained_app):
        # All-server inference (threshold > 1): the full model's quality.
        report = trained_app.evaluate(num_scenes=16, threshold=1.01)
        assert report.detection_metrics["recall"] > 0.5
        assert report.detection_metrics["f1"] > 0.4

    def test_local_exit_weaker_than_server(self, trained_app):
        # The Fig. 5 premise: the tiny local model trails the full model.
        local = trained_app.evaluate(num_scenes=16, threshold=0.0)
        server = trained_app.evaluate(num_scenes=16, threshold=1.01)
        assert (local.detection_metrics["f1"]
                <= server.detection_metrics["f1"] + 0.05)


class TestRuntimeInjection:
    def test_weights_follow_the_injected_runtime(self):
        def weights(seed):
            app = VehicleDetectionApp(num_classes=3, image_size=16,
                                      runtime=Runtime(seed=seed))
            return np.concatenate(
                [p.data.ravel() for p in app.model.parameters()])

        assert np.array_equal(weights(1), weights(1))
        assert not np.array_equal(weights(1), weights(2))

    def test_training_order_follows_the_injected_runtime(self):
        def losses(seed):
            app = VehicleDetectionApp(num_classes=3, image_size=16,
                                      runtime=Runtime(seed=seed))
            # Same weights on both sides: only the SGD shuffle may differ.
            app.model.load_state_dict(reference.model.state_dict())
            return app.train(num_scenes=12, epochs=2, batch_size=4)

        reference = VehicleDetectionApp(num_classes=3, image_size=16)
        assert losses(1) == losses(1)
        assert losses(1) != losses(2)


class TestEarlyExitBehaviour:
    def test_threshold_zero_everything_local(self, trained_app):
        report = trained_app.evaluate(num_scenes=8, threshold=0.0)
        assert report.local_fraction == 1.0
        assert report.bytes_shipped == 0

    def test_threshold_above_one_everything_server(self, trained_app):
        report = trained_app.evaluate(num_scenes=8, threshold=1.01)
        assert report.local_fraction == 0.0
        assert report.bytes_shipped > 0

    def test_sweep_monotone_offload(self, trained_app):
        rows = trained_app.threshold_sweep([0.0, 0.3, 0.6, 1.01],
                                           num_scenes=12)
        fractions = [r["local_fraction"] for r in rows]
        assert fractions == sorted(fractions, reverse=True)
        shipped = [r["bytes_shipped"] for r in rows]
        assert shipped == sorted(shipped)

    def test_annotations_carry_labels(self, trained_app):
        report = trained_app.evaluate(num_scenes=8, threshold=0.5)
        if report.annotations:
            annotation = report.annotations[0]
            assert {"frame", "label", "score", "box", "exit"} <= set(annotation)


class TestDatasets:
    def test_classification_dataset_shape(self):
        app = VehicleDetectionApp(num_classes=4, image_size=16, seed=0)
        images, labels = app.build_classification_dataset(20)
        assert images.shape == (20, 1, 16, 16)
        assert set(labels) == {0, 1, 2, 3}

    def test_catalog_matches_class_count(self):
        app = VehicleDetectionApp(num_classes=5, image_size=16, seed=0)
        assert app.catalog.num_classes == 5


class TestDeployment:
    def test_fog_pipeline_places_three_stages(self, trained_app):
        topology = NetworkTopology.build_fog_hierarchy()
        edge = topology.machines(Tier.EDGE)[0].name
        pipeline = trained_app.fog_pipeline(topology, edge)
        assert len(pipeline.stages) == 3
        tiers = [pipeline.placement.topology.machine(m).tier
                 for m in pipeline.placement.machines]
        assert tiers == [Tier.EDGE, Tier.FOG, Tier.SERVER]

    def test_fog_pipeline_costs_reflect_split(self, trained_app):
        topology = NetworkTopology.build_fog_hierarchy()
        edge = topology.machines(Tier.EDGE)[0].name
        pipeline = trained_app.fog_pipeline(topology, edge)
        local = pipeline.item_cost(1)
        server = pipeline.item_cost(2)
        assert server.total_s > local.total_s

    def test_index_annotations(self, trained_app):
        collection = Collection("vehicle_annotations")
        report = trained_app.evaluate(num_scenes=8, threshold=0.0)
        written = trained_app.index_annotations(collection, report)
        assert written == len(report.annotations)
        assert collection.count({}) == written

    def test_one_bulk_write_stores_what_the_per_document_loop_did(
            self, trained_app):
        report = trained_app.evaluate(num_scenes=8, threshold=0.5)
        reference = Collection("reference")
        for annotation in report.annotations:
            reference.insert(dict(annotation))
        collection = Collection("vehicle_annotations")
        written = trained_app.index_annotations(collection, report)
        assert written == reference.count({}) > 0
        assert collection.find({}) == reference.find({})
        # The store holds copies: the report is not aliased by the sink.
        assert all("_id" not in a for a in report.annotations)
