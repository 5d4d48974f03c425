"""Tests for the assembled cyberinfrastructure (Figs. 1 and 4)."""

import json

import numpy as np
import pytest

from repro import nn
from repro.core import CyberInfrastructure, InfraConfig
from repro.data import OpenCityData, TweetGenerator, WazeGenerator
from repro.fog import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.nosql import Collection, MongoError


def small_infra():
    return CyberInfrastructure(InfraConfig(
        edges_per_fog=2, fogs_per_server=2, servers=1,
        datanodes=3, dfs_replication=2))


class TestConfig:
    def test_defaults_valid(self):
        CyberInfrastructure()

    def test_rejects_impossible_replication(self):
        with pytest.raises(ValueError):
            InfraConfig(datanodes=1, dfs_replication=3)


class TestLayers:
    def test_hardware_layer_counts(self):
        infra = small_infra()
        layers = infra.describe_layers()
        hardware = layers["hardware"]
        assert hardware["edge_devices"] == 4
        assert hardware["fog_nodes"] == 2
        assert hardware["analysis_servers"] == 1
        assert hardware["cloud_nodes"] == 1
        assert hardware["yarn_vcores"] == 8

    def test_software_layer_inventory(self):
        infra = small_infra()
        infra.htable("videos", families=("meta",))
        infra.collection("tweets")
        layers = infra.describe_layers()
        assert "videos" in layers["software"]["htables"]
        assert "tweets" in layers["software"]["collections"]

    def test_application_layer_lists_apps(self):
        apps = small_infra().describe_layers()["application"]["supported"]
        assert "vehicle-detection" in apps
        assert "social-network-analysis" in apps

    def test_htable_reuse(self):
        infra = small_infra()
        assert infra.htable("t") is infra.htable("t")


class TestSources:
    def test_register_creates_topic(self):
        infra = small_infra()
        infra.register_source("tweets", lambda: [])
        assert "tweets" in infra.bus.topic_names()
        assert infra.source_names() == ["tweets"]

    def test_duplicate_source_rejected(self):
        infra = small_infra()
        infra.register_source("tweets", lambda: [])
        with pytest.raises(ValueError):
            infra.register_source("tweets", lambda: [])

    def test_pipeline_without_sources_rejected(self):
        with pytest.raises(RuntimeError):
            small_infra().run_collection_pipeline()


class TestCollectionPipeline:
    def build(self):
        infra = small_infra()
        city = OpenCityData(seed=0)
        tweets = TweetGenerator(seed=0)
        waze = WazeGenerator(seed=0)
        crime_records = city.crime_incidents(days=5)
        infra.register_source("crimes", lambda: crime_records)
        infra.register_source(
            "tweets", lambda: [t.as_document() for t in tweets.chatter(40)])
        infra.register_source("waze", lambda: waze.reports(30))
        return infra, crime_records

    def test_all_records_ingested_and_stored(self):
        infra, crime_records = self.build()
        report = infra.run_collection_pipeline()
        assert report.records_ingested["crimes"] == len(crime_records)
        assert report.records_stored["crimes"] == len(crime_records)
        assert report.records_ingested["tweets"] == 40
        assert report.records_ingested["waze"] == 30
        assert report.total_ingested == len(crime_records) + 70

    def test_records_queryable_after_pipeline(self):
        infra, crime_records = self.build()
        infra.run_collection_pipeline()
        stored = infra.collection("crimes").count({"kind": "crime"})
        assert stored == len(crime_records)

    def test_bus_carries_copies(self):
        infra, crime_records = self.build()
        infra.run_collection_pipeline()
        consumer = infra.bus.consumer("analytics", ["crimes"])
        assert len(consumer.drain()) == len(crime_records)

    def test_analysis_aggregates_districts(self):
        infra, _ = self.build()
        report = infra.run_collection_pipeline(analysis_field="district")
        assert report.analysis_rows == 6  # six districts

    def test_visualization_produced(self):
        infra, _ = self.build()
        report = infra.run_collection_pipeline()
        assert report.viz_bytes > 0
        assert infra.last_visualization.startswith("<svg")

    def test_pipeline_idempotent_topics(self):
        infra, _ = self.build()
        infra.run_collection_pipeline()
        report = infra.run_collection_pipeline()
        assert report.total_ingested > 0  # second pass re-collects


class TestBatchIngest:
    """The Fig. 4 ingest loop moves batches and keeps its safety properties."""

    RECORDS = [{"record_id": i, "district": i % 6} for i in range(203)]

    def infra(self, records=RECORDS, **config):
        infra = CyberInfrastructure(InfraConfig(
            edges_per_fog=2, fogs_per_server=2, servers=1,
            datanodes=3, dfs_replication=2, **config))
        infra.register_source("feed", lambda: records)
        return infra

    def committed(self, infra):
        return [infra.bus.committed_offset("storage", "feed", partition)
                for partition in range(infra.bus.partition_count("feed"))]

    def test_bounded_topic_stores_every_record_exactly_once(self):
        infra = self.infra(bus_partition_capacity=8)
        report = infra.run_collection_pipeline()
        assert report.records_ingested["feed"] == len(self.RECORDS)
        assert report.records_stored["feed"] == len(self.RECORDS)
        stored = infra.collection("feed").find({})
        assert sorted(doc["record_id"] for doc in stored) \
            == list(range(len(self.RECORDS)))
        assert max(infra.bus.partition_sizes("feed")) <= 8
        assert infra.bus.lag("storage", "feed") == 0
        # Backpressure was real: the log never held the whole feed.
        assert infra.bus.topic_size("feed") < len(self.RECORDS)

    def test_unkeyed_feed_rides_the_round_robin_branch(self):
        infra = self.infra()
        infra.run_collection_pipeline()
        sizes = infra.bus.partition_sizes("feed")
        assert sum(sizes) == len(self.RECORDS)
        assert max(sizes) - min(sizes) <= 1
        replay = infra.bus.consumer("audit", ["feed"]).drain()
        assert all(record.key is None for record in replay)

    def test_failed_insert_leaves_offsets_uncommitted(self, monkeypatch):
        infra = self.infra()
        stored_insert_many = Collection.insert_many
        calls = []

        def failing(collection, documents):
            calls.append(len(documents))
            if len(calls) == 3:
                raise MongoError("disk full")
            return stored_insert_many(collection, documents)

        monkeypatch.setattr(Collection, "insert_many", failing)
        with pytest.raises(MongoError, match="disk full"):
            infra.run_collection_pipeline()
        monkeypatch.undo()
        # Two batches landed and were committed; the third did neither.
        assert len(infra.collection("feed")) == sum(calls[:2])
        assert sum(self.committed(infra)) == sum(calls[:2])
        assert infra.bus.group_members("storage") == []
        # The uncommitted batch is redelivered to the next group member.
        member = infra.bus.consumer("storage", ["feed"], auto_commit=False)
        redelivered = member.poll_batch(100)
        assert len(redelivered) == calls[2]
        infra.collection("feed").insert_many(redelivered.values)
        assert sorted(doc["record_id"]
                      for doc in infra.collection("feed").find({})) \
            == list(range(sum(calls)))

    def test_rejected_batch_is_not_half_stored(self):
        poisoned = list(self.RECORDS[:30])
        poisoned[12] = dict(poisoned[12], _id="taken")
        infra = self.infra(poisoned)
        infra.collection("feed").insert({"_id": "taken"})
        with pytest.raises(MongoError, match="duplicate _id"):
            infra.run_collection_pipeline()
        assert len(infra.collection("feed")) == 1
        assert sum(self.committed(infra)) == 0


def camera_network(seed):
    rng = np.random.default_rng(seed)
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)))


def camera_deployment():
    deployment = TwoTierDeployment(
        lambda: camera_network(seed=99),
        local_modules=["local_stage", "local_head"],
        remote_modules=["remote_stage", "remote_head"])
    deployment.deploy(camera_network(seed=1))
    return deployment


def camera_frames(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, (1, 8, 8)) for _ in range(n)]


class TestCameraFogGlue:
    """Camera frames ride the broker into the two-tier fog deployment."""

    def test_frames_topic_is_bounded_and_shared(self):
        infra = small_infra()
        topic = infra.attach_camera_feed()
        config = infra.bus.topic_config(topic)
        assert config.share_ndarrays
        assert config.max_partition_records == \
            infra.config.camera_partition_capacity
        infra.attach_camera_feed()  # idempotent

    def test_publish_then_serve_decides_every_frame(self):
        infra = small_infra()
        assert infra.publish_camera_frames("cam-a", camera_frames(0, 6)) == 6
        assert infra.publish_camera_frames("cam-b", camera_frames(1, 4)) == 4
        served = infra.serve_camera_streams(
            camera_deployment(), ScoreThresholdPolicy(0.45))
        assert sorted(served) == ["cam-a", "cam-b"]
        assert sum(len(d.predictions) for d in served["cam-a"]) == 6
        assert sum(len(d.predictions) for d in served["cam-b"]) == 4
        assert infra.bus.lag("fog-serving", infra.CAMERA_TOPIC) == 0

    def test_offsets_commit_so_second_serve_is_empty(self):
        infra = small_infra()
        infra.publish_camera_frames("cam-a", camera_frames(2, 3))
        deployment = camera_deployment()
        policy = ScoreThresholdPolicy(0.45)
        assert infra.serve_camera_streams(deployment, policy)
        assert infra.serve_camera_streams(deployment, policy) == {}

    def test_serving_matches_direct_deployment_call(self):
        infra = small_infra()
        frames = camera_frames(3, 5)
        infra.publish_camera_frames("cam-a", frames)
        deployment = camera_deployment()
        policy = ScoreThresholdPolicy(0.45)
        direct = deployment.serve_batched(np.stack(frames), policy)
        served = infra.serve_camera_streams(deployment, policy)
        assert np.array_equal(served["cam-a"][0].predictions,
                              direct.predictions)
        assert np.array_equal(served["cam-a"][0].exit_index,
                              direct.exit_index)
