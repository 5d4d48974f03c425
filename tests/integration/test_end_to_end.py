"""Cross-module integration tests: whole-paper scenarios.

Each test wires several substrates together exactly as the
cyberinfrastructure would and checks an end-to-end invariant — these are
the scenarios the unit suites cannot see.
"""

import numpy as np
import pytest

from repro.apps.action import ActionRecognitionApp
from repro.apps.social import SocialNetworkAnalysis
from repro.apps.vehicle import VehicleDetectionApp
from repro.cluster import FailureInjector, NetworkTopology, Tier
from repro.compute import SparkContext, StreamingContext
from repro.core import CyberInfrastructure, InfraConfig
from repro.data import LawEnforcementFeed, OpenCityData, SecureStore, WazeGenerator
from repro.dfs import DistributedFileSystem
from repro.fog.policies import EntropyThresholdPolicy, run_policy_batched
from repro.nosql import Collection, HTable
from repro.nn.models.yolo import detection_confidence
from repro.streaming import Broker, RelationalDatabase, SqoopImporter
from repro.viz import heatmap_svg


class TestVideoPathEndToEnd:
    """Camera frames -> trained early-exit model -> fog stream -> index."""

    def test_trained_exits_drive_fog_simulation(self):
        app = VehicleDetectionApp(num_classes=3, image_size=16, seed=0)
        app.train(num_scenes=24, epochs=12)
        frames, _ = app.build_detection_dataset(20)
        decisions = app.model.infer_batch(frames, 0.4,
                                          confidence=detection_confidence)
        # Map the model's real per-frame exits onto pipeline stages:
        # exit 1 -> stage 1 (fog), exit 2 -> stage 2 (server).
        outcomes = decisions.exit_index.tolist()
        topology = NetworkTopology.build_fog_hierarchy()
        edge = topology.machines(Tier.EDGE)[0].name
        pipeline = app.fog_pipeline(topology, edge)
        stats = pipeline.simulate_stream(
            num_items=len(outcomes), arrival_interval_s=0.05,
            exit_outcomes=outcomes)
        assert stats.completed == 20
        assert (stats.resolved_per_stage.get(1, 0)
                == int(decisions.local_mask.sum()))

    def test_annotations_survive_storage_roundtrip(self):
        app = VehicleDetectionApp(num_classes=3, image_size=16, seed=1)
        app.train(num_scenes=16, epochs=10)
        report = app.evaluate(num_scenes=8, threshold=0.0)
        collection = Collection("annotations")
        app.index_annotations(collection, report)
        by_exit = collection.count({"exit": 1})
        assert by_exit == len(report.annotations)  # threshold 0: all local


class TestStorageUnderFailures:
    """DFS + HBase + failure injector: data survives datanode churn."""

    def test_htable_reads_survive_datanode_failures(self):
        dfs = DistributedFileSystem.with_datanodes(5, replication=3)
        table = HTable("events", dfs, families=("d",),
                       memstore_flush_cells=20)
        for index in range(60):
            table.put(f"row-{index:03d}", "d", "v", str(index).encode())
        table.flush()
        table._hfile_cache.clear()  # force DFS reads
        injector = FailureInjector(dfs.datanodes, seed=0)
        injector.fail_one()
        injector.fail_one()
        for index in range(0, 60, 7):
            assert (table.get_value(f"row-{index:03d}", "d", "v")
                    == str(index).encode())

    def test_re_replication_then_more_failures(self):
        dfs = DistributedFileSystem.with_datanodes(6, replication=2)
        payload = bytes(range(256)) * 10
        dfs.create("/survivor", payload)
        injector = FailureInjector(
            dfs.datanodes, seed=1,
            on_fail=lambda node: dfs.re_replicate())
        # Repeated single failures with healing in between: data persists.
        for _ in range(3):
            injector.fail_one()
            assert dfs.read("/survivor") == payload
            injector.recover_all()


class TestSqoopToSpark:
    """Legacy RDBMS -> Sqoop import -> DFS -> Spark analysis."""

    def test_imported_table_analyzable_with_rdd(self):
        db = RelationalDatabase("police")
        table = db.create_table("arrests", ["arrest_id", "offense", "year"])
        table.insert_many([
            {"arrest_id": i, "offense": "dui" if i % 3 else "theft",
             "year": 2017 + i % 2}
            for i in range(30)
        ])
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        report = SqoopImporter(db, dfs).import_table(
            "arrests", "/imports/arrests", num_mappers=4)
        assert report.rows == 30
        # Spark over the imported CSV lines (skip per-file headers).
        context = SparkContext()
        counts = dict(
            context.text_file(dfs, "/imports/arrests")
            .filter(lambda line: not line.startswith("arrest_id"))
            .map(lambda line: (line.split(",")[1], 1))
            .reduceByKey(lambda a, b: a + b)
            .collect())
        assert counts["theft"] == 10
        assert counts["dui"] == 20


class TestLawEnforcementToInvestigation:
    """Monthly transfers -> secure store -> network -> investigation."""

    def test_full_investigative_chain(self):
        feed = LawEnforcementFeed(seed=0, num_persons=80)
        store = SecureStore(retention_days=90)
        for month in range(1, 4):
            store.upload(f"2018-{month:02d}",
                         feed.monthly_batch(month, incidents=20),
                         day=30 * (month - 1))
        # Retention at day 150: January (age 150) and February (age 120)
        # both exceed the 90-day window; only March survives.
        purged = store.purge(current_day=150)
        assert purged == 2
        assert store.upload_ids() == ["2018-03"]
        records = []
        for upload_id in store.upload_ids():
            records.extend(store.read(upload_id, authorized=True))
        analysis = SocialNetworkAnalysis.from_incidents(records)
        assert analysis.graph.num_vertices > 0
        person = sorted(analysis.graph.vertices)[0]
        report = analysis.field_size_report(person)
        assert report.second_degree >= report.first_degree > 0


class TestStreamingDashboard:
    """Bus -> micro-batch engine -> grid aggregation -> SVG heatmap."""

    def test_waze_stream_to_heatmap(self):
        bus = Broker()
        bus.create_topic("waze", partitions=4)
        reports = WazeGenerator(seed=0).reports(300)
        for report in reports:
            bus.produce("waze", report)
        context = StreamingContext(bus, batch_max_records=50)
        accidents = []
        (context.stream("waze")
         .filter(lambda r: r["type"] == "ACCIDENT")
         .foreach_batch(accidents.extend))
        consumed = context.run_until_idle()
        assert consumed == 300
        from repro.compute import GridAggregator
        grid = GridAggregator(rows=5, cols=5).aggregate(
            [r["location"] for r in accidents])
        svg = heatmap_svg(grid.tolist(), title="accidents")
        assert svg.count("<rect") == 25
        assert grid.sum() == len(accidents) > 0


class TestInfrastructureWithApplications:
    """The facade hosting a real application's outputs."""

    def test_action_alerts_into_infra_collection(self):
        infra = CyberInfrastructure(InfraConfig(
            edges_per_fog=2, fogs_per_server=1, servers=1,
            datanodes=3, dfs_replication=2))
        app = ActionRecognitionApp(image_size=16, frames=6, seed=0)
        app.train(clips_per_class=4, epochs=10)
        clips, _ = app.clips.dataset(clips_per_class=2)
        decisions = run_policy_batched(app.model, clips,
                                       EntropyThresholdPolicy(0.9))
        alerts = app.index_alerts(
            infra.collection("alerts"), decisions,
            camera_id="br-001", suspicious_classes=[3, 4])
        assert infra.collection("alerts").count({"camera_id": "br-001"}) \
            == alerts

    def test_crime_records_through_htable_and_spark(self):
        infra = CyberInfrastructure(InfraConfig(
            edges_per_fog=2, fogs_per_server=1, servers=1,
            datanodes=3, dfs_replication=2))
        city = OpenCityData(seed=0)
        records = city.crime_incidents(days=10)
        table = infra.htable("crimes_wide", families=("info",))
        for record in records:
            table.put(f"incident-{record['incident_id']:06d}", "info",
                      "offense", record["offense"].encode())
        table.flush()
        # Scan the wide-column store into Spark for a count-by-offense.
        rows = [(values[("info", "offense")].decode(), 1)
                for _, values in table.scan()]
        counts = dict(infra.spark.parallelize(rows)
                      .reduceByKey(lambda a, b: a + b).collect())
        assert sum(counts.values()) == len(records)
