"""E4 — Fig. 4: collection -> management -> analysis -> visualization.

Regenerates the pipeline figure as per-stage throughput rows: raw feeds
through transactional Flume agents into the NoSQL stores, a Spark-style
aggregation over the stored records, and the chart payload handed to the
web layer.  Counts must be conserved across every stage.  The figure's
other collection path, a Sqoop bulk import of a legacy RDBMS table into
the document store, must conserve rows too.
"""

import time

from benchmarks.helpers import print_table
from repro.core import CyberInfrastructure, InfraConfig
from repro.data import OpenCityData, TweetGenerator, WazeGenerator
from repro.streaming import RelationalDatabase, SqoopImporter


def test_fig4_pipeline_stage_throughput(benchmark):
    city = OpenCityData(seed=0)
    tweets = TweetGenerator(num_users=150, seed=0)
    waze = WazeGenerator(seed=0)
    crimes = city.crime_incidents(days=30)
    tweet_docs = [t.as_document() for t in tweets.chatter(800)]
    reports = waze.reports(400)

    def full_pass():
        infra = CyberInfrastructure(InfraConfig(
            edges_per_fog=2, fogs_per_server=2, servers=1,
            datanodes=3, dfs_replication=2))
        infra.register_source("crimes", lambda: list(crimes))
        infra.register_source("tweets", lambda: list(tweet_docs))
        infra.register_source("waze", lambda: list(reports))
        started = time.perf_counter()
        report = infra.run_collection_pipeline(analysis_field="district")
        elapsed = time.perf_counter() - started
        return infra, report, elapsed

    infra, report, elapsed = benchmark.pedantic(full_pass, rounds=3,
                                                iterations=1)
    total = report.total_ingested
    rows = [
        {"stage": "collection (Flume)", "records": total,
         "records_per_s": total / max(elapsed, 1e-9)},
        {"stage": "storage (documents)",
         "records": sum(report.records_stored.values()),
         "records_per_s": total / max(elapsed, 1e-9)},
        {"stage": "bus (topics)",
         "records": sum(infra.bus.topic_size(t)
                        for t in infra.bus.topic_names()),
         "records_per_s": total / max(elapsed, 1e-9)},
        {"stage": "analysis (Spark)", "records": report.analysis_rows,
         "records_per_s": report.analysis_rows / max(elapsed, 1e-9)},
        {"stage": "visualization", "records": report.viz_bytes,
         "records_per_s": 0.0},
    ]
    print_table("Fig. 4 — pipeline stages (one pass)", rows,
                ["stage", "records", "records_per_s"])

    # Conservation: everything collected is stored and re-published.
    expected = len(crimes) + len(tweet_docs) + len(reports)
    assert total == expected
    assert sum(report.records_stored.values()) == expected
    assert sum(infra.bus.topic_size(t)
               for t in infra.bus.topic_names()) == expected
    assert report.analysis_rows == 6  # six police districts
    assert report.viz_bytes > 0


def test_fig4_sqoop_legacy_import():
    crimes = OpenCityData(seed=0).crime_incidents(days=20)
    legacy = RelationalDatabase("police")
    table = legacy.create_table(
        "incidents", ["incident_id", "offense", "district", "day"])
    table.insert_many([{column: record[column] for column in table.columns}
                       for record in crimes])
    infra = CyberInfrastructure(InfraConfig(
        edges_per_fog=2, fogs_per_server=2, servers=1,
        datanodes=3, dfs_replication=2))
    stored = infra.collection("legacy_incidents")
    report = SqoopImporter(legacy).import_to_collection(
        "incidents", stored, num_mappers=4)

    rows = [{"district": district,
             "rdbms_rows": len(table.select(
                 lambda row, d=district: row["district"] == d)),
             "stored": stored.count({"district": district})}
            for district in sorted({r["district"] for r in crimes})]
    rows.append({"district": "all", "rdbms_rows": len(table),
                 "stored": stored.count({})})
    print_table("Fig. 4 — Sqoop bulk import (legacy RDBMS -> documents)",
                rows, ["district", "rdbms_rows", "stored"])

    # Conservation: every legacy row lands exactly once, unchanged.
    assert report.rows == len(table) == len(crimes) == stored.count({})
    assert sorted(stored.distinct("incident_id")) == \
        sorted(r["incident_id"] for r in crimes)
    assert all(row["rdbms_rows"] == row["stored"] for row in rows)
    for doc in stored.find({}):
        assert {column: doc[column] for column in table.columns} == \
            table.get(doc["incident_id"])
