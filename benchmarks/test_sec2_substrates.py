"""E13 — Sec. II-B/C: substrate microbenchmarks.

One measured behaviour per substrate the paper's software layer borrows:
DFS replication & recovery, HBase random access vs DFS batch scans, the
document store's geo index, the RDD shuffle, Flume delivery under sink
failures, and YARN scheduling throughput.
"""

import numpy as np
import pytest

from benchmarks.helpers import print_table
from repro.compute import NodeManager, ResourceManager, ResourceRequest, SparkContext
from repro.dfs import DistributedFileSystem
from repro.nosql import Collection, HTable
from repro.streaming import FlumeAgent, FunctionSource, SinkError


def test_sec2_dfs_write_read(benchmark):
    def roundtrip():
        dfs = DistributedFileSystem.with_datanodes(
            4, replication=2, block_size=4096)
        payload = b"x" * 100_000
        for index in range(10):
            dfs.create(f"/videos/chunk-{index}", payload)
        total = sum(len(dfs.read(f"/videos/chunk-{index}"))
                    for index in range(10))
        return dfs, total

    dfs, total = benchmark(roundtrip)
    print(f"\n  1 MB through the DFS (x2 replication): "
          f"{dfs.total_bytes_stored() / 1e6:.1f} MB stored")
    assert total == 1_000_000
    assert dfs.total_bytes_stored() == 2_000_000


def test_sec2_dfs_failure_recovery(benchmark):
    def recover():
        dfs = DistributedFileSystem.with_datanodes(
            6, replication=3, block_size=4096)
        for index in range(8):
            dfs.create(f"/f{index}", b"y" * 20_000)
        dfs.fail_datanode("datanode-0")
        dfs.fail_datanode("datanode-1")
        under = len(dfs.under_replicated())
        created = dfs.re_replicate()
        return under, created, len(dfs.under_replicated())

    under, created, remaining = benchmark(recover)
    print(f"\n  2/6 datanodes failed: {under} under-replicated blocks, "
          f"{created} new replicas created, {remaining} still degraded")
    assert under > 0
    assert created >= under
    assert remaining == 0


def test_sec2_hbase_random_access_vs_dfs_scan(benchmark):
    # The paper's contrast: HDFS is batch-only; HBase adds efficient
    # random reads.  Measure per-row access into a 300-row table.
    dfs = DistributedFileSystem.with_datanodes(3, replication=2)
    table = HTable("incidents", dfs, families=("d",),
                   memstore_flush_cells=100)
    for index in range(300):
        table.put(f"row-{index:04d}", "d", "v", str(index).encode())
    table.flush()

    def random_reads():
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(50):
            key = f"row-{int(rng.integers(300)):04d}"
            if table.get_value(key, "d", "v") is not None:
                hits += 1
        return hits

    hits = benchmark(random_reads)
    print(f"\n  50 random reads over 300 rows across "
          f"{table.hfile_count} HFiles: {hits} hits")
    assert hits == 50


def test_sec2_hbase_compaction_shrinks_storage(benchmark):
    def churn_and_compact():
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        table = HTable("churn", dfs, families=("d",))
        # Five write rounds over the same 40 rows, flushing after each:
        # five HFiles whose older versions compaction folds away.
        for version in range(5):
            for index in range(40):
                table.put(f"row-{index}", "d", "v",
                          f"value-{version}".encode() * 20)
            table.flush()
        before = dfs.total_bytes_stored()
        table.compact()
        return before, dfs.total_bytes_stored()

    before, after = benchmark(churn_and_compact)
    print(f"\n  compaction: {before:,} -> {after:,} bytes "
          f"({before / max(after, 1):.1f}x)")
    assert after < before


def test_sec2_mongo_geo_index_speedup(benchmark):
    rng = np.random.default_rng(0)
    points = rng.random((3000, 2))
    docs = [{"location": p.tolist(), "kind": "crime"} for p in points]
    indexed = Collection("indexed")
    indexed.insert_many(docs)
    indexed.create_geo_index("location", cell_size=0.05)
    query = {"location": {"$near": [0.5, 0.5], "$maxDistance": 0.05}}

    def indexed_query():
        return indexed.find(query)

    hits = benchmark(indexed_query)
    plain = Collection("plain")
    plain.insert_many(docs)
    plain_hits = plain.find(query)
    print(f"\n  geo $near over 3000 docs: {len(hits)} hits "
          f"(index used: {indexed.last_query_used_index})")
    assert indexed.last_query_used_index
    assert {d["_id"] for d in hits} == {d["_id"] for d in plain_hits}


def test_sec2_rdd_shuffle_wordcount(benchmark):
    rng = np.random.default_rng(0)
    words = ["traffic", "crime", "camera", "tweet", "jam", "alert"]
    lines = [" ".join(rng.choice(words, 8)) for _ in range(2000)]

    def wordcount():
        context = SparkContext(default_parallelism=4)
        counts = dict(
            context.parallelize(lines)
            .flatMap(str.split)
            .map(lambda w: (w, 1))
            .reduceByKey(lambda a, b: a + b)
            .collect())
        return counts, context.shuffle_count

    counts, shuffles = benchmark(wordcount)
    print(f"\n  wordcount over 2000 lines: {sum(counts.values())} tokens, "
          f"{shuffles} shuffle(s)")
    assert sum(counts.values()) == 2000 * 8
    assert shuffles == 1


def test_sec2_flume_at_least_once_under_failures(benchmark):
    def ingest():
        received = []
        failures = {"remaining": 5}

        def flaky_sink(events):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise SinkError("transient outage")
            received.extend(events)

        agent = FlumeAgent(FunctionSource(range(500)), flaky_sink,
                           batch_size=20)
        metrics = agent.run()
        return metrics, received

    metrics, received = benchmark(ingest)
    print(f"\n  500 events through a flaky sink: "
          f"{metrics.events_delivered} delivered, "
          f"{metrics.batches_rolled_back} batches retried")
    assert metrics.events_delivered == 500
    assert received == list(range(500))
    assert metrics.batches_rolled_back == 5


def test_sec2_yarn_scheduling_throughput(benchmark):
    def schedule():
        rm = ResourceManager()
        for index in range(4):
            rm.register_node(NodeManager(f"nm-{index}", vcores=16,
                                         memory_mb=65_536))
        granted = []
        for index in range(64):
            container = rm.submit(ResourceRequest(
                f"app-{index}", vcores=1, memory_mb=1024))
            if container is not None:
                granted.append(container)
        for container in list(granted):
            rm.release(container)
        return len(granted), rm.pending_count

    granted, pending = benchmark(schedule)
    print(f"\n  64 container requests over 4x16 vcores: "
          f"{granted} granted immediately, {pending} left pending")
    assert granted == 64
    assert pending == 0


def test_sec2_dstream_windowed_analytics(benchmark):
    # Streaming processing (Sec. II-C-2): windowed per-type counts over a
    # live Waze topic through the micro-batch engine.
    from repro.compute import StreamingContext
    from repro.data import WazeGenerator
    from repro.streaming import Broker

    reports = WazeGenerator(seed=0).reports(600)

    def stream_pass():
        bus = Broker()
        bus.create_topic("waze", partitions=4)
        for report in reports:
            bus.produce("waze", report)
        context = StreamingContext(bus, batch_max_records=100)
        snapshots = []
        (context.stream("waze")
         .filter(lambda r: r["severity"] >= 3)
         .reduce_by_key_and_window(lambda r: r["type"], batches=3,
                                   into=snapshots))
        consumed = context.run_until_idle()
        return consumed, snapshots

    consumed, snapshots = benchmark(stream_pass)
    print(f"\n  {consumed} Waze reports through {len(snapshots)} "
          f"micro-batches; final window: {snapshots[-1]}")
    assert consumed == 600
    total_severe = sum(1 for r in reports if r["severity"] >= 3)
    all_time = {}
    # union of the windowed counts over all batches covers every type seen
    for snapshot in snapshots:
        for kind, count in snapshot.items():
            all_time[kind] = max(all_time.get(kind, 0), count)
    assert sum(snapshots[0].values()) <= total_severe
