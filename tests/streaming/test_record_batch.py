"""Columnar record batches: the data-plane fast path stays semantics-free.

``produce_batch`` → ``poll_batch`` is the one path; ``produce()`` and
``poll()`` are views of it.  Every column round-trips exactly what the
row views deliver, the logical tick clock, backpressure and rotation
follow the rules of an independent reference model
(:mod:`tests.streaming.reference_log` — the two calls are never checked
against each other), and the normalized registry dump is byte-identical
whichever call carried the records.  A :class:`RecordBatch`'s per-camera
groups serve through ``TwoTierDeployment.serve_batched`` exactly as the
stacked row values do.
"""

import json

import numpy as np
import pytest

from repro.fog import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro import nn
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import Runtime, using_runtime
from repro.runtime.parallel import deterministic_dump
from repro.streaming import (
    BackpressureError,
    BackpressureStall,
    Broker,
    BrokerError,
    RecordBatch,
)
from repro.streaming.broker import (
    VOLATILE_METRIC_PREFIXES,
    VOLATILE_SPAN_PREFIXES,
)

from tests.streaming.reference_log import ReferenceLog, as_rows


def normalized_dump(runtime):
    return json.dumps(
        deterministic_dump(runtime,
                           drop_metric_prefixes=VOLATILE_METRIC_PREFIXES,
                           drop_span_prefixes=VOLATILE_SPAN_PREFIXES),
        sort_keys=True)


def make_broker(partitions=4, **topic_kwargs):
    broker = Broker()
    broker.create_topic("events", partitions=partitions, **topic_kwargs)
    return broker


def sample_batch():
    return RecordBatch("events", [0, 1, 0], [0, 0, 1],
                       ["a", None, "a"], [10, 11, 12], [0.0, 1.0, 2.0])


class TestRecordBatchShape:
    def test_empty_batch_is_falsy(self):
        batch = RecordBatch.empty("events")
        assert len(batch) == 0
        assert not batch
        assert batch.records() == []

    def test_record_materializes_row(self):
        record = sample_batch().record(1)
        assert (record.topic, record.partition, record.offset) == \
            ("events", 1, 0)
        assert record.key is None
        assert record.value == 11
        assert record.timestamp == 1.0

    def test_negative_index_and_bounds(self):
        batch = sample_batch()
        assert batch.record(-1).value == 12
        with pytest.raises(IndexError):
            batch.record(3)
        with pytest.raises(IndexError):
            batch.record(-4)

    def test_iteration_matches_records(self):
        batch = sample_batch()
        assert [r.value for r in batch] == [10, 11, 12]
        assert list(batch) == batch.records()

    def test_getitem_int_and_slice(self):
        batch = sample_batch()
        assert batch[0].value == 10
        tail = batch[1:]
        assert isinstance(tail, RecordBatch)
        assert tail.values == [11, 12]
        assert tail.offsets == [0, 1]

    def test_select_shares_payload_objects(self):
        payload = np.arange(4)
        batch = RecordBatch("t", [0], [0], [None], [payload], [0.0])
        assert batch.select([0]).values[0] is payload

    def test_groups_sorted_none_first(self):
        groups = sample_batch().groups()
        assert [key for key, _ in groups] == [None, "a"]
        by_key = dict(groups)
        assert by_key[None].values == [11]
        assert by_key["a"].values == [10, 12]    # arrival order kept

    def test_stacked_values_cached(self):
        batch = RecordBatch("t", [0, 0], [0, 1], [None, None],
                            [np.zeros(3), np.ones(3)], [0.0, 1.0])
        stacked = batch.stacked_values()
        assert stacked.shape == (2, 3)
        assert batch.stacked_values() is stacked

    def test_stacked_values_rejects_empty(self):
        with pytest.raises(BrokerError):
            RecordBatch.empty().stacked_values()

    def test_stacked_values_of_ragged_rows_raises(self):
        batch = RecordBatch("t", [0, 0], [0, 1], ["a", "a"],
                            [np.zeros((2, 3)), np.zeros((2, 4))], [0.0, 1.0])
        with pytest.raises(ValueError):
            batch.stacked_values()

    def test_one_key_batch_is_its_own_group(self):
        batch = RecordBatch("t", [0, 1], [0, 0], ["a", "a"],
                            [np.zeros(3), np.ones(3)], [0.0, 1.0])
        assert batch.groups() == [("a", batch)]

    def test_concat_same_topic_keeps_scalar(self):
        merged = RecordBatch.concat([sample_batch(), sample_batch()])
        assert merged.topics == "events"
        assert len(merged) == 6
        assert merged.topic_at(5) == "events"

    def test_concat_mixed_topics_expands_per_row(self):
        one = RecordBatch("a", [0], [0], [None], [1], [0.0])
        two = RecordBatch("b", [0], [0], [None], [2], [1.0])
        merged = RecordBatch.concat([one, two])
        assert merged.topics == ["a", "b"]
        assert merged.record(0).topic == "a"
        assert merged.record(1).topic == "b"

    def test_concat_drops_empties_and_passes_single_through(self):
        batch = sample_batch()
        assert RecordBatch.concat([RecordBatch.empty(), batch]) is batch
        assert len(RecordBatch.concat([])) == 0


class TestRoundTrip:
    def test_poll_batch_matches_per_record_poll(self):
        def consume(batch_path):
            broker = make_broker()
            broker.produce_batch("events", list(range(20)),
                                 key_fn=lambda v: f"k{v % 3}")
            consumer = broker.consumer("g", ["events"], auto_commit=False)
            rows = []
            while True:
                if batch_path:
                    got = consumer.poll_batch(7).records()
                else:
                    got = consumer.poll(7)
                if not got:
                    return rows
                rows.extend((r.topic, r.partition, r.offset, r.key,
                             r.value, r.timestamp) for r in got)
                consumer.commit()

        assert consume(True) == consume(False)

    def test_produce_batch_returns_columnar_batch(self):
        broker = make_broker(partitions=2)
        produced = broker.produce_batch("events", [5, 6, 7])
        assert isinstance(produced, RecordBatch)
        assert produced.topics == "events"
        assert produced.values == [5, 6, 7]
        assert len(produced) == 3

    def test_multi_topic_poll_batch_concats(self):
        broker = Broker()
        broker.create_topic("a", partitions=1)
        broker.create_topic("b", partitions=1)
        broker.produce("a", 1)
        broker.produce("b", 2)
        consumer = broker.consumer("g", ["a", "b"], auto_commit=False)
        batch = consumer.poll_batch(10)
        assert sorted(batch.values) == [1, 2]
        assert sorted(batch.topic_at(i) for i in range(len(batch))) == \
            ["a", "b"]

    def test_zero_copy_values_resolve_in_batch(self):
        broker = Broker()
        broker.create_topic("frames", partitions=1, share_ndarrays=True)
        frame = np.arange(64 * 1024, dtype=np.float32)   # 256 KiB
        broker.produce_batch("frames", [frame])
        batch = broker.consumer("g", ["frames"]).poll_batch(1)
        np.testing.assert_array_equal(batch.values[0], frame)
        assert not batch.values[0].flags.writeable        # shared view
        assert broker.shm_bytes_staged() >= frame.nbytes


class TestTimestampTicks:
    def test_batch_assigns_consecutive_ticks(self):
        broker = make_broker(partitions=2)
        produced = broker.produce_batch("events", list(range(5)))
        assert produced.timestamps == [float(i) for i in range(5)]

    def test_ticks_continue_across_single_and_batch(self):
        broker = make_broker(partitions=1)
        first = broker.produce("events", "a")
        produced = broker.produce_batch("events", ["b", "c"])
        last = broker.produce("events", "d")
        assert first.timestamp == 0.0
        assert produced.timestamps == [1.0, 2.0]
        assert last.timestamp == 3.0

    def test_dropped_records_consume_no_ticks(self):
        broker = make_broker(partitions=1, max_partition_records=2,
                             backpressure="drop")
        produced = broker.produce_batch("events", [0, 1, 2, 3])
        assert produced.timestamps == [0.0, 1.0]
        assert broker.produce("events", 9) is None        # still full
        record = broker.consumer("g", ["events"]).poll(2)[0]
        assert record.timestamp == 0.0


def reference_for(partitions=4, **topic_kwargs):
    """The independent model of ``make_broker(partitions, **topic_kwargs)``."""
    return ReferenceLog(partitions,
                        bound=topic_kwargs.get("max_partition_records"),
                        policy=topic_kwargs.get("backpressure", "block"))


class TestSingleProduceParity:
    """``produce`` is the one-record view of ``produce_batch``; both are
    held to the reference model, never to each other."""

    def test_rotation_matches_batch_planning(self):
        reference = reference_for(partitions=3)
        expected = [row[0] for value in range(9)
                    for row in reference.produce([(None, value)])]
        batched = make_broker(partitions=3)
        produced = batched.produce_batch("events", list(range(7)))
        second = batched.produce_batch("events", [7, 8])
        single = make_broker(partitions=3)
        singles = [single.produce("events", v) for v in range(9)]
        assert list(produced.partitions) + list(second.partitions) == expected
        assert [r.partition for r in singles] == expected

    def test_drop_policy_advances_rotation(self):
        # a dropped unkeyed record still consumes its round-robin slot
        broker = make_broker(partitions=2, max_partition_records=1,
                             backpressure="drop")
        reference = reference_for(partitions=2, max_partition_records=1,
                                  backpressure="drop")
        for value in range(3):
            reference.produce([(None, value)])
        assert broker.produce("events", 0).partition == 0
        assert broker.produce("events", 1).partition == 1
        assert broker.produce("events", 2) is None        # slot 0, dropped
        assert reference.rows() == [(0, 0, None, 0, 0.0), (1, 0, None, 1, 1.0)]
        consumer = broker.consumer("g", ["events"])
        consumer.drain()                                  # frees both heads
        reference.poll(10)
        reference.commit()
        assert broker.produce("events", 3).partition == 1  # rotation moved
        assert reference.produce([(None, 3)]) == [(1, 1, None, 3, 2.0)]

    def test_stall_and_error_policies_raise(self):
        broker = make_broker(partitions=1, max_partition_records=1)
        broker.produce("events", 0)
        with pytest.raises(BackpressureStall):
            broker.produce("events", 1)
        hard = Broker()
        hard.create_topic("events", partitions=1, max_partition_records=1,
                          backpressure="error")
        hard.produce("events", 0)
        with pytest.raises(BackpressureError) as err:
            hard.produce("events", 1)
        assert not isinstance(err.value, BackpressureStall)

    def test_keyed_produce_matches_batch_partitioning(self):
        keys = [f"k{i}" for i in range(8)]
        expected = [reference_for().partition_of(key) for key in keys]
        batched = make_broker()
        planned = batched.produce_batch("events", list(range(8)),
                                        key_fn=lambda v: keys[v]).partitions
        single = make_broker()
        singles = [single.produce("events", v, key=keys[v]).partition
                   for v in range(8)]
        assert list(planned) == singles == expected


def log_state(broker, partitions):
    """Everything a produce leaves behind, per partition, plus the cursor."""
    consumer = broker.consumer("probe", ["events"])
    rows = sorted(as_rows(consumer.drain()))
    consumer.close()
    ends = [broker.end_offset("events", p) for p in range(partitions)]
    # The drain committed, so a bounded topic has room for the probe.
    cursor = broker.produce("events", "cursor-probe").partition
    return rows, ends, cursor


def reference_state(reference):
    return (reference.rows(), reference.ends,
            reference.cursor % len(reference.logs))


class TestStridedRoundRobin:
    """Unkeyed ``produce_batch`` appends one strided slice per partition;
    the log it leaves is the log the reference model builds one record at
    a time."""

    WIDTH = 4

    def pair(self, rotation=0, **topic_kwargs):
        broker = make_broker(self.WIDTH, **topic_kwargs)
        reference = reference_for(self.WIDTH, **topic_kwargs)
        for value in range(rotation):
            broker.produce("events", f"warm-{value}")
            reference.produce([(None, f"warm-{value}")])
        return broker, reference

    @pytest.mark.parametrize("rotation", [0, 3])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 11])
    def test_matches_single_produces(self, n, rotation):
        broker, reference = self.pair(rotation)
        values = [f"v{i}" for i in range(n)]
        produced = broker.produce_batch("events", values)
        expected = [row for value in values
                    for row in reference.produce([(None, value)])]
        assert as_rows(produced) == expected
        assert produced.keys == [None] * n and produced.values == values
        assert log_state(broker, self.WIDTH) == reference_state(reference)

    def test_consecutive_batches_continue_the_rotation(self):
        broker, reference = self.pair()
        for size in (3, 6, 1, 9):
            values = list(range(size))
            broker.produce_batch("events", values)
            for value in values:
                reference.produce([(None, value)])
        assert log_state(broker, self.WIDTH) == reference_state(reference)

    def test_bounded_drop_takes_the_per_row_branch(self):
        # after drops the surviving rows are no longer a stride: each
        # partition takes an index list instead of a slice
        broker, reference = self.pair(max_partition_records=2,
                                      backpressure="drop")
        values = list(range(11))           # 8 fit, 3 overflow lanes 0..2
        produced = broker.produce_batch("events", values)
        kept = [row for value in values
                for row in reference.produce([(None, value)])]
        assert produced.values == list(range(8))
        assert as_rows(produced) == kept
        assert log_state(broker, self.WIDTH) == reference_state(reference)

    def test_bounded_block_appends_nothing_and_keeps_the_cursor(self):
        broker = make_broker(self.WIDTH, max_partition_records=2)
        broker.produce_batch("events", list(range(5)))   # cursor at lane 1
        with pytest.raises(BackpressureStall):
            broker.produce_batch("events", list(range(6)))
        assert broker.partition_sizes("events") == [2, 1, 1, 1]
        admitted = broker.produce_batch("events", ["a", "b", "c"])
        assert admitted.partitions == [1, 2, 3]
        assert admitted.offsets == [1, 1, 1]

    def test_bounded_topic_with_room_still_strides(self):
        broker, reference = self.pair(max_partition_records=8)
        values = list(range(10))
        broker.produce_batch("events", values)
        for value in values:
            reference.produce([(None, value)])
        assert log_state(broker, self.WIDTH) == reference_state(reference)


class TestPositionSnapshot:
    def test_commit_capped_at_snapshot(self):
        broker = make_broker(partitions=1)
        broker.produce_batch("events", list(range(6)))
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        consumer.poll_batch(3)
        snapshot = consumer.position_snapshot()
        consumer.poll_batch(3)            # read ahead past the snapshot
        consumer.commit(positions=snapshot)
        assert broker.committed_offset("g", "events", 0) == 3
        assert broker.lag("g", "events") == 3

    def test_snapshot_only_covers_assignment(self):
        broker = make_broker(partitions=2)
        broker.produce_batch("events", list(range(4)))
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        consumer.poll_batch(4)
        snapshot = consumer.position_snapshot()
        assert set(snapshot) == {("events", 0), ("events", 1)}
        consumer.commit(positions=snapshot)
        assert broker.lag("g", "events") == 0


class TestDumpParity:
    def test_batch_and_record_paths_dump_identically(self):
        def run(batch_path):
            runtime = Runtime(seed=3)
            broker = Broker(runtime=runtime)
            broker.create_topic("events", partitions=4)
            values = list(range(30))
            if batch_path:
                broker.produce_batch("events", values)
            else:
                for value in values:
                    broker.produce("events", value)
            consumer = broker.consumer("g", ["events"], auto_commit=False)
            out = []
            while True:
                if batch_path:
                    got = list(consumer.poll_batch(7).values)
                else:
                    got = [r.value for r in consumer.poll(7)]
                if not got:
                    break
                out.extend(got)
                consumer.commit()
            assert sorted(out) == values
            return normalized_dump(runtime)

        assert run(True) == run(False)


def build_network(seed):
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


def deployed():
    deployment = TwoTierDeployment(
        lambda: build_network(seed=99),
        local_modules=["local_stage", "local_head"],
        remote_modules=["remote_stage", "remote_head"])
    deployment.deploy(build_network(seed=1))
    return deployment


def camera_batch(broker):
    frames = np.random.default_rng(11).normal(0.0, 1.0, (9, 1, 8, 8))
    broker.create_topic("frames", partitions=2)
    broker.produce_batch("frames", list(frames),
                         key_fn=lambda f: f"cam-{int(f[0, 0, 0] > 0)}")
    return broker.consumer("fog", ["frames"]).poll_batch(9)


def camera_streams(batch):
    return [group.stacked_values() for _, group in batch.groups()]


class TestServeStreamsOverBatch:
    def test_batch_input_matches_stacked_lists(self):
        policy = ScoreThresholdPolicy(0.45)
        with using_runtime(Runtime(seed=7)) as rt:
            batch = camera_batch(Broker(runtime=rt))
            cameras = sorted(set(batch.keys))
            legacy = [np.stack([record.value for record in batch.records()
                                if record.key == camera])
                      for camera in cameras]
            deployment = deployed()
            from_batch = [deployment.serve_batched(frames, policy)
                          for frames in camera_streams(batch)]
            from_lists = [deployment.serve_batched(frames, policy)
                          for frames in legacy]
        assert len(from_batch) == len(from_lists) == 2
        for a, b in zip(from_batch, from_lists):
            assert np.array_equal(a.predictions, b.predictions)
            assert np.array_equal(a.exit_index, b.exit_index)
