"""Broker semantics: committed offsets, rebalancing, retention, backpressure.

The basic surface (topics, produce/consume, round-robin, lag) is covered
by ``test_bus.py``; this file exercises what makes the broker a broker.
"""

import sys

import numpy as np
import pytest

from repro.runtime import Runtime, using_runtime
from repro.streaming import (
    BackpressureError,
    Broker,
    BrokerError,
    RebalanceError,
)


class FakeClock:
    """Stands in for a DES environment: runtime.sim_clock only reads .now."""

    def __init__(self, now=0.0):
        self.now = now


def make_broker(partitions=4, **topic_kwargs):
    broker = Broker()
    broker.create_topic("events", partitions=partitions, **topic_kwargs)
    return broker


class TestCommitReplay:
    def test_manual_commit_holds_offsets(self):
        broker = make_broker(partitions=1)
        for i in range(6):
            broker.produce("events", i)
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        assert [r.value for r in consumer.poll(3)] == [0, 1, 2]
        # nothing committed yet: the committed offset is still 0
        assert broker.committed_offset("g", "events", 0) == 0
        consumer.commit()
        assert broker.committed_offset("g", "events", 0) == 3

    def test_lag_gauge_tracks_fetch_and_commit(self):
        with using_runtime(Runtime()) as runtime:
            broker = make_broker(partitions=2)
            broker.produce_batch("events", list(range(10)))
            consumer = broker.consumer("g", ["events"], auto_commit=False)
            gauge = runtime.registry.gauge("streaming.broker.lag")
            assert gauge.series() == {}           # binding creates no series
            consumer.poll_batch(4)
            assert gauge.series() == {"group=g,topic=events": 10.0}
            consumer.commit()
            assert gauge.value(group="g", topic="events") == 6.0 \
                == broker.lag("g", "events")

    def test_uncommitted_poll_is_redelivered_after_seek(self):
        broker = make_broker(partitions=1)
        for i in range(5):
            broker.produce("events", i)
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        first = consumer.poll(3)
        consumer.seek_to_committed()     # the "crash": drop the in-flight read
        replay = consumer.poll(5)
        assert [r.value for r in replay][:3] == [r.value for r in first]
        assert [r.value for r in replay] == [0, 1, 2, 3, 4]

    def test_crashed_member_loses_nothing(self):
        """The at-least-once contract the old bus could not honour: a
        member that dies before committing leaves the records for the
        next member of the group."""
        broker = make_broker(partitions=1)
        for i in range(4):
            broker.produce("events", i)
        doomed = broker.consumer("g", ["events"], auto_commit=False)
        assert len(doomed.poll(4)) == 4
        doomed.close()                   # left without committing
        survivor = broker.consumer("g", ["events"], auto_commit=False)
        assert [r.value for r in survivor.poll(10)] == [0, 1, 2, 3]

    def test_auto_commit_preserves_old_semantics(self):
        broker = make_broker(partitions=1)
        for i in range(4):
            broker.produce("events", i)
        consumer = broker.consumer("g", ["events"])  # auto_commit default
        consumer.poll(2)
        assert broker.committed_offset("g", "events", 0) == 2

    def test_commit_reports_advanced_offsets(self):
        broker = make_broker(partitions=1)
        broker.produce("events", "a")
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        consumer.poll(1)
        assert consumer.commit() == {("events", 0): 1}
        assert consumer.commit() == {}   # idempotent: nothing new

    def test_closed_consumer_rejected(self):
        broker = make_broker()
        consumer = broker.consumer("g", ["events"])
        consumer.close()
        with pytest.raises(BrokerError):
            consumer.poll()
        consumer.close()                 # idempotent


class TestRebalance:
    def test_single_member_owns_everything(self):
        broker = make_broker(partitions=4)
        consumer = broker.consumer("g", ["events"])
        assert consumer.assignment() == [("events", p) for p in range(4)]

    def test_join_redistributes_partitions(self):
        broker = make_broker(partitions=4)
        a = broker.consumer("g", ["events"])
        b = broker.consumer("g", ["events"])
        owned_a = {p for _, p in a.assignment()}
        owned_b = {p for _, p in b.assignment()}
        assert owned_a | owned_b == {0, 1, 2, 3}
        assert owned_a.isdisjoint(owned_b)

    def test_generation_bumps_on_membership_change(self):
        broker = make_broker()
        a = broker.consumer("g", ["events"])
        assert broker.group_generation("g") == 1
        b = broker.consumer("g", ["events"])
        assert broker.group_generation("g") == 2
        b.close()
        assert broker.group_generation("g") == 3
        assert broker.group_members("g") == [a.member_id]

    def test_stale_generation_commit_fenced(self):
        broker = make_broker(partitions=2)
        for i in range(4):
            broker.produce("events", i)
        a = broker.consumer("g", ["events"], auto_commit=False)
        a.poll(4)
        broker.consumer("g", ["events"], auto_commit=False)  # rebalance
        with pytest.raises(RebalanceError):
            a.commit()

    def test_rebalance_redelivers_uncommitted_records(self):
        broker = make_broker(partitions=2)
        for i in range(6):
            broker.produce("events", i)
        a = broker.consumer("g", ["events"], auto_commit=False)
        a.poll(6)                        # read everything, commit nothing
        b = broker.consumer("g", ["events"], auto_commit=False)
        with pytest.raises(RebalanceError):
            a.commit()
        # between the two members every record is redelivered
        redelivered = [r.value for r in a.poll(10)] \
            + [r.value for r in b.poll(10)]
        assert sorted(redelivered) == [0, 1, 2, 3, 4, 5]

    def test_group_splits_consumption_without_overlap(self):
        broker = make_broker(partitions=4)
        for i in range(20):
            broker.produce("events", i)
        a = broker.consumer("g", ["events"])
        b = broker.consumer("g", ["events"])
        got_a = [r.value for r in a.drain()]
        got_b = [r.value for r in b.drain()]
        assert sorted(got_a + got_b) == list(range(20))

    def test_member_leave_hands_partitions_over(self):
        broker = make_broker(partitions=2)
        a = broker.consumer("g", ["events"])
        b = broker.consumer("g", ["events"])
        b.close()
        assert {p for _, p in a.assignment()} == {0, 1}


class TestRetention:
    def test_size_retention_keeps_tail(self):
        broker = make_broker(partitions=1, retention_max_records=3)
        for i in range(10):
            broker.produce("events", i)
        assert broker.topic_size("events") == 3
        consumer = broker.consumer("g", ["events"])
        records = consumer.drain()
        assert [r.value for r in records] == [7, 8, 9]
        # absolute offsets are preserved across eviction
        assert [r.offset for r in records] == [7, 8, 9]
        assert broker.end_offset("events", 0) == 10

    def test_run_retention_covers_all_topics(self):
        broker = Broker()
        broker.create_topic("a", partitions=1, retention_max_records=1)
        broker.create_topic("b", partitions=1)
        for i in range(5):
            broker.produce("a", i)
            broker.produce("b", i)
        broker.run_retention()
        assert broker.topic_size("a") == 1
        assert broker.topic_size("b") == 5

    def test_invalid_configs_rejected(self):
        broker = Broker()
        with pytest.raises(BrokerError):
            broker.create_topic("x", retention_max_records=0)


class TestBackpressure:
    def test_block_policy_raises_retryable_stall(self):
        broker = make_broker(partitions=1, max_partition_records=2)
        broker.produce("events", 0)
        broker.produce("events", 1)
        # a stall is retryable: nothing landed, and the message says when
        with pytest.raises(BackpressureError,
                           match="retry after consumers commit"):
            broker.produce("events", 2)
        assert broker.topic_size("events") == 2

    def test_stalled_batch_is_all_or_nothing(self):
        broker = make_broker(partitions=1, max_partition_records=3)
        broker.produce("events", 0)
        with pytest.raises(BackpressureError):
            broker.produce_batch("events", [1, 2, 3])
        # nothing from the failed batch landed, and a later fitting batch
        # is not disturbed by the earlier attempt
        assert broker.topic_size("events") == 1
        broker.produce_batch("events", [1, 2])
        values = [r.value for r in broker.consumer("g", ["events"]).drain()]
        assert values == [0, 1, 2]

    def test_produce_unblocks_after_consumers_commit(self):
        broker = make_broker(partitions=1, max_partition_records=2)
        broker.produce("events", 0)
        broker.produce("events", 1)
        consumer = broker.consumer("g", ["events"])
        consumer.poll(2)                 # auto-commits both records
        broker.produce("events", 2)      # head is consumed-evictable now
        assert broker.topic_size("events") <= 2
        assert [r.value for r in consumer.drain()] == [2]

    def test_unconsumed_records_are_never_evicted_by_capacity(self):
        broker = make_broker(partitions=1, max_partition_records=2)
        broker.produce("events", 0)
        broker.produce("events", 1)
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        consumer.poll(2)                 # read but NOT committed
        with pytest.raises(BackpressureError):
            broker.produce("events", 2)  # uncommitted head must survive

    def test_subscribed_group_without_commits_pins_the_head(self):
        broker = make_broker(partitions=1, max_partition_records=4)
        reader = broker.consumer("A", ["events"])
        idle = broker.consumer("B", ["events"], auto_commit=False)
        broker.produce_batch("events", [0, 1, 2, 3])
        assert [r.value for r in reader.poll(4)] == [0, 1, 2, 3]
        # A has committed the whole log; B has read nothing, so nothing
        # is consumed by every group and the full partition stalls
        with pytest.raises(BackpressureError):
            broker.produce_batch("events", [4, 5, 6, 7])
        assert [r.value for r in idle.poll(8)] == [0, 1, 2, 3]
        assert broker.lag("B", "events") == 4
        idle.commit()                    # now every group is past the head
        broker.produce_batch("events", [4, 5, 6, 7])
        assert [r.value for r in idle.poll(8)] == [4, 5, 6, 7]


def keys_for_partitions(partitions):
    """One key per partition, found by probing a scratch broker (the key
    hash is stable across brokers with equal partition counts)."""
    probe = Broker()
    probe.create_topic("probe", partitions=partitions)
    found = {}
    i = 0
    while len(found) < partitions:
        key = f"k{i}"
        found.setdefault(probe.produce("probe", 0, key=key).partition, key)
        i += 1
    return found


class TestFairFetch:
    def test_hot_partition_cannot_starve_siblings(self):
        """Regression: the old bus always scanned from partition 0, so a
        bounded poll against a hot partition 0 starved 1..N forever."""
        keys = keys_for_partitions(2)
        broker = make_broker(partitions=2)
        consumer = broker.consumer("g", ["events"])
        broker.produce("events", "cold", key=keys[1])
        seen = []
        for round_no in range(10):
            # partition 0 refills faster than the poll budget drains it
            for i in range(4):
                broker.produce("events", f"hot-{round_no}-{i}", key=keys[0])
            seen.extend(r.value for r in consumer.poll(2))
        assert "cold" in seen

    def test_fetch_cursor_rotates_across_polls(self):
        broker = make_broker(partitions=4)
        for i in range(40):
            broker.produce("events", i)   # round-robin: 10 per partition
        consumer = broker.consumer("g", ["events"])
        first = consumer.poll(10)
        second = consumer.poll(10)
        # capped polls move on to the next partition instead of re-pinning
        # the scan to partition 0
        assert {r.partition for r in first} != {r.partition for r in second}

    def test_rotation_still_delivers_everything(self):
        broker = make_broker(partitions=4)
        for i in range(37):
            broker.produce("events", i)
        consumer = broker.consumer("g", ["events"])
        out = []
        while True:
            batch = consumer.poll(5)
            if not batch:
                break
            out.extend(r.value for r in batch)
        assert sorted(out) == list(range(37))


class TestZeroCopy:
    def test_large_arrays_ride_shared_memory(self):
        broker = Broker()
        broker.create_topic("frames", partitions=1, share_ndarrays=True)
        frame = np.arange(64 * 1024, dtype=np.float32)  # 256 KiB
        broker.produce("frames", frame)
        record = broker.consumer("g", ["frames"]).poll(1)[0]
        np.testing.assert_array_equal(record.value, frame)
        assert not record.value.flags.writeable     # zero-copy view
        assert broker.shm_bytes_staged() >= frame.nbytes

    def test_two_groups_share_one_staging(self):
        broker = Broker()
        broker.create_topic("frames", partitions=1, share_ndarrays=True)
        frame = np.ones((512, 512), dtype=np.float64)
        broker.produce("frames", frame)
        a = broker.consumer("ga", ["frames"]).poll(1)[0]
        b = broker.consumer("gb", ["frames"]).poll(1)[0]
        # both groups read the same shared segment, staged exactly once
        assert a.value.base is not None and b.value.base is not None
        assert broker.shm_bytes_staged() == frame.nbytes

    def test_small_payloads_skip_staging(self):
        broker = Broker()
        broker.create_topic("frames", partitions=1, share_ndarrays=True)
        small = np.arange(8)
        broker.produce("frames", small)
        record = broker.consumer("g", ["frames"]).poll(1)[0]
        np.testing.assert_array_equal(record.value, small)
        assert broker.shm_bytes_staged() == 0

    def test_produce_hands_back_the_producers_values(self):
        broker = Broker()
        broker.create_topic("frames", partitions=2, share_ndarrays=True)
        large = np.zeros(64 * 1024, dtype=np.float32)
        assert broker.produce("frames", large).value is large
        values = [np.ones(64 * 1024, dtype=np.float32), np.arange(8),
                  np.full(64 * 1024, 2.0, dtype=np.float32)]
        batch = broker.produce_batch("frames", values)
        assert all(got is sent for got, sent in zip(batch.values, values))
        assert broker.tracked_segments() == 3
        polled = broker.consumer("g", ["frames"]).poll_batch(10).values
        assert sorted(float(value.sum()) for value in polled) \
            == sorted(float(value.sum()) for value in [large, *values])
        assert not any(value.flags.writeable for value in polled
                       if value.nbytes >= broker.shm_min_bytes)
        broker.close()

    def test_produce_of_small_frames_is_not_a_per_frame_walk(self):
        """Python calls per frame in one keyed 256-frame produce_batch.

        One is the caller's ``key_fn``; a per-frame staging walk or
        partition lookup would add one or more each.
        """
        broker = Broker()
        broker.create_topic("frames", partitions=4, share_ndarrays=True,
                            max_partition_records=4096)
        frames = list(np.zeros((256, 1, 16, 16), dtype=np.float32))
        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count_calls)
        try:
            broker.produce_batch("frames", frames, key_fn=lambda _: "cam-0")
        finally:
            sys.setprofile(None)
        assert calls / len(frames) <= 3
        assert broker.shm_bytes_staged() == 0

    def test_eviction_unlinks_segments(self):
        broker = Broker()
        broker.create_topic("frames", partitions=1, share_ndarrays=True,
                            retention_max_records=1)
        for _ in range(3):
            broker.produce("frames", np.zeros(64 * 1024, dtype=np.float32))
        # only the retained record's segment is still tracked
        assert broker.tracked_segments() == 1
        broker.close()
        assert broker.tracked_segments() == 0


class TestTimestamps:
    def test_wall_mode_uses_logical_ticks(self):
        broker = make_broker(partitions=1)
        stamps = [broker.produce("events", i).timestamp for i in range(5)]
        assert stamps == [float(i) for i in range(5)]  # deterministic ticks

    def test_sim_mode_uses_sim_clock(self):
        clock = FakeClock(3.5)
        with using_runtime(Runtime(seed=0)) as runtime:
            with runtime.sim_clock(clock):
                broker = Broker()
                broker.create_topic("events", partitions=1)
                first = broker.produce("events", "a")
                clock.now = 7.25
                second = broker.produce("events", "b")
        assert first.timestamp == 3.5
        assert second.timestamp == 7.25

    def test_same_seed_runs_stamp_identically(self):
        def stamps():
            with using_runtime(Runtime(seed=0)):
                broker = make_broker(partitions=2)
                return [broker.produce("events", i).timestamp
                        for i in range(6)]

        assert stamps() == stamps()
