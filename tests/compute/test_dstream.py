"""Tests for micro-batch stream processing over the message bus."""

import pytest

from repro.compute import StreamingContext
from repro.streaming import Broker


def bus_with(topic, values, partitions=2):
    bus = Broker()
    bus.create_topic(topic, partitions=partitions)
    for value in values:
        bus.produce(topic, value)
    return bus


class TestStreamingContext:
    def test_validates_batch_size(self):
        with pytest.raises(ValueError):
            StreamingContext(Broker(), batch_max_records=0)

    def test_run_batch_consumes_up_to_limit(self):
        bus = bus_with("events", range(25))
        context = StreamingContext(bus, batch_max_records=10)
        context.stream("events")
        assert context.run_batch() == 10
        assert context.run_batch() == 10
        assert context.run_batch() == 5
        assert context.run_batch() == 0

    def test_run_until_idle_drains_topic(self):
        bus = bus_with("events", range(37))
        context = StreamingContext(bus, batch_max_records=10)
        seen = []
        context.stream("events").foreach_batch(seen.extend)
        assert context.run_until_idle() == 37
        assert sorted(seen) == list(range(37))

    def test_new_records_picked_up_between_batches(self):
        bus = bus_with("events", range(5))
        context = StreamingContext(bus, batch_max_records=100)
        seen = []
        context.stream("events").foreach_batch(seen.extend)
        context.run_batch()
        bus.produce("events", 99)
        context.run_batch()
        assert 99 in seen


class TestDStreamTransformations:
    def test_map_filter_chain(self):
        bus = bus_with("events", range(10))
        context = StreamingContext(bus, batch_max_records=100)
        out = []
        (context.stream("events")
         .map(lambda x: x * 2)
         .filter(lambda x: x % 4 == 0)
         .foreach_batch(out.extend))
        context.run_until_idle()
        assert sorted(out) == [0, 4, 8, 12, 16]

    def test_multiple_children_see_same_batch(self):
        bus = bus_with("events", range(6))
        context = StreamingContext(bus, batch_max_records=100)
        stream = context.stream("events")
        evens, odds = [], []
        stream.filter(lambda x: x % 2 == 0).foreach_batch(evens.extend)
        stream.filter(lambda x: x % 2 == 1).foreach_batch(odds.extend)
        context.run_until_idle()
        assert sorted(evens) == [0, 2, 4]
        assert sorted(odds) == [1, 3, 5]

    def test_two_source_chains_on_one_topic_each_see_all_of_it(self):
        bus = bus_with("events", range(40), partitions=4)
        context = StreamingContext(bus, batch_max_records=100)
        first, second = [], []
        context.stream("events").foreach_batch(first.extend)
        context.stream("events").foreach_batch(second.extend)
        assert context.run_until_idle() == 40
        assert sorted(first) == sorted(second) == list(range(40))

    def test_non_source_cannot_tick(self):
        bus = bus_with("events", [])
        context = StreamingContext(bus)
        child = context.stream("events").map(lambda x: x)
        with pytest.raises(RuntimeError):
            child._tick()


class TestWindows:
    def test_count_by_window(self):
        bus = bus_with("events", range(30))
        context = StreamingContext(bus, batch_max_records=10)
        counts = []
        context.stream("events").count_by_window(2, into=counts)
        for _ in range(3):
            context.run_batch()
        # windows: [10], [10+10], [10+10] (sliding over last 2 batches)
        assert counts == [10, 20, 20]

    def test_reduce_by_key_and_window(self):
        bus = bus_with("crimes", ["robbery", "theft", "robbery", "theft",
                                  "robbery"], partitions=1)
        context = StreamingContext(bus, batch_max_records=100)
        snapshots = []
        context.stream("crimes").reduce_by_key_and_window(
            lambda x: x, batches=3, into=snapshots)
        context.run_batch()
        assert snapshots == [{"robbery": 3, "theft": 2}]

    def test_window_validates(self):
        bus = bus_with("events", [])
        context = StreamingContext(bus)
        stream = context.stream("events")
        with pytest.raises(ValueError):
            stream.window(0)
        with pytest.raises(RuntimeError):
            stream.foreach_window(lambda w: None)

    def test_window_evicts_old_batches(self):
        bus = bus_with("events", range(40))
        context = StreamingContext(bus, batch_max_records=10)
        counts = []
        context.stream("events").count_by_window(2, into=counts)
        for _ in range(4):
            context.run_batch()
        assert counts[-1] == 20  # only the last two batches


class TestAtLeastOnce:
    def test_sink_failure_seeks_back_and_redelivers(self):
        bus = bus_with("events", range(12))
        context = StreamingContext(bus, batch_max_records=6)
        seen = []
        fail_first = {"remaining": 1}

        def sink(batch):
            if fail_first["remaining"] > 0:
                fail_first["remaining"] -= 1
                raise RuntimeError("sink outage")
            seen.extend(batch)

        context.stream("events").foreach_batch(sink)
        with pytest.raises(RuntimeError):
            context.run_batch()
        assert seen == []                       # nothing committed
        assert bus.lag("streaming", "events") == 12
        context.run_until_idle()
        assert sorted(seen) == list(range(12))  # redelivered, no loss
        assert bus.lag("streaming", "events") == 0

    def test_offsets_commit_only_after_dag_processes(self):
        bus = bus_with("events", range(10))
        context = StreamingContext(bus, batch_max_records=4)
        context.stream("events")
        context.run_batch()
        assert bus.lag("streaming", "events") == 6
        context.run_until_idle()
        assert bus.lag("streaming", "events") == 0
