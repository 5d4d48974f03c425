"""Tests for Flume-style agents: transactional channels, retry delivery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs import DistributedFileSystem
from repro.nosql import Collection
from repro.runtime import Runtime, using_runtime
from repro.streaming import (
    Broker,
    Channel,
    ChannelFullError,
    FlumeAgent,
    FunctionSource,
    SinkError,
    broker_sink,
    collection_sink,
    dfs_sink,
)


class TestFunctionSource:
    def test_iterable_source(self):
        source = FunctionSource([1, 2, 3])
        assert [source.next_event() for _ in range(4)] == [1, 2, 3, None]
        assert source.emitted == 3

    def test_callable_source(self):
        source = FunctionSource(lambda: iter("ab"))
        assert source.next_event() == "a"

    def test_bulk_read_is_short_only_when_dry(self):
        source = FunctionSource(range(5))
        assert source.next_events(3) == [0, 1, 2]
        assert source.next_events(3) == [3, 4]
        assert source.next_events(3) == []
        assert source.emitted == 5


class TestChannel:
    def test_put_take_fifo(self):
        channel = Channel()
        for i in range(5):
            channel.put(i)
        txn = channel.take_batch(3)
        assert txn.events == [0, 1, 2]
        txn.commit()
        assert len(channel) == 2

    def test_capacity_enforced(self):
        channel = Channel(capacity=2)
        channel.put(1)
        channel.put(2)
        assert channel.full
        with pytest.raises(ChannelFullError):
            channel.put(3)

    def test_put_many_is_all_or_nothing(self):
        channel = Channel(capacity=4)
        channel.put_many([1, 2, 3])
        assert channel.room == 1 and not channel.full
        with pytest.raises(ChannelFullError):
            channel.put_many([4, 5])
        assert len(channel) == 3
        channel.put_many([4])
        assert channel.full and channel.room == 0
        assert channel.take_batch(10).events == [1, 2, 3, 4]

    def test_rollback_restores_order(self):
        channel = Channel()
        for i in range(5):
            channel.put(i)
        txn = channel.take_batch(3)
        txn.rollback()
        txn2 = channel.take_batch(5)
        assert txn2.events == [0, 1, 2, 3, 4]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(), max_size=20), st.integers(-3, 3),
           st.booleans(), st.lists(st.integers(), max_size=4))
    def test_take_commits_a_prefix_and_rollback_restores_the_queue(
            self, events, offset, commit, later):
        # max_events below, equal to and above the queue length
        channel = Channel(capacity=len(events) + len(later) + 1)
        channel.put_many(events)
        max_events = max(1, len(events) + offset)
        txn = channel.take_batch(max_events)
        taken = events[:max_events]
        assert txn.events == taken
        assert list(channel._queue) == events[len(taken):]
        channel.put_many(later)  # arrivals while the batch is out
        assert txn.events == taken
        if commit:
            txn.commit()
            assert list(channel._queue) == events[len(taken):] + later
        else:
            txn.rollback()
            assert list(channel._queue) == events + later
        assert channel.room == channel.capacity - len(channel)

    def test_double_commit_rejected(self):
        channel = Channel()
        channel.put(1)
        txn = channel.take_batch(1)
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.commit()
        with pytest.raises(RuntimeError):
            txn.rollback()

    def test_validates(self):
        with pytest.raises(ValueError):
            Channel(capacity=0)
        with pytest.raises(ValueError):
            Channel().take_batch(0)


class TestFlumeAgent:
    def test_delivers_everything(self):
        received = []
        agent = FlumeAgent(FunctionSource(range(25)), received.extend,
                           batch_size=4)
        metrics = agent.run()
        assert received == list(range(25))
        assert metrics.events_delivered == 25
        assert metrics.source_exhausted

    def test_at_least_once_under_sink_failures(self):
        received = []
        failures = {"remaining": 3}

        def flaky_sink(events):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise SinkError("transient outage")
            received.extend(events)

        agent = FlumeAgent(FunctionSource(range(20)), flaky_sink, batch_size=5)
        metrics = agent.run()
        assert sorted(received) == list(range(20))
        assert metrics.batches_rolled_back == 3
        assert metrics.events_delivered == 20

    def test_order_preserved_despite_failures(self):
        received = []
        fail_next = {"flag": True}

        def alternating_sink(events):
            if fail_next["flag"]:
                fail_next["flag"] = False
                raise SinkError("blip")
            fail_next["flag"] = True
            received.extend(events)

        agent = FlumeAgent(FunctionSource(range(12)), alternating_sink,
                           batch_size=3)
        agent.run()
        assert received == list(range(12))

    def test_max_cycles_bounds_permanent_failure(self):
        def dead_sink(events):
            raise SinkError("permanently down")

        agent = FlumeAgent(FunctionSource(range(10)), dead_sink, batch_size=5)
        metrics = agent.run(max_cycles=20)
        assert metrics.events_delivered == 0
        assert len(agent.channel) > 0  # data retained, not lost

    def test_validates_batch_size(self):
        with pytest.raises(ValueError):
            FlumeAgent(FunctionSource([]), lambda e: None, batch_size=0)

    def test_pump_source_reads_against_channel_room(self):
        source = FunctionSource(range(10))
        agent = FlumeAgent(source, lambda events: None,
                           channel=Channel(capacity=6), batch_size=4)
        assert agent.pump_source(4) == 4
        assert agent.pump_source(4) == 2          # room, not batch size
        assert agent.pump_source(4) == 0          # full: source untouched
        assert source.emitted == 6 and not agent.source_exhausted
        agent.pump_sink()
        assert agent.pump_source(4) == 4          # exactly what was left
        assert not agent.source_exhausted         # no short read yet
        agent.pump_sink()
        assert agent.pump_source(4) == 0
        assert agent.source_exhausted

    def test_bound_handles_write_the_labeled_series(self):
        runtime = Runtime()
        with using_runtime(runtime):
            agent = FlumeAgent(FunctionSource(range(7)), lambda events: None,
                               batch_size=3)
            idle = FlumeAgent(FunctionSource([]), lambda events: None)
        assert agent.name != idle.name
        probe = f"agent={agent.name}"
        agent.run()
        counters = runtime.registry.dump()["counters"]
        assert counters["streaming.flume.events_received"] == {probe: 7.0}
        assert counters["streaming.flume.events_delivered"] == {probe: 7.0}
        assert counters["streaming.flume.batches_committed"] == {probe: 3.0}
        assert counters["streaming.flume.batches_rolled_back"] == {}
        assert runtime.registry.dump()["gauges"][
            "streaming.flume.channel_depth"] == {probe: 0.0}
        assert idle.metrics.events_delivered == 0


class TestSinks:
    def test_dfs_sink_writes_parts(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        agent = FlumeAgent(FunctionSource(range(10)),
                           dfs_sink(dfs, "/raw/tweets"), batch_size=4)
        agent.run()
        parts = dfs.listdir("/raw/tweets")
        assert len(parts) == 3  # 4 + 4 + 2
        assert dfs.read(parts[0]) == b"0\n1\n2\n3"

    def test_dfs_sink_custom_encoder(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        sink = dfs_sink(dfs, "/enc",
                        encode=lambda e: f"<{e}>".encode())
        agent = FlumeAgent(FunctionSource([1, 2]), sink, batch_size=2)
        agent.run()
        assert dfs.read("/enc/part-00000") == b"<1>\n<2>"

    def test_collection_sink_inserts(self):
        collection = Collection("tweets")
        events = [{"text": f"tweet {i}"} for i in range(7)]
        agent = FlumeAgent(FunctionSource(events),
                           collection_sink(collection), batch_size=3)
        agent.run()
        assert collection.count({}) == 7

    def test_broker_sink_produces_unkeyed(self):
        bus = Broker()
        bus.create_topic("tweets", partitions=4)
        events = [{"user": f"u{i % 2}", "text": str(i)} for i in range(8)]
        agent = FlumeAgent(FunctionSource(events),
                           broker_sink(bus, "tweets"), batch_size=4)
        agent.run()
        assert bus.topic_size("tweets") == 8
        # the sink produces unkeyed: round-robin over the partitions
        records = bus.consumer("g", ["tweets"]).drain()
        assert {r.key for r in records} == {None}
        assert sorted(int(r.value["text"]) for r in records) == list(range(8))
        assert bus.partition_sizes("tweets") == [2, 2, 2, 2]


class TestTransactionSemantics:
    def test_sink_failure_requeues_batch_at_channel_head(self):
        """A rolled-back batch sits at the head of the channel, in its
        original order, ahead of later arrivals."""
        def failing_sink(events):
            raise SinkError("down")

        agent = FlumeAgent(FunctionSource(range(10)), failing_sink,
                           batch_size=3)
        agent.pump_source(6)          # channel: [0..5]
        assert agent.pump_sink() == 0  # batch [0,1,2] fails, rolls back
        agent.pump_source(4)           # later arrivals behind the retry
        assert list(agent.channel._queue) == list(range(10))
        assert agent.metrics.batches_rolled_back == 1
        assert agent.metrics.events_delivered == 0

    def test_retry_delivers_exactly_once_counts(self):
        """At-least-once transport + rollback-before-commit means every
        event is delivered exactly once and the registry counters agree."""
        received = []
        failures = {"remaining": 4}

        def flaky_sink(events):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise SinkError("transient")
            received.extend(events)

        agent = FlumeAgent(FunctionSource(range(30)), flaky_sink,
                           batch_size=6)
        metrics = agent.run()
        assert received == list(range(30))          # no loss, no dupes
        assert metrics.events_received == 30
        assert metrics.events_delivered == 30
        assert metrics.batches_rolled_back == 4
        assert metrics.source_exhausted

    def test_rollback_spans_annotated(self):
        """Each delivery attempt leaves a streaming.flume.deliver span whose
        outcome label records commit vs rollback."""
        from repro.runtime import Runtime

        runtime = Runtime()
        calls = {"n": 0}

        def once_failing_sink(events):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SinkError("blip")

        with using_runtime(runtime):
            agent = FlumeAgent(FunctionSource(range(4)), once_failing_sink,
                               batch_size=4)
        agent.run()
        outcomes = [s.labels["outcome"]
                    for s in runtime.tracer.spans("streaming.flume.deliver")]
        assert outcomes == ["rolled_back", "committed"]
