"""Flume → broker integration: backpressure from a bounded topic
propagates back through the Flume channel to the source, and nothing is
lost or duplicated while it waits.
"""

import pytest

from repro.streaming import (
    BackpressureError,
    Broker,
    BrokerError,
    FlumeAgent,
    FunctionSource,
    SinkError,
    broker_sink,
)


def make_broker(**topic_kwargs):
    broker = Broker()
    broker.create_topic("events", partitions=2, **topic_kwargs)
    return broker


class TestBrokerSink:
    def test_batches_land_on_topic(self):
        broker = make_broker()
        agent = FlumeAgent(FunctionSource(range(20)),
                           broker_sink(broker, "events"), batch_size=6)
        metrics = agent.run()
        assert metrics.events_delivered == 20
        values = [r.value for r in broker.consumer("g", "events").drain()]
        assert sorted(values) == list(range(20))

    def test_backpressure_stall_becomes_sink_error(self):
        broker = make_broker(max_partition_records=1)
        sink = broker_sink(broker, "events")
        sink(["fits-a"])                  # one per partition still fits
        sink(["fits-b"])
        with pytest.raises(SinkError):
            sink(["overflow"])

    def test_oversized_batch_fails_the_agent_at_once(self):
        # a transaction larger than the partition bound can never be
        # admitted, so the agent must not roll it back and retry forever
        broker = Broker()
        broker.create_topic("t", partitions=1, max_partition_records=2)
        agent = FlumeAgent(FunctionSource(list(range(5))),
                           broker_sink(broker, "t"), batch_size=5)
        with pytest.raises(BrokerError, match="more than its bound 2"):
            agent.run()
        assert agent.metrics.events_delivered == 0

    def test_backpressure_propagates_to_channel_and_source(self):
        """A full topic rolls batches back into the channel; when the
        channel fills, the source stops being pumped — no data is lost,
        it just waits upstream."""
        broker = make_broker(max_partition_records=2)
        source = FunctionSource(range(50))
        agent = FlumeAgent(source, broker_sink(broker, "events"),
                           batch_size=4)
        metrics = agent.run(max_cycles=30)
        # the bounded topic admitted at most its capacity...
        assert metrics.events_delivered <= 4
        # ...and everything else is retained: in the channel or unpumped
        assert metrics.events_delivered + len(agent.channel) \
            + (50 - source.emitted) == 50

    def test_stalled_pipeline_resumes_after_consumers_commit(self):
        broker = make_broker(max_partition_records=3)
        agent = FlumeAgent(FunctionSource(range(24)),
                           broker_sink(broker, "events"), batch_size=3)
        consumer = broker.consumer("g", "events")   # auto-commit
        received = []
        for _ in range(40):
            agent.pump_source(agent.batch_size)
            agent.pump_sink()
            received.extend(r.value for r in consumer.poll(6))
            if len(received) == 24:
                break
        assert sorted(received) == list(range(24))    # no loss, no dupes
