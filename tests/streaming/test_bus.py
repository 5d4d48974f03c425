"""The broker's basic surface: topics, produce, consume, round-robin."""

import pytest

from repro.streaming import Broker, BrokerError


def make_bus(partitions=4):
    bus = Broker()
    bus.create_topic("tweets", partitions=partitions)
    return bus


class TestTopics:
    def test_create_and_list(self):
        bus = make_bus()
        bus.create_topic("waze", partitions=2)
        assert bus.topic_names() == ["tweets", "waze"]
        assert bus.partition_count("waze") == 2

    def test_duplicate_topic_rejected(self):
        bus = make_bus()
        with pytest.raises(BrokerError):
            bus.create_topic("tweets")

    def test_invalid_partitions(self):
        bus = Broker()
        with pytest.raises(BrokerError):
            bus.create_topic("bad", partitions=0)

    def test_unknown_topic(self):
        with pytest.raises(BrokerError):
            make_bus().produce("ghost", {})


class TestProduce:
    def test_offsets_increase_within_partition(self):
        bus = make_bus(partitions=1)
        first = bus.produce("tweets", "a")
        second = bus.produce("tweets", "b")
        assert (first.offset, second.offset) == (0, 1)

    def test_same_key_same_partition(self):
        bus = make_bus()
        partitions = {bus.produce("tweets", i, key="user-42").partition
                      for i in range(10)}
        assert len(partitions) == 1

    def test_different_keys_spread(self):
        bus = make_bus()
        partitions = {bus.produce("tweets", i, key=f"user-{i}").partition
                      for i in range(50)}
        assert len(partitions) > 1

    def test_unkeyed_records_balance(self):
        bus = make_bus(partitions=4)
        for i in range(40):
            bus.produce("tweets", i)
        topic = bus._topic("tweets")
        sizes = [len(p) for p in topic.partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_topic_size(self):
        bus = make_bus()
        for i in range(7):
            bus.produce("tweets", i)
        assert bus.topic_size("tweets") == 7


class TestConsume:
    def test_poll_returns_produced_records(self):
        bus = make_bus()
        for i in range(5):
            bus.produce("tweets", f"msg-{i}")
        consumer = bus.consumer("analytics", ["tweets"])
        values = {r.value for r in consumer.drain()}
        assert values == {f"msg-{i}" for i in range(5)}

    def test_poll_advances_offsets(self):
        bus = make_bus(partitions=1)
        for i in range(5):
            bus.produce("tweets", i)
        consumer = bus.consumer("g", ["tweets"])
        first = consumer.poll(3)
        second = consumer.poll(3)
        assert [r.value for r in first] == [0, 1, 2]
        assert [r.value for r in second] == [3, 4]

    def test_per_key_order_preserved(self):
        bus = make_bus()
        for i in range(20):
            bus.produce("tweets", i, key="cam-7")
        consumer = bus.consumer("g", ["tweets"])
        values = [r.value for r in consumer.drain()]
        assert values == list(range(20))

    def test_independent_groups_see_all_records(self):
        bus = make_bus()
        for i in range(10):
            bus.produce("tweets", i)
        a = bus.consumer("group-a", ["tweets"]).drain()
        b = bus.consumer("group-b", ["tweets"]).drain()
        assert len(a) == len(b) == 10

    def test_lag_tracks_unconsumed(self):
        bus = make_bus()
        for i in range(10):
            bus.produce("tweets", i)
        assert bus.lag("g", "tweets") == 10
        consumer = bus.consumer("g", ["tweets"])
        consumer.poll(4)
        assert bus.lag("g", "tweets") == 6
        consumer.drain()
        assert bus.lag("g", "tweets") == 0

    def test_reset_group_replays(self):
        bus = make_bus()
        for i in range(5):
            bus.produce("tweets", i)
        consumer = bus.consumer("g", ["tweets"])
        consumer.drain()
        bus.reset_group("g", "tweets")
        assert len(consumer.drain()) == 5

    def test_multi_topic_consumer(self):
        bus = make_bus()
        bus.create_topic("waze")
        bus.produce("tweets", "t")
        bus.produce("waze", "w")
        consumer = bus.consumer("g", ["tweets", "waze"])
        assert {r.value for r in consumer.drain()} == {"t", "w"}

    def test_consumer_validates(self):
        bus = make_bus()
        with pytest.raises(BrokerError):
            bus.consumer("g", [])
        with pytest.raises(BrokerError):
            bus.consumer("g", ["ghost"])
        with pytest.raises(BrokerError):
            bus.consumer("g", ["tweets"]).poll(0)

    def test_records_carry_metadata(self):
        bus = make_bus()
        record = bus.produce("tweets", {"text": "hi"}, key="u1")
        assert record.topic == "tweets"
        assert record.key == "u1"
        assert record.timestamp >= 0


class TestRoundRobin:
    def test_unkeyed_records_cycle_partitions_in_order(self):
        bus = make_bus(partitions=4)
        partitions = [bus.produce("tweets", i).partition for i in range(8)]
        assert partitions == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_keyed_records_do_not_advance_cursor(self):
        bus = make_bus(partitions=4)
        assert bus.produce("tweets", 0).partition == 0
        for i in range(5):
            bus.produce("tweets", i, key="user-42")
        # the keyed burst must not disturb the unkeyed rotation
        assert bus.produce("tweets", 99).partition == 1

    def test_cursor_is_per_topic(self):
        bus = make_bus(partitions=4)
        bus.create_topic("waze", partitions=4)
        assert bus.produce("tweets", "a").partition == 0
        assert bus.produce("waze", "b").partition == 0
        assert bus.produce("tweets", "c").partition == 1
