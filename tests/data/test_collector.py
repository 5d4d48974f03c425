"""Tests for the keyword/geo tweet collector."""

import pytest

from repro.data import TweetCollector, TweetGenerator
from repro.data.social import Tweet
from repro.streaming import Broker


def tweet(text="hello world", location=(0.5, 0.5), user="u1", tid=1):
    return Tweet(tweet_id=tid, user_id=user, text=text,
                 location=location, time=12.0)


class TestSubscriptions:
    def test_add_and_list(self):
        collector = TweetCollector()
        collector.add_keywords("guns", ["gunshot", "shots"])
        collector.add_location("downtown", (0.5, 0.5), 0.1)
        assert collector.subscription_names() == ["downtown", "guns"]

    def test_duplicate_rejected(self):
        collector = TweetCollector()
        collector.add_keywords("a", ["x"])
        with pytest.raises(ValueError):
            collector.add_location("a", (0, 0), 0.1)

    def test_remove(self):
        collector = TweetCollector()
        collector.add_keywords("a", ["x"])
        collector.remove("a")
        assert collector.subscription_names() == []
        with pytest.raises(KeyError):
            collector.remove("a")

    def test_validates(self):
        collector = TweetCollector()
        with pytest.raises(ValueError):
            collector.add_keywords("empty", [])
        with pytest.raises(ValueError):
            collector.add_location("zero", (0, 0), 0.0)


class TestMatching:
    def test_keyword_matches_whole_tokens(self):
        collector = TweetCollector()
        collector.add_keywords("guns", ["shots"])
        assert collector.matching_subscriptions(
            tweet("heard shots nearby")) == ["guns"]
        # substring inside another word must not match
        assert collector.matching_subscriptions(
            tweet("gunshots is one token")) == []

    def test_keyword_case_insensitive(self):
        collector = TweetCollector()
        collector.add_keywords("guns", ["SHOTS"])
        assert collector.matching_subscriptions(tweet("Shots fired"))

    def test_geo_circle(self):
        collector = TweetCollector()
        collector.add_location("downtown", (0.5, 0.5), 0.1)
        assert collector.matching_subscriptions(tweet(location=(0.55, 0.5)))
        assert not collector.matching_subscriptions(tweet(location=(0.9, 0.9)))

    def test_multiple_matches_reported(self):
        collector = TweetCollector()
        collector.add_keywords("guns", ["shots"])
        collector.add_location("downtown", (0.5, 0.5), 0.2)
        matched = collector.matching_subscriptions(
            tweet("shots", location=(0.5, 0.5)))
        assert matched == ["downtown", "guns"]


class TestCollection:
    def test_requires_subscriptions(self):
        with pytest.raises(RuntimeError):
            TweetCollector().collect([tweet()])

    def test_filters_and_tags(self):
        collector = TweetCollector()
        collector.add_keywords("guns", ["shots"])
        accepted = collector.collect([
            tweet("shots fired", tid=1),
            tweet("nice weather", tid=2),
        ])
        assert len(accepted) == 1
        assert accepted[0]["tweet_id"] == 1
        assert accepted[0]["matched"] == ["guns"]
        assert collector.accepted == 1
        assert collector.rejected == 1

    def test_publishes_to_bus(self):
        bus = Broker()
        collector = TweetCollector(bus=bus, topic="watch")
        collector.add_keywords("guns", ["shots"])
        collector.collect([tweet("shots", user="u7")])
        records = bus.consumer("g", "watch").drain()
        assert len(records) == 1
        assert records[0].key == "u7"
        assert records[0].value["matched"] == ["guns"]

    def test_realistic_stream_filtering(self):
        generator = TweetGenerator(num_users=50, seed=0)
        tweets = generator.chatter(300)
        tweets += generator.incident_burst(["user0001"], (0.5, 0.5), 12.0)
        collector = TweetCollector()
        collector.add_keywords("watch", ["gunshot", "shots", "police",
                                         "robbery", "sirens", "fired"])
        accepted = collector.collect(tweets)
        assert 0 < len(accepted) < len(tweets)
        # the incident tweet is among the accepted
        assert any("just" in doc["text"] for doc in accepted)
