"""Tests for social/gang data, open city data, and the secure store."""

import numpy as np
import pytest

from repro.data import (
    GangNetworkGenerator,
    LawEnforcementFeed,
    OpenCityData,
    SecureStore,
    TweetGenerator,
    WazeGenerator,
)
from repro.compute.mllib import tokenize
from repro.data.city import DISTRICT_RATES
from repro.data.collector import TweetCollector
from repro.data.social import MEAN_FIRST_DEGREE, NUM_GROUPS, TOTAL_MEMBERS


class TestGangNetwork:
    def test_paper_statistics(self):
        # Sec. IV-B: 67 groups, 982 members, ~14 first-degree associates.
        graph = GangNetworkGenerator(seed=0).generate()
        assert graph.num_vertices == 982
        groups = {attrs["group"] for attrs in graph.vertices.values()}
        assert len(groups) == 67
        assert graph.mean_degree() == pytest.approx(14.0, rel=0.05)

    def test_second_degree_field_scale(self):
        # Paper: second-degree extension yields a field of ~200 associates.
        graph = GangNetworkGenerator(seed=0).generate()
        rng = np.random.default_rng(1)
        members = list(graph.vertices)
        fields = [len(graph.n_degree_neighborhood(members[i], 2))
                  for i in rng.choice(len(members), 50, replace=False)]
        mean_field = float(np.mean(fields))
        assert 120 < mean_field < 320  # same order as the paper's ~200

    def test_within_group_ties_far_above_random(self):
        graph = GangNetworkGenerator(seed=0).generate()
        same = sum(1 for s, d, _ in graph.edges
                   if graph.vertices[s]["group"] == graph.vertices[d]["group"])
        # Random pairing would land within-group ~1.5% of the time
        # (67 groups of ~15); the generator keeps ~40% within.
        assert same / graph.num_edges > 0.3

    def test_deterministic(self):
        a = GangNetworkGenerator(seed=5).generate()
        b = GangNetworkGenerator(seed=5).generate()
        assert a.edges == b.edges

    def test_small_network_parameters(self):
        graph = GangNetworkGenerator(seed=0).generate()
        assert graph.num_vertices == TOTAL_MEMBERS
        assert graph.mean_degree() == pytest.approx(MEAN_FIRST_DEGREE,
                                                    rel=0.1)
        groups = {attrs["group"] for attrs in graph.vertices.values()}
        assert groups == set(range(NUM_GROUPS))


class TestTweets:
    def test_chatter_volume_and_fields(self):
        tweets = TweetGenerator(seed=0).chatter(50)
        assert len(tweets) == 50
        first = tweets[0]
        assert 0 <= first.location[0] <= 1
        assert first.text

    def test_unique_ids(self):
        generator = TweetGenerator(seed=0)
        tweets = generator.chatter(30) + generator.chatter(30)
        ids = [t.tweet_id for t in tweets]
        assert len(set(ids)) == 60

    def test_incident_burst_near_location_and_time(self):
        generator = TweetGenerator(seed=0)
        burst = generator.incident_burst(
            ["user0001", "user0002"], location=(0.5, 0.5), time=12.0)
        assert len(burst) == 2
        for tweet in burst:
            assert abs(tweet.location[0] - 0.5) < 0.15
            assert abs(tweet.time - 12.0) < 3.0

    def test_incident_text_contains_incident_terms(self):
        generator = TweetGenerator(seed=0)
        burst = generator.incident_burst(["user0001"], (0.5, 0.5), 12.0)
        collector = TweetCollector()
        collector.add_keywords("watch", ["shots", "gunshot", "police",
                                         "sirens", "fight", "robbery",
                                         "fired", "heard", "scared", "avenue"])
        hits = collector.collect(burst)
        assert hits  # incident tweets match the watch keywords

    def test_keyword_filter(self):
        generator = TweetGenerator(seed=1)
        tweets = generator.chatter(200)
        collector = TweetCollector()
        collector.add_keywords("music", ["music"])
        music = collector.collect(tweets)
        assert all("music" in tokenize(doc["text"]) for doc in music)
        assert 0 < len(music) < len(tweets)

    def test_geo_filter(self):
        generator = TweetGenerator(seed=2)
        tweets = generator.chatter(200)
        collector = TweetCollector()
        collector.add_location("center", (0.5, 0.5), 0.2)
        near = collector.collect(tweets)
        assert 0 < len(near) < len(tweets)
        for doc in near:
            assert np.hypot(doc["location"][0] - 0.5,
                            doc["location"][1] - 0.5) <= 0.2

    def test_as_document(self):
        tweet = TweetGenerator(seed=0).chatter(1)[0]
        doc = tweet.as_document()
        assert doc["tweet_id"] == tweet.tweet_id
        assert doc["location"] == tweet.location
        assert isinstance(doc["location"], tuple)  # a copy of doc is by value

    def test_validates(self):
        with pytest.raises(ValueError):
            TweetGenerator(num_users=0)


class TestWaze:
    def test_report_fields(self):
        reports = WazeGenerator(seed=0).reports(20)
        assert len(reports) == 20
        kinds = {r["type"] for r in reports}
        assert kinds <= set(WazeGenerator.REPORT_TYPES)

    def test_jams_are_system_generated(self):
        reports = WazeGenerator(seed=0).reports(200)
        for report in reports:
            if report["type"] == "JAM":
                assert report["source"] == "system"
            else:
                assert report["source"] == "user"


class TestOpenCityData:
    def test_crime_rates_follow_district_profile(self):
        records = OpenCityData(seed=0).crime_incidents(days=60)
        counts = {d: 0 for d in DISTRICT_RATES}
        for record in records:
            counts[record["district"]] += 1
        # district 4 (rate 2.4) must out-crime district 5 (rate 0.5)
        assert counts[4] > 2 * counts[5]

    def test_crime_locations_near_district_centers(self):
        records = OpenCityData(seed=0).crime_incidents(days=30)
        d4 = [r["location"] for r in records if r["district"] == 4]
        center = np.mean(d4, axis=0)
        np.testing.assert_allclose(center, [0.3, 0.3], atol=0.05)

    def test_emergency_calls(self):
        calls = OpenCityData(seed=0).emergency_calls(days=5)
        assert calls
        assert all(r["kind"] == "911" for r in calls)
        assert all(1 <= r["priority"] <= 3 for r in calls)

    def test_traffic_and_service(self):
        traffic = OpenCityData(seed=0).traffic_incidents(days=5)
        assert traffic
        assert all(r["kind"] == "traffic" for r in traffic)

    def test_validates(self):
        with pytest.raises(ValueError):
            OpenCityData().crime_incidents(days=0)


class TestLawEnforcement:
    def test_monthly_batch_schema(self):
        records = LawEnforcementFeed(seed=0).monthly_batch(month=1)
        assert len(records) == 40
        record = records[0]
        assert record["offense"] in ("homicide", "robbery",
                                     "aggravated assault",
                                     "illegal use of a weapon")
        assert record["suspects"]
        assert record["month"] == 1

    def test_unique_report_numbers_across_months(self):
        feed = LawEnforcementFeed(seed=0)
        january = feed.monthly_batch(1)
        february = feed.monthly_batch(2)
        numbers = [r["report_number"] for r in january + february]
        assert len(set(numbers)) == len(numbers)


class TestSecureStore:
    def test_authorized_access_only(self):
        store = SecureStore()
        store.upload("2018-01", [{"a": 1}], day=0)
        with pytest.raises(PermissionError):
            store.read("2018-01")
        assert store.read("2018-01", authorized=True) == [{"a": 1}]

    def test_retention_purges_old_uploads(self):
        store = SecureStore(retention_days=90)
        store.upload("jan", [{"a": 1}], day=0)
        store.upload("apr", [{"a": 2}], day=89)
        assert store.purge(current_day=91) == 1
        assert store.upload_ids() == ["apr"]
        with pytest.raises(KeyError):
            store.read("jan", authorized=True)

    def test_purge_boundary_exact_retention_kept(self):
        store = SecureStore(retention_days=90)
        store.upload("x", [], day=0)
        assert store.purge(current_day=90) == 0  # exactly 90 days: kept
        assert store.purge(current_day=91) == 1

    def test_duplicate_upload_rejected(self):
        store = SecureStore()
        store.upload("u", [], day=0)
        with pytest.raises(ValueError):
            store.upload("u", [], day=1)

    def test_validates(self):
        with pytest.raises(ValueError):
            SecureStore(retention_days=0)
