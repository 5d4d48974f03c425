"""Tests for gang-network analysis and multimodal triangulation (Sec. IV-B)."""

import numpy as np
import pytest

from repro.apps.social import (
    MultimodalTriangulation,
    OpioidAnalytics,
    SocialNetworkAnalysis,
)
from repro.data import GangNetworkGenerator, LawEnforcementFeed, TweetGenerator


@pytest.fixture(scope="module")
def paper_network():
    return SocialNetworkAnalysis.paper_scale(seed=0)


class TestNetworkAnalysis:
    def test_paper_scale_statistics(self, paper_network):
        sizes = paper_network.mean_field_sizes(sample=60, seed=1)
        assert sizes["first_degree"] == pytest.approx(14.0, rel=0.15)
        assert 120 < sizes["second_degree"] < 320  # the paper's ~200

    def test_field_size_report(self, paper_network):
        member = sorted(paper_network.graph.vertices)[0]
        report = paper_network.field_size_report(member)
        assert report.person == member
        assert report.second_degree >= report.first_degree

    def test_key_players_ranked(self, paper_network):
        top = paper_network.key_players(top=5)
        assert len(top) == 5
        ranks = [rank for _, rank in top]
        assert ranks == sorted(ranks, reverse=True)

    def test_from_incident_records(self):
        feed = LawEnforcementFeed(seed=0)
        records = feed.monthly_batch(1, incidents=25)
        analysis = SocialNetworkAnalysis.from_incidents(records)
        assert analysis.graph.num_vertices > 0
        assert analysis.graph.num_edges > 0
        # every edge comes from people co-listed on a record
        expected = set()
        for record in records:
            people = list(record["suspects"]) + list(record["victims"])
            for i, a in enumerate(people):
                expected.update(tuple(sorted((a, b))) for b in people[i + 1:])
        actual = {(s, d) for s, d, _ in analysis.graph.edges}
        assert actual <= expected

    def test_empty_network_field_sizes(self):
        from repro.compute.graphx import Graph
        empty = SocialNetworkAnalysis(Graph({}, []))
        sizes = empty.mean_field_sizes()
        assert sizes == {"first_degree": 0.0, "second_degree": 0.0}


class TestTriangulation:
    def build_scenario(self, seed=0):
        """A small network + tweets where exactly two associates tweeted
        incident language near the incident in time and space."""
        network = SocialNetworkAnalysis(
            GangNetworkGenerator(seed=seed).generate(
                num_groups=4, total_members=60, mean_first_degree=6))
        members = sorted(network.graph.vertices)
        anchor = members[0]
        field = sorted(network.associates(anchor, 2))
        assert len(field) >= 4
        tweeters = TweetGenerator(num_users=60, seed=seed)
        # rename generator users to network members so ids align
        tweeters.users = members
        incident_location, incident_time = (0.4, 0.6), 12.0
        tweets = tweeters.chatter(400)
        guilty = field[:2]
        tweets += tweeters.incident_burst(
            guilty, incident_location, incident_time,
            geo_spread=0.01, time_spread=0.2)
        # an associate tweeting incident words far away (should be filtered)
        tweets += tweeters.incident_burst(
            [field[2]], (0.9, 0.1), incident_time, geo_spread=0.01)
        # an associate tweeting incident words nearby but hours later
        tweets += tweeters.incident_burst(
            [field[3]], incident_location, incident_time + 8.0,
            geo_spread=0.01, time_spread=0.1)
        return network, anchor, tweets, incident_location, incident_time, guilty

    def test_narrowing_pipeline(self):
        (network, anchor, tweets, location, time,
         guilty) = self.build_scenario()
        triangulation = MultimodalTriangulation(network)
        report = triangulation.investigate(anchor, location, time, tweets,
                                           geo_radius=0.08, time_window=2.0)
        assert set(guilty) <= report.persons_of_interest
        assert len(report.persons_of_interest) < report.field_size
        assert report.narrowing_factor > 2

    def test_stage_counts_monotone(self):
        network, anchor, tweets, location, time, _ = self.build_scenario(1)
        report = MultimodalTriangulation(network).investigate(
            anchor, location, time, tweets)
        counts = [count for _, count in report.stages()]
        assert counts == sorted(counts, reverse=True)

    def test_geo_filter_excludes_distant_tweeter(self):
        (network, anchor, tweets, location, time,
         guilty) = self.build_scenario(2)
        report = MultimodalTriangulation(network).investigate(
            anchor, location, time, tweets, geo_radius=0.08)
        assert report.after_geo_filter <= report.after_text_filter

    def test_time_filter_excludes_late_tweeter(self):
        (network, anchor, tweets, location, time,
         guilty) = self.build_scenario(3)
        report = MultimodalTriangulation(network).investigate(
            anchor, location, time, tweets, time_window=2.0)
        assert report.after_time_filter <= report.after_geo_filter

    def test_report_without_hits(self):
        network = SocialNetworkAnalysis(
            GangNetworkGenerator(seed=9).generate(
                num_groups=3, total_members=30, mean_first_degree=4))
        anchor = sorted(network.graph.vertices)[0]
        report = MultimodalTriangulation(network).investigate(
            anchor, (0.5, 0.5), 12.0, tweets=[])
        assert report.persons_of_interest == set()
        assert report.with_tweets == 0


class TestOpioid:
    def test_overdoses_follow_district_profile(self):
        analytics = OpioidAnalytics(seed=0)
        overdoses = analytics.synthetic_overdoses(days=90)
        counts = analytics.district_counts(overdoses)
        assert counts[4] > counts[5]

    def test_report_correlations_positive(self):
        report = OpioidAnalytics(seed=0).report(days=90)
        assert report["overdose_vs_crime"] > 0.5
        assert -1.0 <= report["overdose_vs_911"] <= 1.0

    def test_correlation_validates(self):
        with pytest.raises(ValueError):
            OpioidAnalytics.correlation({1: 2}, {1: 3})

    def test_correlation_constant_profile_is_zero(self):
        assert OpioidAnalytics.correlation(
            {1: 5, 2: 5}, {1: 1, 2: 2}) == 0.0
