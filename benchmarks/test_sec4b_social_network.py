"""E9 — Sec. IV-B text: gang-network statistics and triangulation.

Regenerates the quantitative claims embedded in the text: 67 groups, 982
members, ~14 first-degree associates on average, a second-degree field of
the order of 200 ("prohibitively large"), and the multimodal narrowing
that shrinks it to a small persons-of-interest set.  Baseline: the
no-triangulation investigation that must review the whole field.  The
incident-built network reads only the monthly law-enforcement transfers
the 90-day retention rule has not purged.
"""

import numpy as np
import pytest

from benchmarks.helpers import print_table
from repro.apps.social import MultimodalTriangulation, SocialNetworkAnalysis
from repro.data import LawEnforcementFeed, SecureStore, TweetGenerator


def test_sec4b_network_statistics(benchmark):
    analysis = SocialNetworkAnalysis.paper_scale(seed=0)

    def measure():
        return analysis.mean_field_sizes(sample=100, seed=1)

    sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    graph = analysis.graph
    groups = {attrs["group"] for attrs in graph.vertices.values()}
    rows = [
        {"statistic": "groups & gangs", "measured": len(groups),
         "paper": 67},
        {"statistic": "members", "measured": graph.num_vertices,
         "paper": 982},
        {"statistic": "mean 1st-degree", "measured": sizes["first_degree"],
         "paper": 14},
        {"statistic": "mean 2nd-degree field",
         "measured": sizes["second_degree"], "paper": "~200"},
    ]
    print_table("Sec. IV-B — gang network statistics", rows,
                ["statistic", "measured", "paper"])

    assert len(groups) == 67
    assert graph.num_vertices == 982
    assert abs(sizes["first_degree"] - 14.0) < 1.5
    assert 120 < sizes["second_degree"] < 320


def test_sec4b_triangulation_narrowing(benchmark):
    analysis = SocialNetworkAnalysis.paper_scale(seed=0)
    members = sorted(analysis.graph.vertices)
    anchor = members[0]
    tweeters = TweetGenerator(num_users=len(members), seed=2)
    tweeters.users = members
    incident_location, incident_time = (0.4, 0.6), 21.0
    tweets = tweeters.chatter(4000)
    field = sorted(analysis.associates(anchor, 2))
    present = field[:3]
    tweets += tweeters.incident_burst(present, incident_location,
                                      incident_time, geo_spread=0.01,
                                      time_spread=0.3)
    triangulation = MultimodalTriangulation(analysis)

    def investigate():
        return triangulation.investigate(
            anchor, incident_location, incident_time, tweets,
            geo_radius=0.08, time_window=2.0)

    report = benchmark.pedantic(investigate, rounds=1, iterations=1)
    rows = [{"stage": stage, "people": count}
            for stage, count in report.stages()]
    print_table("Sec. IV-B — triangulation narrowing", rows,
                ["stage", "people"])
    print(f"\n  baseline (no triangulation): review all "
          f"{report.field_size} field members")
    print(f"  with triangulation: review "
          f"{len(report.persons_of_interest)} persons of interest "
          f"({report.narrowing_factor:.0f}x narrowing)")

    # Shape: the field is prohibitively large; triangulation shrinks it by
    # a large factor while keeping the truly present associates.
    assert report.field_size > 100
    assert set(present) <= report.persons_of_interest
    assert report.narrowing_factor > 10
    counts = [count for _, count in report.stages()]
    assert counts == sorted(counts, reverse=True)


def test_sec4b_network_from_retained_monthly_transfers():
    # Sec. II-A-4: agencies upload one file a month; files older than 90
    # days are purged, so the co-offending network can only be built from
    # the months still on the secure server.
    feed = LawEnforcementFeed(seed=0)
    store = SecureStore(retention_days=90)
    months = {month: feed.monthly_batch(month, incidents=30)
              for month in range(1, 5)}
    for month, records in months.items():
        store.upload(f"month-{month}", records, day=30 * (month - 1))
    purged = store.purge(current_day=91)

    readable = {}
    for month in months:
        try:
            readable[month] = store.read(f"month-{month}", authorized=True)
        except KeyError:
            readable[month] = None
    retained = [r for records in readable.values() if records
                for r in records]
    network = SocialNetworkAnalysis.from_incidents(retained)
    rows = [{"month": month, "upload_day": 30 * (month - 1),
             "records": len(months[month]),
             "readable_day_91": readable[month] is not None}
            for month in months]
    print_table("Sec. IV-B — co-offending network from retained transfers",
                rows, ["month", "upload_day", "records", "readable_day_91"])
    print(f"  network: {network.graph.num_vertices} people, "
          f"{network.graph.num_edges} links from "
          f"{len(retained)} retained incidents")

    # Day 91: only the day-0 upload is past the 90-day window.
    assert purged == 1
    assert readable[1] is None
    assert all(readable[month] == months[month] for month in (2, 3, 4))
    with pytest.raises(PermissionError):
        store.read("month-2")
    # The network is exactly the retained months' co-listing pairs: a pair
    # seen only in the purged month is gone with it.
    def co_listed(records):
        pairs = set()
        for record in records:
            people = list(record["suspects"]) + list(record["victims"])
            pairs.update(tuple(sorted((a, b)))
                         for i, a in enumerate(people) for b in people[i + 1:])
        return pairs

    links = {(s, d) for s, d, _ in network.graph.edges}
    assert links == co_listed(retained)
    assert co_listed(months[1]) - links  # the purge removed real links
