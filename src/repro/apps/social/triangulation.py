"""Multimodal geo-temporal triangulation of persons of interest (Sec. IV-B).

The paper's narrowing procedure: start from the (prohibitively large)
second-degree associate field of a victim/suspect, then intersect with
tweet evidence — textual features (incident vocabulary), time window, and
location radius around the violent incident.  The result is a "much smaller
persons-of-interest field" for detailed investigation; the benchmark
measures the narrowing factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.apps.social.network import SocialNetworkAnalysis
from repro.data.collector import GeoSubscription, KeywordSubscription
from repro.data.social import Tweet

#: Vocabulary investigators watch for (matches the generator's incident pool).
INCIDENT_KEYWORDS = ("shots", "fired", "gunshot", "police", "sirens",
                     "fight", "robbery", "scared")


@dataclass
class TriangulationReport:
    """Stage-by-stage narrowing of the persons-of-interest field."""

    anchor: str
    field_size: int
    with_tweets: int
    after_text_filter: int
    after_geo_filter: int
    after_time_filter: int
    persons_of_interest: Set[str] = field(default_factory=set)

    @property
    def narrowing_factor(self) -> float:
        if not self.persons_of_interest:
            return float(self.field_size) if self.field_size else 0.0
        return self.field_size / len(self.persons_of_interest)

    def stages(self) -> List[Tuple[str, int]]:
        return [
            ("second_degree_field", self.field_size),
            ("tweeted_at_all", self.with_tweets),
            ("incident_text", self.after_text_filter),
            ("near_location", self.after_geo_filter),
            ("in_time_window", self.after_time_filter),
        ]


class MultimodalTriangulation:
    """Intersects the associate field with tweet text/geo/time evidence."""

    def __init__(self, analysis: SocialNetworkAnalysis):
        self.analysis = analysis
        self.keywords = [k.lower() for k in INCIDENT_KEYWORDS]
        # the collector's own match rules (Sec. II-A-2): whole tokens, and
        # a closed circle around the incident
        self._text = KeywordSubscription("incident-text",
                                         tuple(self.keywords))

    def investigate(self, anchor: str, incident_location: Tuple[float, float],
                    incident_time: float, tweets: Sequence[Tweet],
                    geo_radius: float = 0.1, time_window: float = 2.0
                    ) -> TriangulationReport:
        """Run the full narrowing pipeline around one incident.

        ``anchor`` is the victim or suspect whose second-degree associate
        field seeds the investigation; the three filters then apply in
        sequence.
        """
        field_members = self.analysis.associates(anchor, 2)
        by_user: Dict[str, List[Tweet]] = {}
        for tweet in tweets:
            if tweet.user_id in field_members:
                by_user.setdefault(tweet.user_id, []).append(tweet)

        with_tweets = set(by_user)
        near = GeoSubscription("incident-location", tuple(incident_location),
                               geo_radius)
        text_hits = {user for user, user_tweets in by_user.items()
                     if any(map(self._text.matches, user_tweets))}
        geo_hits = {user for user in text_hits
                    if any(self._text.matches(t) and near.matches(t)
                           for t in by_user[user])}
        time_hits = {user for user in geo_hits
                     if any(self._text.matches(t)
                            and abs(t.time - incident_time) <= time_window
                            for t in by_user[user])}
        return TriangulationReport(
            anchor=anchor,
            field_size=len(field_members),
            with_tweets=len(with_tweets),
            after_text_filter=len(text_hits),
            after_geo_filter=len(geo_hits),
            after_time_filter=len(time_hits),
            persons_of_interest=time_hits)
