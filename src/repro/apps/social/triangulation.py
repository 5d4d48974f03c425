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

import numpy as np

from repro.apps.social.network import SocialNetworkAnalysis
from repro.compute.mllib import tokenize
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

    def __init__(self, analysis: SocialNetworkAnalysis,
                 keywords: Sequence[str] = INCIDENT_KEYWORDS):
        self.analysis = analysis
        self.keywords = [k.lower() for k in keywords]
        self._keyword_set = set(self.keywords)

    def _text_matches(self, tweet: Tweet) -> bool:
        return bool(self._keyword_set & set(tokenize(tweet.text)))

    def investigate(self, anchor: str, incident_location: Tuple[float, float],
                    incident_time: float, tweets: Sequence[Tweet],
                    geo_radius: float = 0.1, time_window: float = 2.0,
                    degree: int = 2) -> TriangulationReport:
        """Run the full narrowing pipeline around one incident.

        ``anchor`` is the victim or suspect whose associate field seeds the
        investigation; the three filters then apply in sequence.
        """
        field_members = self.analysis.associates(anchor, degree)
        by_user: Dict[str, List[Tweet]] = {}
        for tweet in tweets:
            if tweet.user_id in field_members:
                by_user.setdefault(tweet.user_id, []).append(tweet)

        with_tweets = set(by_user)
        text_hits = {user for user, user_tweets in by_user.items()
                     if any(self._text_matches(t) for t in user_tweets)}
        geo_hits = set()
        for user in text_hits:
            for tweet in by_user[user]:
                if not self._text_matches(tweet):
                    continue
                distance = np.hypot(tweet.location[0] - incident_location[0],
                                    tweet.location[1] - incident_location[1])
                if distance <= geo_radius:
                    geo_hits.add(user)
                    break
        time_hits = set()
        for user in geo_hits:
            for tweet in by_user[user]:
                if (self._text_matches(tweet)
                        and abs(tweet.time - incident_time) <= time_window):
                    time_hits.add(user)
                    break
        return TriangulationReport(
            anchor=anchor,
            field_size=len(field_members),
            with_tweets=len(with_tweets),
            after_text_filter=len(text_hits),
            after_geo_filter=len(geo_hits),
            after_time_filter=len(time_hits),
            persons_of_interest=time_hits)
