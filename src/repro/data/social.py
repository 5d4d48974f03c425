"""Social-network data: gang networks, tweets, and Waze reports.

Substitutes for the paper's Twitter API / Waze CCP feeds and the law-
enforcement gang intelligence of Sec. IV-B.  The gang network generator is
calibrated to the statistics the paper reports for Baton Rouge:

    "of the 67 groups and gangs and their 982 members ... each gang member
     has a network size of 14 first-degree associates on average ...
     [second-degree extension] may yield a field of interest which contains
     approximately 200 second-degree associates."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.runtime.core import get_runtime

from repro.compute.graphx import Graph

#: Keyword pools for synthetic tweet text.
_CHATTER = ["game", "food", "school", "music", "weather", "mall", "party",
            "movie", "work", "gym"]
_INCIDENT_TERMS = ["shots", "fired", "heard", "gunshot", "police", "sirens",
                   "fight", "robbery", "scared", "avenue"]

#: share of gang ties inside one group; the rest cross groups
WITHIN_GROUP_FRACTION = 0.4

#: the Baton Rouge network the paper reports: 67 groups, 982 members and
#: 14 first-degree associates per member on average
NUM_GROUPS, TOTAL_MEMBERS, MEAN_FIRST_DEGREE = 67, 982, 14.0


class GangNetworkGenerator:
    """Co-offending network with the paper's Sec. IV-B shape."""

    def __init__(self, seed: int = 0):
        self._rng = get_runtime().rng.np_child("data.social.gangs", seed)

    def generate(self) -> Graph:
        """Build the gang graph: :data:`TOTAL_MEMBERS` members in
        :data:`NUM_GROUPS` groups.

        Members are split across groups (sizes drawn to sum exactly).
        :data:`WITHIN_GROUP_FRACTION` of ties stay inside a group; the rest
        are cross-group co-offending links ("a relationship connection
        through a shared co-offender", Sec. IV-B).  That split keeps the
        realized mean degree at :data:`MEAN_FIRST_DEGREE` and the mean
        second-degree field near the ~200 the paper reports: dense
        clustering would make first-degree neighborhoods overlap and
        shrink the field, so ties must be substantially cross-group.
        """
        num_groups, total_members = NUM_GROUPS, TOTAL_MEMBERS
        rng = self._rng
        # Group sizes: multinomial around the mean, min 1 each.
        base = total_members // num_groups
        sizes = np.full(num_groups, base)
        for index in rng.choice(num_groups, total_members - base * num_groups,
                                replace=True):
            sizes[index] += 1
        vertices: Dict[str, Dict] = {}
        members_by_group: List[List[str]] = []
        counter = itertools.count()
        for group in range(num_groups):
            members = []
            for _ in range(int(sizes[group])):
                member_id = f"m{next(counter):04d}"
                vertices[member_id] = {"group": group}
                members.append(member_id)
            members_by_group.append(members)

        target_edges = int(total_members * MEAN_FIRST_DEGREE / 2)
        edges = set()
        within_target = int(target_edges * WITHIN_GROUP_FRACTION)
        attempts = 0
        while len(edges) < within_target and attempts < target_edges * 50:
            attempts += 1
            group = int(rng.integers(num_groups))
            members = members_by_group[group]
            if len(members) < 2:
                continue
            a, b = rng.choice(len(members), 2, replace=False)
            edge = tuple(sorted((members[a], members[b])))
            edges.add(edge)
        all_members = [m for group in members_by_group for m in group]
        while len(edges) < target_edges:
            a, b = rng.choice(len(all_members), 2, replace=False)
            edge = tuple(sorted((all_members[a], all_members[b])))
            edges.add(edge)
        return Graph(vertices, sorted(edges))


@dataclass(frozen=True)
class Tweet:
    """One synthetic tweet."""

    tweet_id: int
    user_id: str
    text: str
    location: Tuple[float, float]
    time: float

    def as_document(self) -> Dict:
        """The tweet as a record; its ``location`` is the tweet's own tuple,
        so a shallow copy of the record is a copy by value."""
        return {
            "tweet_id": self.tweet_id,
            "user_id": self.user_id,
            "text": self.text,
            "location": self.location,
            "time": self.time,
        }


class TweetGenerator:
    """Tweet streams (the Twitter API role); filtering them by keyword and
    location is :class:`repro.data.collector.TweetCollector`'s job.

    Ordinary users emit chatter uniformly over the city square [0, 1]^2.
    ``incident_burst`` produces tweets near a given place/time from a given
    user set, mixing incident vocabulary in — the signal the Sec. IV-B
    multimodal triangulation looks for.
    """

    def __init__(self, num_users: int = 100, seed: int = 0):
        if num_users < 1:
            raise ValueError(f"num_users must be >= 1: {num_users}")
        self._rng = get_runtime().rng.np_child("data.social.tweets", seed)
        self.users = [f"user{i:04d}" for i in range(num_users)]
        self._ids = itertools.count(1)

    def _text(self, incident: bool) -> str:
        rng = self._rng
        pool = _INCIDENT_TERMS if incident else _CHATTER
        words = [pool[int(rng.integers(len(pool)))] for _ in range(5)]
        if incident:
            words.insert(0, "just")
        return " ".join(words)

    def chatter(self, count: int) -> List[Tweet]:
        """Background tweets: random users, places and times of day."""
        rng = self._rng
        tweets = []
        for _ in range(count):
            tweets.append(Tweet(
                tweet_id=next(self._ids),
                user_id=self.users[int(rng.integers(len(self.users)))],
                text=self._text(incident=False),
                location=(float(rng.random()), float(rng.random())),
                time=float(rng.uniform(0.0, 24.0))))
        return tweets

    def incident_burst(self, user_ids: Sequence[str],
                       location: Tuple[float, float], time: float,
                       geo_spread: float = 0.02, time_spread: float = 0.5
                       ) -> List[Tweet]:
        """Incident-related tweets from specific users near (place, time)."""
        rng = self._rng
        tweets = []
        for user_id in user_ids:
            tweets.append(Tweet(
                tweet_id=next(self._ids),
                user_id=user_id,
                text=self._text(incident=True),
                location=(float(location[0] + rng.normal(0, geo_spread)),
                          float(location[1] + rng.normal(0, geo_spread))),
                time=float(time + rng.normal(0, time_spread))))
        return tweets


class WazeGenerator:
    """Crowd-sourced traffic reports (the Waze CCP role)."""

    REPORT_TYPES = ("JAM", "ACCIDENT", "HAZARD", "ROAD_CLOSED")

    def __init__(self, seed: int = 0):
        self._rng = get_runtime().rng.np_child("data.social.waze", seed)
        self._ids = itertools.count(1)

    def reports(self, count: int) -> List[Dict]:
        """System-generated jams and user-reported incidents, at random
        times of day."""
        rng = self._rng
        out = []
        for _ in range(count):
            kind = self.REPORT_TYPES[int(rng.integers(len(self.REPORT_TYPES)))]
            out.append({
                "report_id": next(self._ids),
                "type": kind,
                "location": (float(rng.random()), float(rng.random())),
                "time": float(rng.uniform(0.0, 24.0)),
                "severity": int(rng.integers(1, 6)),
                "source": "system" if kind == "JAM" else "user",
            })
        return out
