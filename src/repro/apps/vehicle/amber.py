"""AMBER-Alert vehicle search over indexed annotations (Sec. IV-A-1).

The paper motivates vehicle classification with "tracking cars that are
involved in criminal activities (e.g., tracking cars described in AMBER
Alerts)".  Once the detection pipeline has indexed per-frame annotations
(camera, time, make/model label, confidence) into the document store, an
alert becomes a query: find sightings matching the described vehicle,
order them in time, and hand investigators a cross-camera track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Sighting:
    """One matching detection."""

    camera_id: str
    time: float
    label: str
    score: float


@dataclass
class Track:
    """Time-ordered sightings of the alerted vehicle."""

    query: str
    sightings: List[Sighting] = field(default_factory=list)

    @property
    def cameras(self) -> List[str]:
        seen: List[str] = []
        for sighting in self.sightings:
            if sighting.camera_id not in seen:
                seen.append(sighting.camera_id)
        return seen

    @property
    def first_seen(self) -> Optional[float]:
        return self.sightings[0].time if self.sightings else None

    @property
    def last_seen(self) -> Optional[float]:
        return self.sightings[-1].time if self.sightings else None


class AmberAlertSearch:
    """Query indexed vehicle annotations for an alerted vehicle."""

    def __init__(self, collection, min_score: float = 0.3):
        if not 0.0 <= min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1]: {min_score}")
        self.collection = collection
        self.min_score = min_score

    def index_sighting(self, camera_id: str, time: float, label: str,
                       score: float) -> None:
        """What the detection pipeline writes per confident detection."""
        self.collection.insert({
            "camera_id": camera_id,
            "time": time,
            "label": label,
            "score": score,
        })

    def search(self, description: str,
               time_range: Optional[Tuple[float, float]] = None) -> Track:
        """Find sightings whose label contains the description.

        ``description`` matches case-insensitively against the indexed
        make/model label ("Ford Sedan" matches "2014 Ford Sedan").
        """
        query: Dict = {
            "label": {"$regex": _escape_for_regex(description)},
            "score": {"$gte": self.min_score},
        }
        if time_range is not None:
            start, stop = time_range
            if stop < start:
                raise ValueError(f"empty time range: {time_range}")
            query["$and"] = [{"time": {"$gte": start}},
                             {"time": {"$lte": stop}}]
        documents = self.collection.find(query, sort="time")
        track = Track(query=description)
        for document in documents:
            track.sightings.append(Sighting(
                camera_id=document["camera_id"],
                time=document["time"],
                label=document["label"],
                score=document["score"]))
        return track

    def cameras_to_stake_out(self, description: str
                             ) -> List[Tuple[str, int]]:
        """The three cameras with the most sightings — where to watch next."""
        track = self.search(description)
        counts: Dict[str, int] = {}
        for sighting in track.sightings:
            counts[sighting.camera_id] = counts.get(sighting.camera_id, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[:3]


def _escape_for_regex(text: str) -> str:
    import re
    return "(?i)" + re.escape(text)
