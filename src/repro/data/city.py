"""Baton Rouge open-data substitute (Sec. II-A-3).

Generates the record families the paper's analyses read: public safety
(crime incidents, 911 calls) and transportation (traffic incidents).
District-level crime rates are heterogeneous so hotspot analyses have
structure to find.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

from repro.runtime.core import get_runtime

CRIME_TYPES = ("homicide", "robbery", "aggravated assault", "burglary",
               "theft", "illegal weapon use")

#: Relative crime intensity per district (district id -> rate multiplier).
DISTRICT_RATES = {1: 1.8, 2: 1.2, 3: 0.7, 4: 2.4, 5: 0.5, 6: 1.0}

#: Rough district centers on the unit city square.
DISTRICT_CENTERS = {
    1: (0.2, 0.7), 2: (0.5, 0.8), 3: (0.8, 0.7),
    4: (0.3, 0.3), 5: (0.7, 0.2), 6: (0.5, 0.5),
}


class OpenCityData:
    """Deterministic generator for the open-data record families."""

    def __init__(self, seed: int = 0):
        self._rng = get_runtime().rng.np_child("data.city", seed)
        self._ids = itertools.count(1)

    def _district_location(self, district: int) -> List[float]:
        cx, cy = DISTRICT_CENTERS[district]
        return [float(np.clip(cx + self._rng.normal(0, 0.08), 0, 1)),
                float(np.clip(cy + self._rng.normal(0, 0.08), 0, 1))]

    def crime_incidents(self, days: int, base_daily_rate: float = 3.0
                        ) -> List[Dict]:
        """Poisson per-district daily incidents over ``days`` days."""
        if days < 1:
            raise ValueError(f"days must be >= 1: {days}")
        rng = self._rng
        records = []
        for day in range(days):
            for district, multiplier in DISTRICT_RATES.items():
                count = rng.poisson(base_daily_rate * multiplier)
                for _ in range(count):
                    records.append({
                        "incident_id": next(self._ids),
                        "kind": "crime",
                        "offense": CRIME_TYPES[int(rng.integers(len(CRIME_TYPES)))],
                        "district": district,
                        "location": self._district_location(district),
                        "day": day,
                        "hour": float(rng.uniform(0, 24)),
                    })
        return records

    def emergency_calls(self, days: int, daily_rate: float = 20.0
                        ) -> List[Dict]:
        """911 call records (time, district, priority)."""
        rng = self._rng
        records = []
        for day in range(days):
            for _ in range(rng.poisson(daily_rate)):
                district = int(rng.choice(list(DISTRICT_RATES)))
                records.append({
                    "call_id": next(self._ids),
                    "kind": "911",
                    "district": district,
                    "location": self._district_location(district),
                    "day": day,
                    "hour": float(rng.uniform(0, 24)),
                    "priority": int(rng.integers(1, 4)),
                })
        return records

    def traffic_incidents(self, days: int, daily_rate: float = 8.0
                          ) -> List[Dict]:
        rng = self._rng
        records = []
        for day in range(days):
            for _ in range(rng.poisson(daily_rate)):
                records.append({
                    "incident_id": next(self._ids),
                    "kind": "traffic",
                    "severity": int(rng.integers(1, 5)),
                    "location": [float(rng.random()), float(rng.random())],
                    "day": day,
                    "hour": float(rng.uniform(0, 24)),
                    "lanes_blocked": int(rng.integers(0, 3)),
                })
        return records
