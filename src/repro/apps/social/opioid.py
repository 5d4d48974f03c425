"""Opioid-epidemic analytics sketch — the paper's Sec. V future work.

Correlates per-district signals the paper plans to combine (overdose
locations, substance-related crime arrests, 911 calls) to surface districts
where the signals co-move.  Implemented as an extension over the synthetic
open-city data.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

import numpy as np

from repro.runtime.core import get_runtime

from repro.data.city import DISTRICT_RATES, OpenCityData


class OpioidAnalytics:
    """Multi-source district-level correlation analysis."""

    def __init__(self, seed: int = 0):
        self._rng = get_runtime().rng.np_child("apps.social.opioid", seed)
        self._ids = itertools.count(1)

    def synthetic_overdoses(self, days: int) -> List[Dict]:
        """Overdose events whose district profile follows crime intensity
        (the hypothesis the paper wants to test against real data): a
        district's daily rate is its crime multiplier."""
        records = []
        for day in range(days):
            for district, multiplier in DISTRICT_RATES.items():
                count = self._rng.poisson(multiplier)
                for _ in range(count):
                    records.append({
                        "overdose_id": next(self._ids),
                        "district": district,
                        "day": day,
                        "fatal": bool(self._rng.random() < 0.1),
                    })
        return records

    @staticmethod
    def district_counts(records: Sequence[Dict]) -> Dict[int, int]:
        counts: Dict[int, int] = {d: 0 for d in DISTRICT_RATES}
        for record in records:
            counts[record["district"]] += 1
        return counts

    @staticmethod
    def correlation(counts_a: Dict[int, int], counts_b: Dict[int, int]
                    ) -> float:
        """Pearson correlation of two per-district count profiles."""
        districts = sorted(set(counts_a) & set(counts_b))
        if len(districts) < 2:
            raise ValueError("need at least two shared districts")
        a = np.array([counts_a[d] for d in districts], dtype=float)
        b = np.array([counts_b[d] for d in districts], dtype=float)
        if a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    def report(self, days: int = 60) -> Dict[str, float]:
        """Correlate overdoses with crime and 911 volume per district."""
        city = OpenCityData(seed=0)
        crimes = city.crime_incidents(days)
        calls = city.emergency_calls(days)
        overdoses = self.synthetic_overdoses(days)
        overdose_counts = self.district_counts(overdoses)
        crime_counts = self.district_counts(crimes)
        call_counts = self.district_counts(calls)
        return {
            "overdose_vs_crime": self.correlation(overdose_counts, crime_counts),
            "overdose_vs_911": self.correlation(overdose_counts, call_counts),
            "total_overdoses": float(len(overdoses)),
        }
