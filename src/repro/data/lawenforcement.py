"""Law-enforcement data transfers with retention (Sec. II-A-4 substitute).

The paper receives monthly individual-level violent-crime files on a secure
server; uploads are deleted after 90 days.  :class:`LawEnforcementFeed`
generates those monthly batches (synthetic persons, no real PII) and
:class:`SecureStore` enforces the authorization and retention rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.runtime.core import get_runtime

VIOLENT_OFFENSES = ("homicide", "robbery", "aggravated assault",
                    "illegal use of a weapon")

_AGENCIES = ("BRPD", "EBRSO", "LSUPD")


class LawEnforcementFeed:
    """Monthly batches of individual-level incident records."""

    def __init__(self, seed: int = 0):
        self._rng = get_runtime().rng.np_child("data.lawenforcement", seed)
        self._ids = itertools.count(1)
        self.persons = [f"p{i:05d}" for i in range(300)]

    def monthly_batch(self, month: int, incidents: int = 40) -> List[Dict]:
        """One month's transfer: incident rows with involved persons."""
        rng = self._rng
        records = []
        for _ in range(incidents):
            involved = rng.choice(len(self.persons),
                                  size=int(rng.integers(2, 5)), replace=False)
            suspects = [self.persons[i] for i in involved[:len(involved) // 2 + 1]]
            victims = [self.persons[i] for i in involved[len(involved) // 2 + 1:]]
            records.append({
                "report_number": next(self._ids),
                "month": month,
                "offense": VIOLENT_OFFENSES[int(rng.integers(len(VIOLENT_OFFENSES)))],
                "offense_code": f"LA-{int(rng.integers(100, 999))}",
                "district": int(rng.integers(1, 7)),
                "address_block": f"{int(rng.integers(1, 99)) * 100} block",
                "day": int(rng.integers(1, 29)),
                "hour": float(rng.uniform(0, 24)),
                "agency": str(rng.choice(_AGENCIES)),
                "suspects": suspects,
                "victims": victims,
            })
        return records


@dataclass
class _Upload:
    day_uploaded: int
    records: List[Dict] = field(default_factory=list)


class SecureStore:
    """Authorized-access store with a hard retention window.

    Mirrors the paper's arrangement: agencies upload on day 1 of each month
    via a unique URL; files are deleted after 90 days.
    """

    def __init__(self, retention_days: int = 90):
        if retention_days < 1:
            raise ValueError(f"retention_days must be >= 1: {retention_days}")
        self.retention_days = retention_days
        self._uploads: Dict[str, _Upload] = {}
        self.purged_uploads = 0

    def upload(self, upload_id: str, records: Sequence[Dict],
               day: int) -> None:
        if upload_id in self._uploads:
            raise ValueError(f"duplicate upload id: {upload_id}")
        self._uploads[upload_id] = _Upload(day_uploaded=day,
                                           records=list(records))

    def read(self, upload_id: str, authorized: bool = False) -> List[Dict]:
        if not authorized:
            raise PermissionError(
                "law-enforcement data requires authorized access")
        upload = self._uploads.get(upload_id)
        if upload is None:
            raise KeyError(f"no such upload (possibly purged): {upload_id}")
        return list(upload.records)

    def purge(self, current_day: int) -> int:
        """Delete uploads older than the retention window; returns count."""
        expired = [uid for uid, up in self._uploads.items()
                   if current_day - up.day_uploaded > self.retention_days]
        for upload_id in expired:
            del self._uploads[upload_id]
        self.purged_uploads += len(expired)
        return len(expired)

    def upload_ids(self) -> List[str]:
        return sorted(self._uploads)
