"""A structured event log: discrete happenings with a timestamp.

Where metrics answer "how many / how long", the event log answers "what
happened, in what order" — datanode crashes, fog-node recoveries,
memstore flushes.  Events share the runtime's clock, so inside a DES run
they carry virtual timestamps and replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.ring import Ring

#: events a log retains; older ones are dropped first
EVENT_RING_CAPACITY = 65_536


@dataclass(frozen=True)
class EventRecord:
    """One structured event."""

    kind: str
    time: float
    clock: str
    data: Dict

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "clock": self.clock,
            "data": dict(sorted(self.data.items())),
        }


class EventLog:
    """Append-only ring of the last :data:`EVENT_RING_CAPACITY` events.

    Reads cover the retained window; :attr:`recorded_total` keeps
    counting past evictions.
    """

    def __init__(self, clock: Callable[[], Tuple[float, str]]):
        self._clock = clock
        self._records: Ring[EventRecord] = Ring(EVENT_RING_CAPACITY)

    def emit(self, kind: str, **data) -> EventRecord:
        now, clock_kind = self._clock()
        return self.record(EventRecord(kind=kind, time=now, clock=clock_kind,
                                       data=data))

    def record(self, record: EventRecord) -> EventRecord:
        """Append a pre-built record (parallel-worker delta merge)."""
        self._records.append(record)
        return record

    @property
    def recorded_total(self) -> int:
        """Events recorded since the last reset, evicted ones included."""
        return self._records.total

    def records_since(self, mark: int) -> List[EventRecord]:
        """Retained events recorded after ``recorded_total`` read ``mark``."""
        return self._records.since(mark)

    def records(self, kind: Optional[str] = None) -> List[EventRecord]:
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.records(kind))

    def reset(self) -> None:
        self._records.clear()

    def dump(self) -> List[Dict]:
        return [record.to_dict() for record in self._records]
