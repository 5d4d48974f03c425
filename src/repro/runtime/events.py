"""A structured event log: discrete happenings with a timestamp.

Where metrics answer "how many / how long", the event log answers "what
happened, in what order" — datanode crashes, fog-node recoveries,
memstore flushes.  Events share the runtime's clock, so inside a DES run
they carry virtual timestamps and replay deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

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
    """Append-only log of the last :data:`EVENT_RING_CAPACITY` events.

    Recording into a full log evicts the oldest event; reads cover the
    retained window.
    """

    def __init__(self, clock: Callable[[], Tuple[float, str]]):
        self._clock = clock
        self._records: Deque[EventRecord] = deque(maxlen=EVENT_RING_CAPACITY)

    def emit(self, kind: str, **data) -> EventRecord:
        now, clock_kind = self._clock()
        record = EventRecord(kind=kind, time=now, clock=clock_kind, data=data)
        self._records.append(record)
        return record

    def records(self, kind: Optional[str] = None) -> List[EventRecord]:
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.records(kind))

    def dump(self) -> List[Dict]:
        return [record.to_dict() for record in self._records]
