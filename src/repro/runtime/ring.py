"""A fixed-capacity append-only store that remembers how much it has seen.

The span and event stores share one retention rule: keep the newest
``capacity`` entries, drop the oldest first, and keep counting.  The
monotone :attr:`Ring.total` is what lets a reader ask for "everything
appended since I last looked" after the length has stopped growing.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Generic, Iterator, List, TypeVar

T = TypeVar("T")


class Ring(Generic[T]):
    """The newest ``capacity`` items, in append order."""

    __slots__ = ("_items", "total")

    def __init__(self, capacity: int):
        self._items: Deque[T] = deque(maxlen=capacity)
        #: items appended since the last :meth:`clear`, evicted ones included
        self.total = 0

    def append(self, item: T) -> None:
        self._items.append(item)
        self.total += 1

    def since(self, mark: int) -> List[T]:
        """Retained items appended after :attr:`total` read ``mark``."""
        retained = len(self._items)
        fresh = min(self.total - mark, retained)
        return list(islice(self._items, retained - fresh, None))

    def clear(self) -> None:
        self._items.clear()
        self.total = 0

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)
