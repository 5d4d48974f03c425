"""Span-tree tracing over a pluggable clock.

A :class:`Tracer` is constructed with a clock callable returning
``(now, kind)`` where ``kind`` is ``"sim"`` while a DES
:class:`~repro.cluster.sim.Environment` is bound to the owning runtime and
``"wall"`` otherwise.  The *same* ``tracer.span(...)`` call therefore
records virtual-clock timestamps inside a simulation and wall-clock
timestamps outside it, with no change at the call site.

Spans form a *tree*: every span carries a ``span_id`` (assigned from a
per-tracer counter the moment the span starts) and a ``parent_id`` — the
id of the span that was innermost on the tracer's current-span stack when
it opened (``None`` at the root).  ``with tracer.span("outer"): with
tracer.span("inner"): ...`` therefore records ``inner.parent_id ==
outer.span_id`` with no extra plumbing, and a dump can be re-assembled
into the request tree (see :meth:`Tracer.span_tree`).

Ids are small integers drawn in start order, so two identically-seeded
runs assign identical ids and ``dump()`` stays byte-stable under
``deterministic_dump`` (see ``repro.runtime.parallel``).

Spans survive generator suspension: a ``with tracer.span(...)`` block
inside a DES process stays open across ``yield env.timeout(...)`` and its
duration covers the simulated wait — exactly how the fog pipeline
measures per-stage queueing plus service time.  Note the current-span
stack tracks *lexical* nesting (the innermost open ``with`` block), which
for interleaved DES processes is the opening order, not per-process
ancestry.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

#: finished spans a tracer retains; older ones are dropped first, so a
#: long-lived process holds a fixed window instead of its whole history
SPAN_RING_CAPACITY = 65_536


@dataclass
class Span:
    """One traced operation; ``end`` is filled when the block exits."""

    name: str
    labels: Dict[str, str]
    start: float
    clock: str
    end: Optional[float] = None
    span_id: Optional[int] = None
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} still open")
        return self.end - self.start

    def annotate(self, **labels) -> "Span":
        """Attach labels discovered mid-span (e.g. the chosen machine)."""
        self.labels.update({k: str(v) for k, v in labels.items()})
        return self

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "clock": self.clock,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


class _NoopSpan:
    """Placeholder yielded by sampled-out span contexts.

    A single shared instance: entering the context allocates nothing,
    ``annotate`` accepts and discards labels, and nothing is recorded.
    """

    __slots__ = ()

    def annotate(self, **labels) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class SpanSampler:
    """Count-based span sampling for per-item hot loops.

    ``sampler.span(...)`` opens a real tracer span on the first call and
    every ``every``-th call after it; the calls in between return a
    shared no-op context whose span object swallows ``annotate``.  The
    decision depends only on the call sequence — never on a clock or an
    RNG stream — so two identically-ordered runs record identical span
    dumps, and the skipped calls consume no span ids.
    """

    __slots__ = ("_tracer", "name", "every", "_calls")

    def __init__(self, tracer: "Tracer", name: str, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1: {every}")
        self._tracer = tracer
        self.name = name
        self.every = every
        self._calls = 0

    def span(self, **labels):
        """A context manager: a real span when sampled, a no-op otherwise."""
        n = self._calls
        self._calls = n + 1
        if n % self.every == 0:
            return self._tracer.span(self.name, **labels)
        return nullcontext(_NOOP_SPAN)

    def reset(self) -> None:
        self._calls = 0


class Tracer:
    """Records finished spans in completion order, linked into a tree.

    The store keeps the last :data:`SPAN_RING_CAPACITY` spans: recording
    into a full store evicts the oldest span, and every read (``spans``,
    ``span_tree``, ``total_duration``, ``dump``) covers the retained
    window.
    """

    def __init__(self, clock: Callable[[], Tuple[float, str]]):
        self._clock = clock
        self._spans: Deque[Span] = deque(maxlen=SPAN_RING_CAPACITY)
        self._next_id = 0
        self._open_stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **labels) -> Iterator[Span]:
        now, kind = self._clock()
        parent = self._open_stack[-1] if self._open_stack else None
        record = Span(name=name,
                      labels={k: str(v) for k, v in labels.items()},
                      start=now, clock=kind, span_id=self._next_id,
                      parent_id=None if parent is None else parent.span_id)
        self._next_id += 1
        self._open_stack.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()[0]
            # Tolerate out-of-order closes (interleaved DES generators):
            # remove this span wherever it sits, not just at the top.
            try:
                self._open_stack.remove(record)
            except ValueError:  # pragma: no cover - double-close guard
                pass
            self._spans.append(record)

    def sampler(self, name: str, every: int = 1) -> SpanSampler:
        """A :class:`SpanSampler` recording every ``every``-th span.

        The fast path for per-record loops: the sampled-out calls touch
        neither the clock nor the id counter, so wrapping a hot loop in
        ``sampler.span()`` costs one integer increment per skipped item.
        """
        return SpanSampler(self, name, every)

    def spans(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        """Finished spans whose ``parent_id`` is this span's id."""
        if span.span_id is None:
            return []
        return [s for s in self._spans if s.parent_id == span.span_id]

    def span_tree(self) -> List[Dict]:
        """Finished spans as a nested forest (roots in completion order).

        Each node is the span's :meth:`~Span.to_dict` plus a ``children``
        list; spans whose parent is still open, was never recorded or
        has been evicted from the store surface as roots.
        """
        nodes = {s.span_id: dict(s.to_dict(), children=[])
                 for s in self._spans}
        forest: List[Dict] = []
        for span in self._spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) \
                if span.parent_id is not None else None
            if parent is None:
                forest.append(node)
            else:
                parent["children"].append(node)
        return forest

    def total_duration(self, name: str, **labels) -> float:
        """Summed duration of finished spans matching name and labels."""
        wanted = {k: str(v) for k, v in labels.items()}
        return sum(s.duration for s in self._spans
                   if s.name == name
                   and all(s.labels.get(k) == v for k, v in wanted.items()))

    def dump(self) -> List[Dict]:
        return [span.to_dict() for span in self._spans]
