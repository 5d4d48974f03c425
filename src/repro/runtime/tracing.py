"""Span-tree tracing over a pluggable clock.

A :class:`Tracer` is constructed with a clock callable returning
``(now, kind)`` where ``kind`` is ``"sim"`` while a DES
:class:`~repro.cluster.sim.Environment` is bound to the owning runtime and
``"wall"`` otherwise.  The *same* ``tracer.span(...)`` call therefore
records virtual-clock timestamps inside a simulation and wall-clock
timestamps outside it, with no change at the call site.

Spans form a *tree*: every span carries a ``span_id`` (assigned from a
per-tracer counter the moment the span starts) and a ``parent_id`` — the
id of the span that was innermost on the current-span stack when it
opened (``None`` at the root).  ``with tracer.span("outer"): with
tracer.span("inner"): ...`` therefore records ``inner.parent_id ==
outer.span_id`` with no extra plumbing, and a dump can be re-assembled
into the request tree (see :meth:`Tracer.span_tree`).

Ids are small integers drawn in start order, so two identically-seeded
runs assign identical ids and ``dump()`` stays byte-stable under
``deterministic_dump`` (see ``repro.runtime.parallel``).

Spans survive generator suspension: a ``with tracer.span(...)`` block
inside a DES process stays open across ``yield env.timeout(...)`` and its
duration covers the simulated wait — exactly how the fog pipeline
measures per-stage queueing plus service time.

The current-span stack lives in a :class:`contextvars.ContextVar`, so it
is per execution context: each asyncio task starts from a copy of its
creator's stack, and two interleaved requests on one event loop build
two separate trees.  Within one context the stack tracks *lexical*
nesting (the innermost open ``with`` block), which for interleaved DES
processes — generators sharing a context — is the opening order, not
per-process ancestry.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

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


#: a finished span as stored: one flat tuple of atoms, (name, start,
#: clock, end, span_id, parent_id, key1, value1, key2, value2, ...).
#: CPython untracks such a tuple at the first collection that examines
#: it; a nested labels tuple would keep its row tracked one round longer
_SpanRow = Tuple[Any, ...]


def _materialize(row: _SpanRow) -> Span:
    return Span(row[0], dict(zip(row[6::2], row[7::2])), *row[1:6])


class Tracer:
    """Records finished spans in completion order, linked into a tree.

    The store keeps the last :data:`SPAN_RING_CAPACITY` spans: recording
    into a full store evicts the oldest span, and every read (``spans``,
    ``span_tree``, ``total_duration``, ``dump``) covers the retained
    window.  A finished span is kept as one flat tuple of atoms, which
    the garbage collector untracks, so a full ring does not lengthen
    every full collection; reads materialize :class:`Span` objects from
    the rows.
    """

    def __init__(self, clock: Callable[[], Tuple[float, str]]):
        self._clock = clock
        self._spans: Deque[_SpanRow] = deque(maxlen=SPAN_RING_CAPACITY)
        self._next_id = 0
        # this context's open spans, innermost last; a tuple, so a task
        # that copied the context never sees its creator's later changes
        self._open: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro.runtime.tracing.open", default=())

    @contextmanager
    def span(self, name: str, **labels) -> Iterator[Span]:
        now, kind = self._clock()
        stack = self._open.get()
        record = Span(name=name,
                      labels={k: str(v) for k, v in labels.items()},
                      start=now, clock=kind, span_id=self._next_id,
                      parent_id=stack[-1].span_id if stack else None)
        self._next_id += 1
        self._open.set(stack + (record,))
        try:
            yield record
        finally:
            record.end = self._clock()[0]
            # Tolerate out-of-order closes (interleaved DES generators):
            # remove this span wherever it sits, not just at the top.
            stack = self._open.get()
            self._open.set(stack[:-1] if stack and stack[-1] is record
                           else tuple(s for s in stack if s is not record))
            self._spans.append(
                (record.name, record.start, record.clock, record.end,
                 record.span_id, record.parent_id,
                 *chain.from_iterable(record.labels.items())))

    def sampler(self, name: str, every: int = 1) -> SpanSampler:
        """A :class:`SpanSampler` recording every ``every``-th span.

        The fast path for per-record loops: the sampled-out calls touch
        neither the clock nor the id counter, so wrapping a hot loop in
        ``sampler.span()`` costs one integer increment per skipped item.
        """
        return SpanSampler(self, name, every)

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return [_materialize(row) for row in self._spans
                if name is None or row[0] == name]

    def children_of(self, span: Span) -> List[Span]:
        """Finished spans whose ``parent_id`` is this span's id."""
        if span.span_id is None:
            return []
        return [_materialize(row) for row in self._spans
                if row[5] == span.span_id]

    def span_tree(self) -> List[Dict]:
        """Finished spans as a nested forest (roots in completion order).

        Each node is the span's :meth:`~Span.to_dict` plus a ``children``
        list; spans whose parent is still open, was never recorded or
        has been evicted from the store surface as roots.
        """
        nodes = [dict(span.to_dict(), children=[]) for span in self.spans()]
        by_id = {node["span_id"]: node for node in nodes}
        forest: List[Dict] = []
        for node in nodes:
            parent = by_id.get(node["parent_id"]) \
                if node["parent_id"] is not None else None
            if parent is None:
                forest.append(node)
            else:
                parent["children"].append(node)
        return forest

    def total_duration(self, name: str, **labels) -> float:
        """Summed duration of finished spans matching name and labels."""
        wanted = {k: str(v) for k, v in labels.items()}
        return sum(span.duration for span in self.spans(name)
                   if all(span.labels.get(k) == v for k, v in wanted.items()))

    def dump(self) -> List[Dict]:
        return [span.to_dict() for span in self.spans()]
