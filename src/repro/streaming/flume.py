"""Flume-style ingestion agents: source -> channel -> sink.

An agent pumps events from a :class:`FunctionSource` through a bounded
:class:`Channel` into a sink.  The channel gives *transactional batch*
semantics: a taken batch is only removed on commit; a sink failure rolls the
batch back to the head of the channel, yielding at-least-once delivery —
the property the ingestion tests assert under injected sink failures.

:func:`broker_sink` closes the loop with :mod:`repro.streaming.broker`:
it produces each committed batch atomically onto a topic; a
:class:`~repro.streaming.broker.BackpressureError` from a bounded
partition becomes a :class:`SinkError`, so the batch rolls back into the
channel, the channel fills, and ``pump_source`` stops pulling — broker
backpressure propagates all the way to the source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Deque, Iterator, List, Optional, Sequence

from repro.runtime import get_runtime
from repro.streaming.broker import BackpressureError


class ChannelFullError(Exception):
    """Raised when putting into a full channel."""


class SinkError(Exception):
    """Raised by sinks to signal a (possibly transient) delivery failure."""


class FunctionSource:
    """Wraps an iterable or a zero-arg callable into an event source."""

    def __init__(self, events: Any):
        if callable(events):
            self._iterator: Iterator = iter(events())
        else:
            self._iterator = iter(events)
        self.emitted = 0

    def next_events(self, max_events: int) -> List[Any]:
        """Up to ``max_events`` events; fewer means the source ran dry."""
        events = list(islice(self._iterator, max_events))
        self.emitted += len(events)
        return events

    def next_event(self) -> Optional[Any]:
        """The next event, or None when exhausted."""
        events = self.next_events(1)
        return events[0] if events else None


class Channel:
    """A bounded FIFO with transactional batch take."""

    def __init__(self, capacity: int = 1000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._queue: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def room(self) -> int:
        """Events the channel can still accept."""
        return self.capacity - len(self._queue)

    @property
    def full(self) -> bool:
        return self.room <= 0

    def put(self, event: Any) -> None:
        self.put_many((event,))

    def put_many(self, events: Sequence[Any]) -> None:
        """Append ``events`` in order, all or none of them."""
        if len(events) > self.room:
            raise ChannelFullError(
                f"channel at capacity ({self.capacity})")
        self._queue.extend(events)

    def take_batch(self, max_events: int) -> "Transaction":
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1: {max_events}")
        queue = self._queue
        if max_events >= len(queue):
            events = list(queue)
            queue.clear()
        else:
            take = queue.popleft
            events = [take() for _ in range(max_events)]
        return Transaction(self, events)


class Transaction:
    """A taken batch awaiting commit or rollback."""

    def __init__(self, channel: Channel, events: List[Any]):
        self._channel = channel
        self.events = events
        self._closed = False

    def commit(self) -> None:
        if self._closed:
            raise RuntimeError("transaction already closed")
        self._closed = True

    def rollback(self) -> None:
        """Return the batch to the head of the channel, preserving order."""
        if self._closed:
            raise RuntimeError("transaction already closed")
        self._channel._queue.extendleft(reversed(self.events))
        self._closed = True


@dataclass
class AgentMetrics:
    """Point-in-time view of one agent's delivery counters.

    Since the runtime refactor this is a *snapshot computed from the
    shared metrics registry* (``streaming.flume.*`` counters labeled by
    agent), not a mutable accumulator; read it via
    :attr:`FlumeAgent.metrics`.
    """

    events_received: int = 0
    events_delivered: int = 0
    batches_committed: int = 0
    batches_rolled_back: int = 0
    source_exhausted: bool = False


class FlumeAgent:
    """Pump events source -> channel -> sink with batch transactions.

    Parameters
    ----------
    source:
        A :class:`FunctionSource` (or anything with ``next_events``).
    sink:
        Callable taking a list of events; raise :class:`SinkError` to signal
        a transient failure (the batch is rolled back and retried on the
        next pump).
    channel:
        Buffering channel; defaults to capacity 1000.
    batch_size:
        Events per sink delivery.

    Counters and spans land in the runtime installed at construction,
    labeled with the agent's generated name (``flume-agent-N``).
    """

    def __init__(self, source: FunctionSource, sink: Callable[[List[Any]], None],
                 channel: Optional[Channel] = None, batch_size: int = 10):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.source = source
        self.sink = sink
        self.channel = channel if channel is not None else Channel()
        self.batch_size = batch_size
        self.runtime = get_runtime()
        self.name = self.runtime.gensym("flume-agent")
        self._source_exhausted = False
        # Bound handles: this agent's label set is resolved once, and every
        # write lands in the series the labeled call would have hit.
        registry = self.runtime.registry
        self._received = registry.counter(
            "streaming.flume.events_received").bind(agent=self.name)
        self._delivered = registry.counter(
            "streaming.flume.events_delivered").bind(agent=self.name)
        self._committed = registry.counter(
            "streaming.flume.batches_committed").bind(agent=self.name)
        self._rolled_back = registry.counter(
            "streaming.flume.batches_rolled_back").bind(agent=self.name)
        self._depth = registry.gauge(
            "streaming.flume.channel_depth").bind(agent=self.name)

    @property
    def source_exhausted(self) -> bool:
        """Whether the source has run dry (the channel may still hold events)."""
        return self._source_exhausted

    @property
    def metrics(self) -> AgentMetrics:
        """This agent's counters, read back from the registry."""
        return AgentMetrics(
            events_received=int(self._received.value()),
            events_delivered=int(self._delivered.value()),
            batches_committed=int(self._committed.value()),
            batches_rolled_back=int(self._rolled_back.value()),
            source_exhausted=self._source_exhausted)

    def pump_source(self, max_events: int) -> int:
        """Move up to ``max_events`` from the source into the channel.

        One bulk read against the room the channel has right now; a
        short read is how the source reports it ran dry.
        """
        channel = self.channel
        wanted = min(max_events, channel.room)
        moved = 0
        if wanted > 0:
            events = self.source.next_events(wanted)
            moved = len(events)
            if moved < wanted:
                self._source_exhausted = True
            if moved:
                channel.put_many(events)
                self._received.inc(moved)
        self._depth.set(len(channel))
        return moved

    def pump_sink(self) -> int:
        """Deliver one batch from the channel to the sink.

        Returns the number of events delivered (0 on failure or empty
        channel); a failed batch is rolled back for retry.
        """
        transaction = self.channel.take_batch(self.batch_size)
        events = transaction.events
        if not events:
            transaction.commit()
            return 0
        with self.runtime.tracer.span("streaming.flume.deliver",
                                      agent=self.name) as span:
            try:
                self.sink(list(events))
            except SinkError:
                transaction.rollback()
                self._rolled_back.inc()
                span.annotate(outcome="rolled_back")
                self._depth.set(len(self.channel))
                return 0
            transaction.commit()
            span.annotate(outcome="committed")
        self._committed.inc()
        self._delivered.inc(len(events))
        self._depth.set(len(self.channel))
        return len(events)

    def run(self, max_cycles: int = 10_000) -> AgentMetrics:
        """Pump until the source is exhausted and the channel is drained.

        ``max_cycles`` bounds the loop so a permanently failing sink cannot
        hang the caller.
        """
        for _ in range(max_cycles):
            self.pump_source(self.batch_size)
            delivered = self.pump_sink()
            if (self.source_exhausted and len(self.channel) == 0
                    and delivered == 0):
                break
        return self.metrics


# -- common sink factories ------------------------------------------------------

def dfs_sink(dfs, path_prefix: str,
             encode: Callable[[Any], bytes] = lambda e: repr(e).encode()
             ) -> Callable[[List[Any]], None]:
    """Sink writing each batch as a new DFS file ``<prefix>/part-NNNNN``."""
    counter = {"n": 0}

    def sink(events: List[Any]) -> None:
        payload = b"\n".join(encode(e) for e in events)
        dfs.create(f"{path_prefix}/part-{counter['n']:05d}", payload)
        counter["n"] += 1

    return sink


def collection_sink(collection) -> Callable[[List[Any]], None]:
    """Sink inserting each batch of dict events, all of it or none."""
    return collection.insert_many


def broker_sink(broker, topic: str) -> Callable[[List[Any]], None]:
    """Sink producing each batch atomically, unkeyed, onto a broker topic.

    The whole batch is admitted or none of it
    (:meth:`~repro.streaming.broker.Broker.produce_batch`), so a
    backpressure stall rolls the *entire* flume transaction back with no
    delivered prefix — a retry cannot duplicate records.  The stall is
    surfaced as :class:`SinkError`, which is exactly the flume retry
    signal: the batch returns to the channel head, the channel fills,
    and the source stops being pumped until consumers commit.
    """

    def sink(events: List[Any]) -> None:
        try:
            broker.produce_batch(topic, events)
        except BackpressureError as stall:
            raise SinkError(f"broker backpressure on {topic}: {stall}") \
                from stall

    return sink
