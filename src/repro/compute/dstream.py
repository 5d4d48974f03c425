"""Micro-batch stream processing over the broker (Spark Streaming role).

The paper's software layer supports "streaming processing" workloads
alongside batch.  :class:`StreamingContext` polls topics of a
:class:`~repro.streaming.broker.Broker` into fixed-size micro-batches;
a :class:`DStream` is a lazy chain of per-batch transformations plus
windowed aggregations, mirroring the Spark Streaming API shape
(map / filter / count_by_window / reduce_by_key_and_window).

Source streams consume with *manual* offset commits: a batch's offsets
are committed only after the whole DAG (every transformation, sink, and
window) has processed it, and a sink exception seeks back to the last
committed offsets — so a crashed micro-batch is redelivered instead of
lost, matching Spark Streaming's at-least-once recovery from a WAL.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.streaming.broker import Broker, RebalanceError


class StreamingContext:
    """Drives micro-batches from broker topics through registered DStreams."""

    def __init__(self, bus: Broker, batch_max_records: int = 100):
        if batch_max_records < 1:
            raise ValueError(
                f"batch_max_records must be >= 1: {batch_max_records}")
        self.bus = bus
        self.batch_max_records = batch_max_records
        self._streams: List["DStream"] = []
        self.batches_run = 0

    def stream(self, topic: str, group: str = "streaming") -> "DStream":
        """A source DStream reading ``topic`` with its own consumer group."""
        consumer = self.bus.consumer(group, [topic], auto_commit=False)
        # Columnar poll: the batch's value column is already the
        # micro-batch list, with no Record objects in between.
        stream = DStream(
            self,
            source=lambda: consumer.poll_batch(self.batch_max_records).values,
            consumer=consumer)
        self._streams.append(stream)
        return stream

    def run_batch(self) -> int:
        """Process one micro-batch on every registered source stream.

        Returns the total number of source records consumed.
        """
        total = 0
        for stream in self._streams:
            total += stream._tick()
        self.batches_run += 1
        return total

    def run_until_idle(self, max_batches: int = 1000) -> int:
        """Run micro-batches until a batch consumes nothing."""
        total = 0
        for _ in range(max_batches):
            consumed = self.run_batch()
            total += consumed
            if consumed == 0:
                break
        return total


class DStream:
    """A discretized stream: per-batch transformations + sliding windows."""

    def __init__(self, context: StreamingContext,
                 source: Optional[Callable[[], List]] = None,
                 parent: Optional["DStream"] = None,
                 transform: Optional[Callable[[List], List]] = None,
                 consumer=None):
        self.context = context
        self._source = source
        self._parent = parent
        self._transform = transform
        self._consumer = consumer
        self._children: List["DStream"] = []
        self._sinks: List[Callable[[List], None]] = []
        self._window: Optional[Deque[List]] = None
        self._window_sinks: List[Callable[[List], None]] = []

    # -- transformations -----------------------------------------------------
    def _derive(self, transform: Callable[[List], List]) -> "DStream":
        child = DStream(self.context, parent=self, transform=transform)
        self._children.append(child)
        return child

    def map(self, fn: Callable) -> "DStream":
        return self._derive(lambda batch: [fn(x) for x in batch])

    def filter(self, predicate: Callable) -> "DStream":
        return self._derive(lambda batch: [x for x in batch if predicate(x)])

    # -- outputs --------------------------------------------------------------
    def foreach_batch(self, sink: Callable[[List], None]) -> "DStream":
        """Invoke ``sink(batch)`` on every (possibly empty) micro-batch."""
        self._sinks.append(sink)
        return self

    def window(self, batches: int) -> "DStream":
        """Keep the last ``batches`` micro-batches for windowed sinks."""
        if batches < 1:
            raise ValueError(f"window must cover >= 1 batches: {batches}")
        if self._window is None or self._window.maxlen != batches:
            self._window = deque(maxlen=batches)
        return self

    def foreach_window(self, sink: Callable[[List], None]) -> "DStream":
        """Invoke ``sink(flattened window contents)`` after each batch."""
        if self._window is None:
            raise RuntimeError("call window(n) before foreach_window")
        self._window_sinks.append(sink)
        return self

    def count_by_window(self, batches: int,
                        into: List[int]) -> "DStream":
        """Append the windowed record count to ``into`` each batch."""
        self.window(batches)
        return self.foreach_window(lambda records: into.append(len(records)))

    def reduce_by_key_and_window(self, key_fn: Callable, batches: int,
                                 into: List[Dict]) -> "DStream":
        """Append {key: count} over the window to ``into`` each batch."""
        self.window(batches)

        def sink(records):
            counts: Dict = defaultdict(int)
            for record in records:
                counts[key_fn(record)] += 1
            into.append(dict(counts))

        return self.foreach_window(sink)

    # -- execution ----------------------------------------------------------------
    def _tick(self) -> int:
        """Pull one micro-batch from the source and push it down the DAG.

        Offsets commit only after the whole DAG processed the batch; a
        sink exception seeks back to the committed offsets so the broker
        redelivers the batch on the next tick (at-least-once).
        """
        if self._source is None:
            raise RuntimeError("only source streams can tick")
        batch = self._source()
        try:
            self._push(batch)
        except Exception:
            if self._consumer is not None:
                self._consumer.seek_to_committed()
            raise
        if self._consumer is not None and batch:
            try:
                self._consumer.commit()
            except RebalanceError:
                # fenced by a membership change: the new owners will
                # redeliver this batch — duplicates, never loss
                pass
        return len(batch)

    def _push(self, batch: List) -> None:
        if self._transform is not None:
            batch = self._transform(batch)
        for sink in self._sinks:
            sink(list(batch))
        if self._window is not None:
            self._window.append(list(batch))
            flattened = [x for chunk in self._window for x in chunk]
            for sink in self._window_sinks:
                sink(flattened)
        for child in self._children:
            child._push(batch)
