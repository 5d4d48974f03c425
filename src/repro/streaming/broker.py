"""A Kafka-class broker: the durable pub/sub backbone of the Fig. 4 pipeline.

What the smart-city deployment guidelines call for — and what every
heavy-traffic layer above this one assumes — is a *broker*, not a list of
lists:

- **Consumer groups with committed offsets.**  A :class:`Consumer` is a
  group *member*; ``poll()`` advances a fetch *position* while
  ``commit()`` durably advances the group's *committed* offset.  A member
  that dies (or is fenced by a rebalance) before committing loses only its
  position: the committed offset stands, and the records are redelivered —
  at-least-once delivery instead of an eager fetch that silently loses
  records on a consumer crash.  ``auto_commit=True`` (the default) commits
  atomically inside ``poll``.
- **Partition assignment and rebalancing.**  Partitions of each topic are
  distributed round-robin over the members subscribed to it.  Joins and
  leaves bump the group *generation*, recompute the assignment, and reset
  fetch positions to the committed offsets so in-flight uncommitted reads
  are redelivered to the new owners.  Commits from a member holding a
  stale generation are fenced with :class:`RebalanceError`.
- **Retention and compaction.**  Per-topic limits on retained records and
  record age (measured on the runtime sim clock when one is bound), plus
  log compaction for keyed topics: only the latest record per key
  survives, ``value=None`` is a deletion tombstone, and offsets are
  preserved so committed positions stay valid over a compacted log.
- **Backpressure.**  A topic may bound its partitions; ``produce`` against
  a full partition first evicts records already committed by every
  consumer group, then applies the configured policy — ``"block"`` raises
  the retryable :class:`BackpressureStall` (Flume agents translate it into
  a transaction rollback so the channel, and ultimately the source, slows
  down), ``"drop"`` discards the new records, ``"error"`` raises
  :class:`BackpressureError`.
- **Zero-copy payload handoff.**  Topics created with
  ``share_ndarrays=True`` stage ndarrays of ``shm_min_bytes`` (64 KiB) or
  more into ``multiprocessing.shared_memory`` once, via
  :func:`repro.runtime.parallel.share_ndarrays`; every consumer group reads the
  same read-only view, and eviction unlinks the segment.  A batch of
  smaller plain ndarrays (a 16x16 frame is 1 KiB) is stored as is after
  one C-speed check; producers get their own objects back either way.
- **Columnar record batches.**  Partitions store parallel
  offset/key/value/timestamp columns rather than ``Record`` objects, and
  the hot path moves :class:`RecordBatch` slices of those columns:
  ``produce_batch`` is the one append path (plan partitions per distinct
  key, admit, one bulk column append per touched partition) and
  ``Consumer.poll_batch`` the one fetch path, returning a batch whose
  per-key ``groups()`` feed the serving gateway directly.  ``produce()``
  and ``poll()`` are one-record / row views of those two.  Individual
  :class:`Record` objects are materialized lazily, only when a caller
  actually asks for row views (``produce()``, ``poll()``, iteration,
  indexing) — the payload objects themselves are never copied.

Telemetry lives under ``streaming.broker.*``: produce/fetch volume and
latency, per-group lag gauges, rebalance and generation counters,
retention evictions, backpressure stalls, shared-memory bytes.  Delivery
*attempts* legitimately vary with group membership, so
:data:`VOLATILE_METRIC_PREFIXES` / :data:`VOLATILE_SPAN_PREFIXES` name
what invariance tests should drop via
:func:`repro.runtime.parallel.deterministic_dump`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.runtime import get_runtime
from repro.runtime.metrics import LATENCY_SAMPLES
from repro.runtime.parallel import (
    DEFAULT_SHM_MIN_BYTES,
    SharedArrayRef,
    share_ndarrays,
    stages_nothing,
)


class BrokerError(Exception):
    """Raised for unknown topics/partitions or bad consumer usage."""


class BackpressureError(BrokerError):
    """A bounded partition is full and the topic policy is ``"error"``."""


class BackpressureStall(BackpressureError):
    """A bounded partition is full under the ``"block"`` policy.

    Retryable: the producer should hold its batch (Flume agents roll the
    transaction back into the channel) and retry after consumers commit.
    """


class RebalanceError(BrokerError):
    """A commit from a member fenced by a newer group generation."""


#: allowed values for TopicConfig.backpressure
BACKPRESSURE_POLICIES = ("block", "drop", "error")

#: broker metric/span families that vary with delivery attempts and group
#: membership; invariance tests drop them via deterministic_dump(...)
VOLATILE_METRIC_PREFIXES = ("streaming.broker.",)
VOLATILE_SPAN_PREFIXES = ("streaming.broker.",)


@dataclass(frozen=True)
class Record:
    """One message in a topic partition.

    ``timestamp`` is the runtime sim clock when a DES environment is
    bound, else a deterministic per-broker logical tick — never wall
    time, so dumps stay replayable.
    """

    topic: str
    partition: int
    offset: int
    key: Optional[str]
    value: Any
    timestamp: float


def _group_sort_key(key: Optional[str]) -> Tuple[bool, str]:
    # None keys sort first, then lexicographic — deterministic regardless
    # of arrival order.
    return (key is not None, key if key is not None else "")


class RecordBatch:
    """A columnar slice of records: parallel offset/key/value/timestamp rows.

    The broker's hot-path unit: ``produce_batch`` returns one and
    ``Consumer.poll_batch`` fetches one, both without constructing a
    single :class:`Record`.  The columns are plain parallel lists owned
    by the batch; the *payload objects* in ``values`` are shared, never
    copied — row views (:meth:`record`, iteration, indexing,
    :meth:`select`) only re-reference them.

    ``topics`` is the topic name itself for a homogeneous batch (the
    common case) or a per-row list for a multi-topic concat; use
    :meth:`topic_at` for row-level access either way.
    """

    __slots__ = ("topics", "partitions", "offsets", "keys", "values",
                 "timestamps", "_stacked")

    def __init__(self, topics: Union[str, List[str]], partitions: List[int],
                 offsets: List[int], keys: List[Optional[str]],
                 values: List[Any], timestamps: List[float]):
        self.topics = topics
        self.partitions = partitions
        self.offsets = offsets
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self._stacked = None

    @classmethod
    def empty(cls, topic: str = "") -> "RecordBatch":
        return cls(topic, [], [], [], [], [])

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """One batch spanning ``batches`` in order (payloads shared)."""
        batches = [batch for batch in batches if batch.offsets]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        names = {batch.topics for batch in batches
                 if isinstance(batch.topics, str)}
        if len(names) == 1 and all(isinstance(batch.topics, str)
                                   for batch in batches):
            topics: Union[str, List[str]] = names.pop()
        else:
            topics = []
            for batch in batches:
                if isinstance(batch.topics, str):
                    topics.extend([batch.topics] * len(batch.offsets))
                else:
                    topics.extend(batch.topics)
        out = cls(topics, [], [], [], [], [])
        for batch in batches:
            out.partitions.extend(batch.partitions)
            out.offsets.extend(batch.offsets)
            out.keys.extend(batch.keys)
            out.values.extend(batch.values)
            out.timestamps.extend(batch.timestamps)
        return out

    def __len__(self) -> int:
        return len(self.offsets)

    def __bool__(self) -> bool:
        return bool(self.offsets)

    def topic_at(self, index: int) -> str:
        topics = self.topics
        return topics if isinstance(topics, str) else topics[index]

    def record(self, index: int) -> Record:
        """Materialize one row as a :class:`Record` (lazy, on demand)."""
        if index < 0:
            index += len(self.offsets)
        if not 0 <= index < len(self.offsets):
            raise IndexError(f"batch has {len(self.offsets)} rows: {index}")
        return Record(topic=self.topic_at(index),
                      partition=self.partitions[index],
                      offset=self.offsets[index],
                      key=self.keys[index],
                      value=self.values[index],
                      timestamp=self.timestamps[index])

    def records(self) -> List[Record]:
        """Every row materialized (the legacy per-record view)."""
        return [self.record(index) for index in range(len(self.offsets))]

    def __iter__(self) -> Iterator[Record]:
        for index in range(len(self.offsets)):
            yield self.record(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(range(*index.indices(len(self.offsets))))
        return self.record(index)

    def select(self, rows: Iterable[int]) -> "RecordBatch":
        """A sub-batch of ``rows`` (payload objects shared, not copied)."""
        rows = list(rows)
        # itemgetter gathers in C, but hands back a bare item for one row
        take = (itemgetter(*rows) if len(rows) > 1
                else lambda column: [column[index] for index in rows])
        topics = self.topics
        if not isinstance(topics, str):
            topics = list(take(topics))
        return RecordBatch(topics,
                           list(take(self.partitions)),
                           list(take(self.offsets)),
                           list(take(self.keys)),
                           list(take(self.values)),
                           list(take(self.timestamps)))

    def stacked_values(self) -> np.ndarray:
        """The value column as one stacked ndarray, computed once.

        The gateway-submission shape, built once per sub-batch from
        :meth:`groups` by ``np.array`` (``np.stack``'s array, ragged rows
        raising too, at a third of the cost) and cached on the batch.
        """
        if self._stacked is None:
            if not self.values:
                raise BrokerError("cannot stack an empty batch")
            self._stacked = np.array(self.values)
        return self._stacked

    def groups(self) -> List[Tuple[Optional[str], "RecordBatch"]]:
        """Per-key sub-batches, deterministically ordered by key.

        Row order within each sub-batch is arrival order; ``None`` keys
        group together and sort first; a one-key batch is its own group.
        """
        if self.keys and self.keys.count(self.keys[0]) == len(self.keys):
            return [(self.keys[0], self)]
        rows_by_key: Dict[Optional[str], List[int]] = {}
        for index, key in enumerate(self.keys):
            bucket = rows_by_key.get(key)
            if bucket is None:
                rows_by_key[key] = bucket = []
            bucket.append(index)
        return [(key, self.select(rows_by_key[key]))
                for key in sorted(rows_by_key, key=_group_sort_key)]


@dataclass(frozen=True)
class TopicConfig:
    """Per-topic retention, compaction, backpressure and transport knobs."""

    partitions: int = 4
    retention_max_records: Optional[int] = None
    retention_max_age_s: Optional[float] = None
    compact: bool = False
    max_partition_records: Optional[int] = None
    backpressure: str = "block"
    share_ndarrays: bool = False

    def __post_init__(self):
        if self.partitions < 1:
            raise BrokerError(f"partitions must be >= 1: {self.partitions}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise BrokerError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}")
        for name in ("retention_max_records", "max_partition_records"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise BrokerError(f"{name} must be >= 1: {bound}")
        if self.retention_max_age_s is not None \
                and self.retention_max_age_s < 0:
            raise BrokerError(
                f"retention_max_age_s must be >= 0: {self.retention_max_age_s}")


class _Partition:
    """One partition's retained log, stored as parallel columns.

    ``offsets``/``keys``/``values``/``timestamps`` are parallel lists
    ordered by offset but possibly *sparse* after retention or
    compaction; absolute offsets are preserved so group positions stay
    meaningful.  ``end_offset`` is the next offset to assign, and
    ``base_offset`` the earliest retained offset (== ``end_offset`` when
    empty).  Columnar storage is what makes the batch fast path work:
    appends and fetches are bulk list operations, and ``index_for`` is a
    plain C-speed bisect over the offset column.
    """

    __slots__ = ("offsets", "keys", "values", "timestamps",
                 "end_offset", "shm")

    def __init__(self):
        self.offsets: List[int] = []
        self.keys: List[Optional[str]] = []
        self.values: List[Any] = []
        self.timestamps: List[float] = []
        self.end_offset = 0
        self.shm: Dict[int, List] = {}   # offset -> SharedMemory segments

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def base_offset(self) -> int:
        return self.offsets[0] if self.offsets else self.end_offset

    def index_for(self, offset: int) -> int:
        """Index of the first retained record at or above ``offset``."""
        return bisect_left(self.offsets, offset)

    def truncate_head(self, count: int) -> None:
        del self.offsets[:count]
        del self.keys[:count]
        del self.values[:count]
        del self.timestamps[:count]

    def keep_rows(self, rows: Sequence[int]) -> None:
        self.offsets = [self.offsets[i] for i in rows]
        self.keys = [self.keys[i] for i in rows]
        self.values = [self.values[i] for i in rows]
        self.timestamps = [self.timestamps[i] for i in rows]


def _take(column: List[Any], rows: Union[slice, List[int]]) -> List[Any]:
    """``column`` at one partition's rows: a strided slice or an index list."""
    if isinstance(rows, slice):
        return column[rows]
    return [column[index] for index in rows]


def _put(column: List[Any], rows: Union[slice, List[int]],
         items: Iterable[Any]) -> None:
    """Write ``items`` back to ``column`` at ``rows`` (inverse of ``_take``)."""
    if isinstance(rows, slice):
        column[rows] = items
    else:
        for index, item in zip(rows, items):
            column[index] = item


#: keyed-partition cache bound per topic; above this many distinct keys
#: new ones are hashed on the fly instead of cached
_KEY_CACHE_LIMIT = 8192


class _Topic:
    __slots__ = ("name", "config", "partitions", "_round_robin",
                 "_key_partitions")

    def __init__(self, name: str, config: TopicConfig):
        self.name = name
        self.config = config
        self.partitions = [_Partition() for _ in range(config.partitions)]
        self._round_robin = 0
        self._key_partitions: Dict[str, int] = {}

    def partition_for_key(self, key: str) -> int:
        """Stable hash partition for a key, memoized per topic.

        Camera-style topics see the same handful of keys forever; caching
        the md5 keeps the keyed produce path off the hash function.
        """
        partition = self._key_partitions.get(key)
        if partition is None:
            digest = hashlib.md5(key.encode()).digest()
            partition = int.from_bytes(digest[:4], "big") \
                % len(self.partitions)
            if len(self._key_partitions) < _KEY_CACHE_LIMIT:
                self._key_partitions[key] = partition
        return partition

    def plan_partitions(self, keys: List[Optional[str]]) -> List[int]:
        """Partition for each key *without* committing the cursor.

        Pure for keyed records (stable hash, looked up once per distinct
        key when no row is unkeyed); unkeyed records take the round-robin
        cursor positions they *would* get; ``produce_batch`` advances the
        cursor only once the batch is admitted, so a rejected batch does
        not disturb the rotation.
        """
        if None not in keys:
            partition_of = {key: self.partition_for_key(key)
                            for key in dict.fromkeys(keys)}
            return list(map(partition_of.__getitem__, keys))
        width = len(self.partitions)
        cursor = self._round_robin
        plan = []
        for key in keys:
            if key is None:
                plan.append(cursor % width)
                cursor += 1
            else:
                plan.append(self.partition_for_key(key))
        return plan


@dataclass
class _Group:
    """Consumer-group membership, generation, assignment and fair cursors."""

    name: str
    generation: int = 0
    members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: topic -> {partition -> member_id}
    assignment: Dict[str, Dict[int, str]] = field(default_factory=dict)
    #: topic -> fair-fetch rotation cursor (next partition to scan first)
    cursors: Dict[str, int] = field(default_factory=dict)

    def partitions_of(self, member_id: str, topic: str) -> List[int]:
        mapping = self.assignment.get(topic, {})
        return sorted(p for p, m in mapping.items() if m == member_id)


class _TopicTelemetry:
    """Produce-side bound metric handles, resolved once per topic.

    The labeled calls these replace dominated the per-record produce
    cost; the handles land in exactly the same series, so dumps cannot
    tell the paths apart.
    """

    __slots__ = ("produced", "depth", "produce_latency", "dropped", "stalls")

    def __init__(self, broker: "Broker", topic: str):
        self.produced = broker._produced.bind(topic=topic)
        self.depth = broker._depth.bind(topic=topic)
        self.produce_latency = broker._produce_latency.bind(topic=topic)
        self.dropped = broker._dropped.bind(topic=topic,
                                            reason="backpressure")
        self.stalls = broker._stalls.bind(topic=topic)


class _GroupTelemetry:
    """Fetch-side bound metric handles, resolved once per (group, topic)."""

    __slots__ = ("consumed", "e2e", "lag")

    def __init__(self, broker: "Broker", group: str, topic: str):
        self.consumed = broker._consumed.bind(group=group, topic=topic)
        self.e2e = broker._e2e_latency.bind(group=group, topic=topic)
        self.lag = broker._lag.bind(group=group, topic=topic)


class Broker:
    """Topics, producers, consumer groups, retention and backpressure.

    The public surface is everything tests and other layers need;
    ``_topics`` / ``_groups`` / ``_group_offsets`` / ``_positions`` are
    broker internals (lint rule API303 bans touching them outside
    ``repro/streaming/``).
    """

    def __init__(self, runtime=None,
                 shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES):
        self._topics: Dict[str, _Topic] = {}
        self._groups: Dict[str, _Group] = {}
        #: (group, topic, partition) -> committed offset
        self._group_offsets: Dict[Tuple[str, str, int], int] = {}
        #: (group, topic, partition) -> fetch position (>= committed)
        self._positions: Dict[Tuple[str, str, int], int] = {}
        self._segments: Dict[str, Any] = {}  # shm name -> SharedMemory
        self._staged_bytes = 0
        self._ticks = 0
        self.shm_min_bytes = int(shm_min_bytes)
        self.runtime = runtime or get_runtime()
        registry = self.runtime.registry
        self._produced = registry.counter(
            "streaming.broker.records_produced",
            "records appended to a topic")
        self._consumed = registry.counter(
            "streaming.broker.records_consumed",
            "records fetched by a consumer group")
        self._dropped = registry.counter(
            "streaming.broker.records_dropped",
            "records discarded by the drop backpressure policy")
        self._stalls = registry.counter(
            "streaming.broker.backpressure_stalls",
            "blocked produce attempts against full partitions")
        self._evictions = registry.counter(
            "streaming.broker.retention_evictions",
            "records evicted by retention, compaction or consumed-head "
            "trimming")
        self._rebalances = registry.counter(
            "streaming.broker.rebalances",
            "consumer-group rebalances (joins and leaves)")
        self._generation = registry.gauge(
            "streaming.broker.generation",
            "current consumer-group generation")
        self._lag = registry.gauge(
            "streaming.broker.lag",
            "records between a group's committed offsets and the log end")
        self._depth = registry.gauge(
            "streaming.broker.depth",
            "retained records per topic")
        self._shm_bytes = registry.counter(
            "streaming.broker.shm_bytes",
            "ndarray payload bytes staged into shared memory")
        self._produce_latency = registry.histogram(
            "streaming.broker.produce_latency_s",
            "runtime-clock seconds per produce call (wall time "
            "outside a DES run)", max_samples=LATENCY_SAMPLES)
        self._fetch_latency = registry.histogram(
            "streaming.broker.fetch_latency_s",
            "runtime-clock seconds per poll call (wall time "
            "outside a DES run)", max_samples=LATENCY_SAMPLES)
        self._e2e_latency = registry.histogram(
            "streaming.broker.produce_to_consume_s",
            "sim-clock seconds between produce and fetch ("
            "observed only while a DES clock is bound)")
        self._topic_telemetry_cache: Dict[str, _TopicTelemetry] = {}
        self._group_telemetry_cache: Dict[Tuple[str, str],
                                          _GroupTelemetry] = {}

    # -- clock ---------------------------------------------------------------
    def _age_now(self) -> float:
        """The retention clock's *current* reading (no tick consumed)."""
        if self.runtime.clock_kind == "sim":
            return self.runtime.now()
        return float(self._ticks)

    # -- bound telemetry -----------------------------------------------------
    def _topic_telemetry(self, topic: str) -> _TopicTelemetry:
        handles = self._topic_telemetry_cache.get(topic)
        if handles is None:
            handles = _TopicTelemetry(self, topic)
            self._topic_telemetry_cache[topic] = handles
        return handles

    def _group_telemetry(self, group: str, topic: str) -> _GroupTelemetry:
        key = (group, topic)
        handles = self._group_telemetry_cache.get(key)
        if handles is None:
            handles = _GroupTelemetry(self, group, topic)
            self._group_telemetry_cache[key] = handles
        return handles

    # -- topics -----------------------------------------------------------------
    def create_topic(self, name: str, partitions: int = 4, *,
                     retention_max_records: Optional[int] = None,
                     retention_max_age_s: Optional[float] = None,
                     compact: bool = False,
                     max_partition_records: Optional[int] = None,
                     backpressure: str = "block",
                     share_ndarrays: bool = False) -> None:
        if name in self._topics:
            raise BrokerError(f"topic already exists: {name}")
        config = TopicConfig(
            partitions=partitions,
            retention_max_records=retention_max_records,
            retention_max_age_s=retention_max_age_s,
            compact=compact,
            max_partition_records=max_partition_records,
            backpressure=backpressure,
            share_ndarrays=share_ndarrays)
        self._topics[name] = _Topic(name, config)

    def topic_names(self) -> List[str]:
        return sorted(self._topics)

    def topic_config(self, name: str) -> TopicConfig:
        return self._topic(name).config

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise BrokerError(f"no such topic: {name}") from None

    def topic_size(self, topic: str) -> int:
        """Retained records across all partitions."""
        return sum([len(p.offsets) for p in self._topic(topic).partitions])

    def partition_sizes(self, topic: str) -> List[int]:
        """Retained records per partition."""
        return [len(p) for p in self._topic(topic).partitions]

    def end_offset(self, topic: str, partition: int) -> int:
        """The offset the next produced record will get."""
        return self._partition(topic, partition).end_offset

    def _partition(self, topic: str, partition: int) -> _Partition:
        t = self._topic(topic)
        if not 0 <= partition < len(t.partitions):
            raise BrokerError(
                f"topic {topic} has no partition {partition}")
        return t.partitions[partition]

    # -- produce -----------------------------------------------------------------
    def produce(self, topic: str, value: Any,
                key: Optional[str] = None) -> Optional[Record]:
        """Append one record; returns it, or None when dropped.

        The one-record view of :meth:`produce_batch`: partition choice,
        admission, staging and the column append all live there.
        """
        batch = self.produce_batch(
            topic, (value,), key_fn=None if key is None else lambda _: key)
        return batch.record(0) if batch else None

    def produce_batch(self, topic: str, values: Sequence[Any],
                      key_fn: Optional[Callable[[Any], Optional[str]]] = None
                      ) -> RecordBatch:
        """Append a batch atomically with respect to backpressure.

        Capacity is checked for the *whole* batch up front (after evicting
        whatever retention allows), so a ``"block"``-policy stall raises
        :class:`BackpressureStall` before any record is appended — a
        retried batch can never duplicate a delivered prefix.  Under the
        ``"drop"`` policy only the records that fit are appended and the
        overflow is counted in ``streaming.broker.records_dropped``.

        Returns the appended rows as a :class:`RecordBatch` in input
        order (``len()`` and indexing behave like the old record list;
        ``Record`` objects materialize lazily).  This is the broker's one
        append path: one partition plan, one admission check, one bulk
        column append per touched partition, and one telemetry update
        for the whole batch.  Values come back as the producer's objects.
        """
        t = self._topic(topic)
        values = list(values)
        if not values:
            return RecordBatch.empty(topic)
        started = self.runtime.now()
        telemetry = self._topic_telemetry(topic)
        parts = t.partitions
        width = len(parts)
        keys: List[Optional[str]] = (
            [None] * len(values) if key_fn is None
            else list(map(key_fn, values)))
        plan = t.plan_partitions(keys)
        kept = self._admit(t, plan)
        t._round_robin += keys.count(None)
        if kept is not None:
            plan = [plan[index] for index in kept]
            keys = [keys[index] for index in kept]
            values = [values[index] for index in kept]
        n = len(values)
        # Record timestamps: sim time when bound, else one logical tick
        # per appended record.
        if self.runtime.clock_kind == "sim":
            stamps = [self.runtime.now()] * n
        else:
            stamps = list(map(float, range(self._ticks, self._ticks + n)))
            self._ticks += n
        if n and plan.count(plan[0]) == n:
            lanes = [(plan[0], slice(None))]
        elif key_fn is None and kept is None:
            # Round-robin lays rows lane, lane + width, ... on one
            # partition in input order: each partition's rows are one
            # strided slice.
            lanes = [(plan[lane], slice(lane, None, width))
                     for lane in range(min(width, n))]
        else:
            rows_of: Dict[int, List[int]] = {}
            for index, partition in enumerate(plan):
                rows_of.setdefault(partition, []).append(index)
            lanes = rows_of.items()
        stage = (t.config.share_ndarrays
                 and not stages_nothing(values, self.shm_min_bytes))
        offsets = [0] * n
        for partition, rows in lanes:
            part = parts[partition]
            lane_values = _take(values, rows)
            lane_offsets = range(part.end_offset,
                                 part.end_offset + len(lane_values))
            if stage:
                lane_values = [self._store_value(t, part, offset, value)
                               for offset, value
                               in zip(lane_offsets, lane_values)]
            _put(offsets, rows, lane_offsets)
            part.offsets.extend(lane_offsets)
            part.keys.extend(_take(keys, rows))
            part.values.extend(lane_values)
            part.timestamps.extend(_take(stamps, rows))
            part.end_offset = lane_offsets.stop
        self._apply_size_retention(t)
        if n:
            telemetry.produced.inc(n)
            telemetry.depth.set(self.topic_size(topic))
        telemetry.produce_latency.observe(self.runtime.now() - started)
        return RecordBatch(topic, plan, offsets, keys, values, stamps)

    def _admit(self, t: _Topic, plan: Sequence[int]) -> Optional[List[int]]:
        """Rows of ``plan`` that fit, after retention; applies the policy.

        ``None`` means every record is admitted — the common unbounded
        case stays allocation-free.
        """
        bound = t.config.max_partition_records
        if bound is None:
            return None
        needed = Counter(plan)
        free: Dict[int, int] = {}
        for partition, count in needed.items():
            part = t.partitions[partition]
            if len(part) + count > bound:
                self._evict_consumed_head(t, partition)
                self._evict_aged(t, partition)
            free[partition] = bound - len(part)
        if all(count <= free[partition] for partition, count in needed.items()):
            return None
        policy = t.config.backpressure
        if policy == "drop":
            kept = []
            for index, partition in enumerate(plan):
                if free[partition] > 0:
                    free[partition] -= 1
                    kept.append(index)
            self._topic_telemetry(t.name).dropped.inc(len(plan) - len(kept))
            return kept
        self._topic_telemetry(t.name).stalls.inc()
        overfull = sorted(p for p, count in needed.items()
                          if count > free[p])
        message = (f"topic {t.name} partitions {overfull} are full "
                   f"(bound {bound})")
        if policy == "block":
            raise BackpressureStall(
                message + "; retry after consumers commit")
        raise BackpressureError(message)

    # -- retention / compaction ---------------------------------------------------
    def run_retention(self, topic: Optional[str] = None) -> int:
        """Apply age/size retention (and compaction) now; returns evictions."""
        names = [topic] if topic is not None else self.topic_names()
        evicted = 0
        for name in names:
            t = self._topic(name)
            with self.runtime.tracer.span("streaming.broker.retention",
                                          topic=name):
                before = self.topic_size(name)
                for partition in range(len(t.partitions)):
                    self._evict_aged(t, partition)
                self._apply_size_retention(t)
                if t.config.compact:
                    self._compact(t)
                evicted += before - self.topic_size(name)
            self._depth.set(self.topic_size(name), topic=name)
        return evicted

    def compact(self, topic: str) -> int:
        """Force log compaction of a keyed topic; returns removed records."""
        t = self._topic(topic)
        with self.runtime.tracer.span("streaming.broker.compaction",
                                      topic=topic):
            removed = self._compact(t)
        self._depth.set(self.topic_size(topic), topic=topic)
        return removed

    def _apply_size_retention(self, t: _Topic) -> None:
        bound = t.config.retention_max_records
        if bound is None:
            return
        for partition, part in enumerate(t.partitions):
            if len(part) > bound:
                self._truncate_head(t, partition, len(part) - bound,
                                    reason="size")

    def _evict_aged(self, t: _Topic, partition: int) -> None:
        max_age = t.config.retention_max_age_s
        if max_age is None:
            return
        part = t.partitions[partition]
        horizon = self._age_now() - max_age
        # Timestamps are nondecreasing within a partition, so the age cut
        # is a bisect over the timestamp column.
        cut = bisect_left(part.timestamps, horizon)
        if cut:
            self._truncate_head(t, partition, cut, reason="age")

    def _evict_consumed_head(self, t: _Topic, partition: int) -> None:
        """Trim records already committed by every group that consumes here."""
        committed = [offset for (group, topic, p), offset
                     in self._group_offsets.items()
                     if topic == t.name and p == partition]
        if not committed:
            return
        safe = min(committed)
        part = t.partitions[partition]
        cut = part.index_for(safe)
        if cut:
            self._truncate_head(t, partition, cut, reason="consumed")

    def _truncate_head(self, t: _Topic, partition: int, count: int,
                       reason: str) -> None:
        part = t.partitions[partition]
        if part.shm:
            for offset in part.offsets[:count]:
                self._release(part, offset)
        part.truncate_head(count)
        self._evictions.inc(count, topic=t.name, reason=reason)

    def _compact(self, t: _Topic) -> int:
        """Keep only the latest record per key; tombstones delete the key."""
        removed = 0
        for part in t.partitions:
            keys = part.keys
            latest: Dict[str, int] = {}
            deleted: Set[str] = set()
            for index, key in enumerate(keys):
                if key is None:
                    continue
                latest[key] = index
                if part.values[index] is None:
                    deleted.add(key)
                else:
                    deleted.discard(key)
            survivors = [index for index, key in enumerate(keys)
                         if key is None
                         or (latest[key] == index and key not in deleted)]
            dropped = len(keys) - len(survivors)
            if not dropped:
                continue
            if part.shm:
                kept = {part.offsets[index] for index in survivors}
                for offset in list(part.shm):
                    if offset not in kept:
                        self._release(part, offset)
            part.keep_rows(survivors)
            removed += dropped
        if removed:
            self._evictions.inc(removed, topic=t.name, reason="compaction")
        return removed

    # -- zero-copy payload transport -----------------------------------------------
    def _store_value(self, t: _Topic, part: _Partition, offset: int,
                     value: Any) -> Any:
        encoded, staged, segments = share_ndarrays(value, self.shm_min_bytes)
        if segments:
            part.shm[offset] = segments
            for segment in segments:
                self._segments[segment.name] = segment
            self._staged_bytes += staged
            self._shm_bytes.inc(staged, topic=t.name)
        return encoded

    def _resolve(self, obj: Any) -> Any:
        if isinstance(obj, SharedArrayRef):
            segment = self._segments[obj.segment]
            view = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                              buffer=segment.buf)
            view.flags.writeable = False
            return view
        if isinstance(obj, tuple):
            return tuple(self._resolve(value) for value in obj)
        if isinstance(obj, list):
            return [self._resolve(value) for value in obj]
        if isinstance(obj, dict):
            return {key: self._resolve(value) for key, value in obj.items()}
        return obj

    def _release(self, part: _Partition, offset: int) -> None:
        for segment in part.shm.pop(offset, ()):
            self._segments.pop(segment.name, None)
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def tracked_segments(self) -> int:
        """Shared-memory segments currently staged (and not yet evicted)."""
        return len(self._segments)

    def shm_bytes_staged(self) -> int:
        """Cumulative ndarray bytes this broker staged into shared memory."""
        return self._staged_bytes

    def close(self) -> None:
        """Unlink every shared-memory segment this broker staged."""
        for t in self._topics.values():
            for part in t.partitions:
                for offset in list(part.shm):
                    self._release(part, offset)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    # -- consumer groups -----------------------------------------------------------
    def consumer(self, group: str, topics: Sequence[str], *,
                 auto_commit: bool = True) -> "Consumer":
        """Join ``group`` as a new member subscribed to ``topics``.

        Joining rebalances the group: partitions are redistributed over
        the members subscribed to each topic and fetch positions reset to
        the committed offsets.
        """
        return Consumer(self, group, topics, auto_commit=auto_commit)

    def _group(self, name: str) -> _Group:
        if name not in self._groups:
            self._groups[name] = _Group(name)
        return self._groups[name]

    def group_generation(self, group: str) -> int:
        return self._group(group).generation

    def group_members(self, group: str) -> List[str]:
        return sorted(self._group(group).members)

    def partition_assignment(self, group: str, topic: str) -> Dict[int, str]:
        """{partition -> member_id} for one topic of one group."""
        return dict(self._group(group).assignment.get(topic, {}))

    def committed_offset(self, group: str, topic: str, partition: int) -> int:
        self._partition(topic, partition)
        return self._group_offsets.get((group, topic, partition), 0)

    def position(self, group: str, topic: str, partition: int) -> int:
        """The group's fetch position (falls back to the committed offset)."""
        self._partition(topic, partition)
        key = (group, topic, partition)
        return self._positions.get(key, self._group_offsets.get(key, 0))

    def _join(self, group_name: str, member_id: str,
              topics: Sequence[str]) -> None:
        group = self._group(group_name)
        group.members[member_id] = tuple(topics)
        self._rebalance(group, reason="join")

    def _leave(self, group_name: str, member_id: str) -> None:
        group = self._group(group_name)
        if member_id in group.members:
            del group.members[member_id]
            self._rebalance(group, reason="leave")

    def _rebalance(self, group: _Group, reason: str) -> None:
        group.generation += 1
        affected = sorted(set(group.assignment)
                          | {topic for topics in group.members.values()
                             for topic in topics})
        with self.runtime.tracer.span("streaming.broker.rebalance",
                                      group=group.name, reason=reason,
                                      generation=group.generation):
            assignment: Dict[str, Dict[int, str]] = {}
            for topic in affected:
                t = self._topic(topic)
                subscribers = sorted(
                    member for member, topics in group.members.items()
                    if topic in topics)
                if subscribers:
                    assignment[topic] = {
                        p: subscribers[p % len(subscribers)]
                        for p in range(len(t.partitions))}
                # Uncommitted fetches are redelivered to the new owners:
                # positions collapse back to the committed offsets.
                for p in range(len(t.partitions)):
                    self._positions.pop((group.name, topic, p), None)
            group.assignment = assignment
        self._rebalances.inc(group=group.name)
        self._generation.set(group.generation, group=group.name)

    # -- fetch --------------------------------------------------------------------
    def _fetch_batch(self, consumer: "Consumer", topic: str,
                     max_records: int) -> RecordBatch:
        """Columnar fetch from the member's partitions, fairly rotated.

        A per-(group, topic) cursor decides which partition the scan
        starts at and advances past whichever partition filled the
        budget, so a hot low-numbered partition can no longer starve its
        siblings under bounded polls.  Each partition contributes one
        column *slice* — no per-record objects; shared-memory payloads
        resolve to read-only views row by row only where staged.
        """
        t = self._topic(topic)
        group = self._group(consumer.group)
        assigned = group.partitions_of(consumer.member_id, topic)
        if not assigned:
            return RecordBatch.empty(topic)
        cursor = group.cursors.get(topic, 0)
        start = next((i for i, p in enumerate(assigned) if p >= cursor), 0)
        out_partitions: List[int] = []
        out_offsets: List[int] = []
        out_keys: List[Optional[str]] = []
        out_values: List[Any] = []
        out_timestamps: List[float] = []
        budget = max_records
        positions = self._positions
        committed = self._group_offsets
        for i in range(len(assigned)):
            partition = assigned[(start + i) % len(assigned)]
            part = t.partitions[partition]
            key = (group.name, topic, partition)
            position = positions.get(key, committed.get(key, 0))
            index = part.index_for(position)
            retained = len(part.offsets)
            take = min(retained - index, budget)
            if take > 0:
                stop = index + take
                offs = part.offsets[index:stop]
                vals = part.values[index:stop]
                if part.shm:
                    shm = part.shm
                    vals = [self._resolve(value) if offs[j] in shm else value
                            for j, value in enumerate(vals)]
                out_partitions.extend([partition] * take)
                out_offsets.extend(offs)
                out_keys.extend(part.keys[index:stop])
                out_values.extend(vals)
                out_timestamps.extend(part.timestamps[index:stop])
                budget -= take
            if index + take >= retained:
                position = part.end_offset
            elif take:
                position = part.offsets[index + take - 1] + 1
            positions[key] = position
            if budget <= 0:
                group.cursors[topic] = partition + 1
                break
        if out_offsets:
            telemetry = self._group_telemetry(group.name, topic)
            telemetry.consumed.inc(len(out_offsets))
            if self.runtime.clock_kind == "sim":
                now = self.runtime.now()
                observe = telemetry.e2e.observe
                for stamp in out_timestamps:
                    observe(now - stamp)
        self._update_lag(group.name, topic)
        return RecordBatch(topic, out_partitions, out_offsets, out_keys,
                           out_values, out_timestamps)

    def _update_lag(self, group: str, topic: str) -> None:
        self._group_telemetry(group, topic).lag.set(self.lag(group, topic))

    def _commit(self, consumer: "Consumer",
                positions: Optional[Dict[Tuple[str, int], int]] = None
                ) -> Dict[Tuple[str, int], int]:
        """Advance committed offsets to the member's fetch positions.

        With ``positions`` (a ``{(topic, partition): position}`` snapshot
        from :meth:`Consumer.position_snapshot`) the commit is *capped*
        at the snapshot: partitions absent from it are skipped and
        present ones commit the snapshot value — how a pipelined consumer
        commits batch N while batch N+1 is already fetched.
        """
        group = self._group(consumer.group)
        if consumer.generation != group.generation:
            raise RebalanceError(
                f"member {consumer.member_id} of group {group.name} holds "
                f"generation {consumer.generation}, group is at "
                f"{group.generation}; re-poll before committing")
        committed: Dict[Tuple[str, int], int] = {}
        for topic in consumer.topics:
            for partition in group.partitions_of(consumer.member_id, topic):
                key = (group.name, topic, partition)
                if positions is None:
                    position = self._positions.get(key)
                else:
                    position = positions.get((topic, partition))
                if position is None:
                    continue
                if position > self._group_offsets.get(key, 0):
                    self._group_offsets[key] = position
                    committed[(topic, partition)] = position
            self._update_lag(group.name, topic)
        return committed

    def _seek_to_committed(self, consumer: "Consumer") -> None:
        group = self._group(consumer.group)
        for topic in consumer.topics:
            for partition in group.partitions_of(consumer.member_id, topic):
                self._positions.pop((group.name, topic, partition), None)

    # -- group-level views ---------------------------------------------------------
    def lag(self, group: str, topic: str) -> int:
        """Records between the group's committed offsets and the log end."""
        t = self._topic(topic)
        total = 0
        for partition, part in enumerate(t.partitions):
            committed = self._group_offsets.get((group, topic, partition), 0)
            total += max(0, part.end_offset - committed)
        return total


class Consumer:
    """A consumer-group member reading its assigned partitions.

    With ``auto_commit=True`` (the default) every successful ``poll``
    atomically commits the records it returned.  With
    ``auto_commit=False`` the caller owns the commit
    boundary: ``commit()`` after processing gives at-least-once delivery,
    ``seek_to_committed()`` rolls an uncommitted read back for
    redelivery.
    """

    def __init__(self, broker: Broker, group: str, topics: Sequence[str],
                 auto_commit: bool = True):
        if not topics:
            raise BrokerError("consumer needs at least one topic")
        for topic in topics:
            broker._topic(topic)  # validate
        self.broker = broker
        self.group = group
        self.topics = list(topics)
        self.auto_commit = auto_commit
        self.member_id = broker.runtime.gensym(f"{group}-member")
        self._closed = False
        self._fetch_latency = broker._fetch_latency.bind(group=group)
        broker._join(group, self.member_id, self.topics)
        self.generation = broker.group_generation(group)

    # -- membership -----------------------------------------------------------
    def assignment(self) -> List[Tuple[str, int]]:
        """The (topic, partition) pairs this member currently owns."""
        self._ensure_open()
        self._sync()
        group = self.broker._group(self.group)
        return [(topic, partition) for topic in self.topics
                for partition in group.partitions_of(self.member_id, topic)]

    def close(self) -> None:
        """Leave the group (triggers a rebalance); idempotent."""
        if not self._closed:
            self._closed = True
            self.broker._leave(self.group, self.member_id)

    def _ensure_open(self) -> None:
        if self._closed:
            raise BrokerError(
                f"consumer {self.member_id} has left group {self.group}")

    def _sync(self) -> bool:
        """Adopt the current generation; True when a rebalance intervened."""
        current = self.broker.group_generation(self.group)
        if current != self.generation:
            self.generation = current
            return True
        return False

    # -- consumption ----------------------------------------------------------
    def poll(self, max_records: int = 100) -> List[Record]:
        """:meth:`poll_batch` with every row materialized as a Record."""
        return self.poll_batch(max_records).records()

    def poll_batch(self, max_records: int = 100) -> RecordBatch:
        """Columnar fetch: up to ``max_records`` as one :class:`RecordBatch`.

        The one fetch path: offsets, positions, auto-commit, fairness and
        rebalance semantics live here, and :meth:`poll` is a row view of
        the result.  The batch spans this member's topics in
        subscription order; ``batch.groups()`` yields per-key sub-batches
        (a camera's frames together, ready to stack for the gateway).
        """
        self._ensure_open()
        if max_records < 1:
            raise BrokerError(f"max_records must be >= 1: {max_records}")
        self._sync()
        broker = self.broker
        started = broker.runtime.now()
        if len(self.topics) == 1:
            out = broker._fetch_batch(self, self.topics[0], max_records)
        else:
            batches = []
            remaining = max_records
            for topic in self.topics:
                if remaining <= 0:
                    break
                batch = broker._fetch_batch(self, topic, remaining)
                if batch:
                    batches.append(batch)
                    remaining -= len(batch)
            out = RecordBatch.concat(batches) if batches \
                else RecordBatch.empty(self.topics[0])
        if self.auto_commit and out:
            broker._commit(self)
        self._fetch_latency.observe(broker.runtime.now() - started)
        return out

    def drain(self, batch_size: int = 100) -> List[Record]:
        """Poll until no new records remain."""
        out: List[Record] = []
        while True:
            batch = self.poll(batch_size)
            if not batch:
                return out
            out.extend(batch)

    # -- offset management ------------------------------------------------------
    def position_snapshot(self) -> Dict[Tuple[str, int], int]:
        """Current fetch positions of this member's assignment.

        The snapshot feeds ``commit(positions=...)``: a pipelined caller
        records where batch N ended, keeps polling ahead, and later
        commits exactly through batch N even though the live positions
        have moved on.  Partitions not yet fetched from are omitted.
        """
        self._ensure_open()
        self._sync()
        broker = self.broker
        group = broker._group(self.group)
        snapshot: Dict[Tuple[str, int], int] = {}
        for topic in self.topics:
            for partition in group.partitions_of(self.member_id, topic):
                position = broker._positions.get(
                    (self.group, topic, partition))
                if position is not None:
                    snapshot[(topic, partition)] = position
        return snapshot

    def commit(self, positions: Optional[Dict[Tuple[str, int], int]] = None
               ) -> Dict[Tuple[str, int], int]:
        """Commit fetch positions; {(topic, partition): offset} advanced.

        ``positions`` caps the commit at an earlier
        :meth:`position_snapshot` instead of the live positions —
        commit-after-resolve semantics for consumers that poll ahead.

        Raises :class:`RebalanceError` when fenced by a newer generation
        (the uncommitted records will be redelivered to their new
        owners); the consumer re-syncs so the next poll proceeds.
        """
        self._ensure_open()
        try:
            return self.broker._commit(self, positions)
        except RebalanceError:
            self._sync()
            raise

    def seek_to_committed(self) -> None:
        """Roll uncommitted fetches back: the next poll redelivers them."""
        self._ensure_open()
        self._sync()
        self.broker._seek_to_committed(self)

    def position(self, topic: str, partition: int) -> int:
        return self.broker.position(self.group, topic, partition)

    def committed(self, topic: str, partition: int) -> int:
        return self.broker.committed_offset(self.group, topic, partition)
