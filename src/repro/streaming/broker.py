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
- **Partition assignment and rebalancing.**  A member reads one topic;
  partitions of each topic are distributed round-robin over the group's
  members reading it.  Joins and
  leaves bump the group *generation*, recompute the assignment, and reset
  fetch positions to the committed offsets so in-flight uncommitted reads
  are redelivered to the new owners.  Commits from a member holding a
  stale generation are fenced with :class:`RebalanceError`.
- **Bounded partitions and backpressure.**  A topic may bound its
  partitions; ``produce`` against a full partition first evicts records
  already committed by every consumer group (the only way a head is
  trimmed, so no uncommitted record is ever dropped; offsets are
  preserved so committed positions stay valid over a trimmed log), then
  raises the retryable :class:`BackpressureError` with nothing appended
  (Flume agents keep the batch in their channel so the channel, and
  ultimately the source, slows down).  A batch with more rows for
  one partition than the bound could never fit and raises plain
  :class:`BrokerError` instead.
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

Telemetry lives under ``streaming.broker.*``: the per-group consumer
lag gauge and the produce-to-consume delay histogram.  Delivery
*attempts* legitimately vary with group membership, so
:data:`VOLATILE_METRIC_PREFIXES` / :data:`VOLATILE_SPAN_PREFIXES` name
what invariance tests should drop via
:func:`repro.runtime.parallel.deterministic_dump`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
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
    Tuple,
    Union,
)

import numpy as np

from repro.runtime import get_runtime
from repro.runtime.parallel import (
    DEFAULT_SHM_MIN_BYTES,
    SharedArrayRef,
    share_ndarrays,
    stages_nothing,
)


class BrokerError(Exception):
    """Raised for unknown topics/partitions or bad consumer usage."""


class BackpressureError(BrokerError):
    """A bounded partition is full; nothing of the batch was appended.

    Retryable: the producer should hold its batch (a Flume agent keeps it
    in its channel) and retry after consumers commit.
    """


class RebalanceError(BrokerError):
    """A commit from a member fenced by a newer group generation."""


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

    Every row of a batch belongs to the one ``topic`` it was produced
    to or fetched from: a consumer reads one topic.
    """

    __slots__ = ("topic", "partitions", "offsets", "keys", "values",
                 "timestamps", "_stacked")

    def __init__(self, topic: str, partitions: List[int],
                 offsets: List[int], keys: List[Optional[str]],
                 values: List[Any], timestamps: List[float]):
        self.topic = topic
        self.partitions = partitions
        self.offsets = offsets
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self._stacked = None

    @classmethod
    def empty(cls, topic: str) -> "RecordBatch":
        return cls(topic, [], [], [], [], [])

    def __len__(self) -> int:
        return len(self.offsets)

    def __bool__(self) -> bool:
        return bool(self.offsets)

    def record(self, index: int) -> Record:
        """Materialize one row as a :class:`Record` (lazy, on demand)."""
        if index < 0:
            index += len(self.offsets)
        if not 0 <= index < len(self.offsets):
            raise IndexError(f"batch has {len(self.offsets)} rows: {index}")
        return Record(topic=self.topic,
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
        return RecordBatch(self.topic,
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
    """Per-topic partition count, partition bound and transport knobs."""

    partitions: int = 4
    max_partition_records: Optional[int] = None
    share_ndarrays: bool = False

    def __post_init__(self):
        if self.partitions < 1:
            raise BrokerError(f"partitions must be >= 1: {self.partitions}")
        bound = self.max_partition_records
        if bound is not None and bound < 1:
            raise BrokerError(f"max_partition_records must be >= 1: {bound}")


class _Partition:
    """One partition's retained log, stored as parallel columns.

    ``offsets``/``keys``/``values``/``timestamps`` are parallel lists
    ordered by offset, starting past whatever eviction trimmed; absolute
    offsets are preserved so group positions stay meaningful.
    ``end_offset`` is the next offset to assign, and
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


def _lanes(plan: List[int]) -> List[Tuple[int, Union[slice, List[int]]]]:
    """``(partition, rows)`` per partition ``plan`` touches, in first-use order.

    The rows are the whole batch when every row lands on one partition,
    else that partition's index list.
    """
    if not plan:
        return []
    if plan.count(plan[0]) == len(plan):
        return [(plan[0], slice(None))]
    rows_of: Dict[int, List[int]] = {}
    for index, partition in enumerate(plan):
        rows_of.setdefault(partition, []).append(index)
    return list(rows_of.items())


def _lane_size(rows: Union[slice, List[int]], n: int) -> int:
    """How many of a batch's ``n`` rows one lane holds."""
    return len(range(n)[rows]) if isinstance(rows, slice) else len(rows)


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
    #: member_id -> the one topic that member reads
    members: Dict[str, str] = field(default_factory=dict)
    #: topic -> {partition -> member_id}
    assignment: Dict[str, Dict[int, str]] = field(default_factory=dict)
    #: topic -> fair-fetch rotation cursor (next partition to scan first)
    cursors: Dict[str, int] = field(default_factory=dict)

    def partitions_of(self, member_id: str, topic: str) -> List[int]:
        mapping = self.assignment.get(topic, {})
        return sorted(p for p, m in mapping.items() if m == member_id)


class _GroupTelemetry:
    """Fetch-side bound metric handles, resolved once per (group, topic)."""

    __slots__ = ("e2e", "lag")

    def __init__(self, broker: "Broker", group: str, topic: str):
        self.e2e = broker._e2e_latency.bind(group=group, topic=topic)
        self.lag = broker._lag.bind(group=group, topic=topic)


class Broker:
    """Topics, producers, consumer groups and backpressure.

    The public surface is everything tests and other layers need;
    ``_topics`` / ``_groups`` / ``_group_offsets`` / ``_positions`` are
    broker internals (lint rule API303 bans touching them outside
    ``repro/streaming/``).
    """

    def __init__(self, shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES):
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
        self.runtime = get_runtime()
        registry = self.runtime.registry
        self._lag = registry.gauge(
            "streaming.broker.lag",
            "records between a group's committed offsets and the log end")
        self._e2e_latency = registry.histogram(
            "streaming.broker.produce_to_consume_s",
            "sim-clock seconds between produce and fetch ("
            "observed only while a DES clock is bound)")
        self._group_telemetry_cache: Dict[Tuple[str, str],
                                          _GroupTelemetry] = {}

    # -- bound telemetry -----------------------------------------------------
    def _group_telemetry(self, group: str, topic: str) -> _GroupTelemetry:
        key = (group, topic)
        handles = self._group_telemetry_cache.get(key)
        if handles is None:
            handles = _GroupTelemetry(self, group, topic)
            self._group_telemetry_cache[key] = handles
        return handles

    # -- topics -----------------------------------------------------------------
    def create_topic(self, name: str, partitions: int = 4, *,
                     max_partition_records: Optional[int] = None,
                     share_ndarrays: bool = False) -> None:
        if name in self._topics:
            raise BrokerError(f"topic already exists: {name}")
        config = TopicConfig(
            partitions=partitions,
            max_partition_records=max_partition_records,
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
                key: Optional[str] = None) -> Record:
        """Append one record and return it.

        The one-record view of :meth:`produce_batch`: partition choice,
        admission, staging and the column append all live there.
        """
        batch = self.produce_batch(
            topic, (value,), key_fn=None if key is None else lambda _: key)
        return batch.record(0)

    def produce_batch(self, topic: str, values: Sequence[Any],
                      key_fn: Optional[Callable[[Any], Optional[str]]] = None
                      ) -> RecordBatch:
        """Append a batch atomically with respect to backpressure.

        Capacity is checked for the *whole* batch up front (after evicting
        the consumed head), so a full partition raises
        :class:`BackpressureError` before any record is appended — a
        retried batch can never duplicate a delivered prefix.

        Returns the appended rows as a :class:`RecordBatch` in input
        order (``len()`` and indexing behave like the old record list;
        ``Record`` objects materialize lazily).  This is the broker's one
        append path: one partition plan, one admission check, one bulk
        column append per touched partition.  Values come back as the
        producer's objects.
        """
        t = self._topic(topic)
        values = list(values)
        if not values:
            return RecordBatch.empty(topic)
        parts = t.partitions
        width = len(parts)
        n = len(values)
        keys: List[Optional[str]]
        if key_fn is None:
            # Round-robin row i goes to (cursor + i) % width: one rotation
            # of the partitions, repeated and cut to the batch, so each
            # partition's rows are one strided slice.
            start = t._round_robin % width
            rotation = [*range(start, width), *range(start)]
            plan = (rotation * -(-n // width))[:n]
            keys = [None] * n
            unkeyed = n
            lanes = [(rotation[lane], slice(lane, None, width))
                     for lane in range(min(width, n))]
        else:
            keys = list(map(key_fn, values))
            key = keys[0]
            if key is not None and keys.count(key) == n:
                # One key (a camera's chunk): one lookup, one lane.
                plan = [t.partition_for_key(key)] * n
                unkeyed = 0
                lanes = [(plan[0], slice(None))]
            else:
                plan = t.plan_partitions(keys)
                unkeyed = keys.count(None)
                lanes = _lanes(plan)
        self._admit(t, lanes, n)
        t._round_robin += unkeyed
        # Record timestamps: sim time when bound, else one logical tick
        # per appended record.
        if self.runtime.clock_kind == "sim":
            stamps = [self.runtime.now()] * n
        else:
            stamps = list(map(float, range(self._ticks, self._ticks + n)))
            self._ticks += n
        stage = (t.config.share_ndarrays
                 and not stages_nothing(values, self.shm_min_bytes))
        offsets = [0] * n
        for partition, rows in lanes:
            part = parts[partition]
            lane_values = _take(values, rows)
            lane_offsets = range(part.end_offset,
                                 part.end_offset + len(lane_values))
            if stage:
                lane_values = [self._store_value(part, offset, value)
                               for offset, value
                               in zip(lane_offsets, lane_values)]
            _put(offsets, rows, lane_offsets)
            part.offsets.extend(lane_offsets)
            part.keys.extend([None] * len(lane_values) if key_fn is None
                             else _take(keys, rows))
            part.values.extend(lane_values)
            part.timestamps.extend(_take(stamps, rows))
            part.end_offset = lane_offsets.stop
        return RecordBatch(topic, plan, offsets, keys, values, stamps)

    def _admit(self, t: _Topic,
               lanes: Sequence[Tuple[int, Union[slice, List[int]]]],
               n: int) -> None:
        """Raise :class:`BackpressureError` unless an ``n``-row batch fits.

        ``lanes`` is the batch split by partition, so each touched
        partition is counted once; a partition the lane overfills first
        evicts its consumed head.  A lane larger than the bound can never
        fit, so it raises plain :class:`BrokerError` (not retryable)
        before anything is evicted.  The common unbounded case returns at
        once.
        """
        bound = t.config.max_partition_records
        if bound is None:
            return
        needs = [(partition, _lane_size(rows, n)) for partition, rows in lanes]
        for partition, needed in needs:
            if needed > bound:
                raise BrokerError(
                    f"topic {t.name} partition {partition} gets {needed} "
                    f"rows of one batch, more than its bound {bound}; "
                    f"split the batch")
        overfull = []
        for partition, needed in needs:
            part = t.partitions[partition]
            if len(part.offsets) + needed > bound:
                self._evict_consumed_head(t, partition)
                if len(part.offsets) + needed > bound:
                    overfull.append(partition)
        if overfull:
            raise BackpressureError(
                f"topic {t.name} partitions {sorted(overfull)} are full "
                f"(bound {bound}); retry after consumers commit")

    def _evict_consumed_head(self, t: _Topic, partition: int) -> None:
        """Trim records already committed by every group that consumes here.

        A group consumes here once it has committed on the partition or
        while it has members subscribed to the topic; a subscribed group
        that has not committed yet pins the head at offset 0.
        """
        offsets = self._group_offsets
        groups = {group for (group, topic, p) in offsets
                  if topic == t.name and p == partition}
        groups.update(group.name for group in self._groups.values()
                      if t.name in group.assignment)
        if not groups:
            return
        safe = min(offsets.get((group, t.name, partition), 0)
                   for group in groups)
        part = t.partitions[partition]
        cut = part.index_for(safe)
        if cut:
            self._truncate_head(part, cut)

    def _truncate_head(self, part: _Partition, count: int) -> None:
        if part.shm:
            for offset in part.offsets[:count]:
                self._release(part, offset)
        part.truncate_head(count)

    # -- zero-copy payload transport -----------------------------------------------
    def _store_value(self, part: _Partition, offset: int,
                     value: Any) -> Any:
        encoded, staged, segments = share_ndarrays(value, self.shm_min_bytes)
        if segments:
            part.shm[offset] = segments
            for segment in segments:
                self._segments[segment.name] = segment
            self._staged_bytes += staged
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
    def consumer(self, group: str, topic: str, *,
                 auto_commit: bool = True) -> "Consumer":
        """Join ``group`` as a new member reading ``topic``.

        Joining rebalances the group: partitions are redistributed over
        the members reading each topic and fetch positions reset to the
        committed offsets.  A group spans several topics only through
        different members.
        """
        return Consumer(self, group, topic, auto_commit=auto_commit)

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

    def _join(self, group_name: str, member_id: str, topic: str) -> None:
        group = self._group(group_name)
        group.members[member_id] = topic
        self._rebalance(group, reason="join")

    def _leave(self, group_name: str, member_id: str) -> None:
        group = self._group(group_name)
        if member_id in group.members:
            del group.members[member_id]
            self._rebalance(group, reason="leave")

    def _rebalance(self, group: _Group, reason: str) -> None:
        group.generation += 1
        affected = sorted(set(group.assignment) | set(group.members.values()))
        with self.runtime.tracer.span("streaming.broker.rebalance",
                                      group=group.name, reason=reason,
                                      generation=group.generation):
            assignment: Dict[str, Dict[int, str]] = {}
            for topic in affected:
                t = self._topic(topic)
                subscribers = sorted(
                    member for member, subscribed in group.members.items()
                    if subscribed == topic)
                if subscribers:
                    assignment[topic] = {
                        p: subscribers[p % len(subscribers)]
                        for p in range(len(t.partitions))}
                # Uncommitted fetches are redelivered to the new owners:
                # positions collapse back to the committed offsets.
                for p in range(len(t.partitions)):
                    self._positions.pop((group.name, topic, p), None)
            group.assignment = assignment

    # -- fetch --------------------------------------------------------------------
    def _fetch_batch(self, consumer: "Consumer",
                     max_records: int) -> RecordBatch:
        """Columnar fetch from the member's partitions, fairly rotated.

        A per-(group, topic) cursor decides which partition the scan
        starts at and advances past whichever partition filled the
        budget, so a hot low-numbered partition can no longer starve its
        siblings under bounded polls.  Each partition contributes one
        column *slice* — no per-record objects; shared-memory payloads
        resolve to read-only views row by row only where staged.
        """
        topic = consumer.topic
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
        if out_offsets and self.runtime.clock_kind == "sim":
            now = self.runtime.now()
            observe = self._group_telemetry(group.name, topic).e2e.observe
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
        topic = consumer.topic
        committed: Dict[Tuple[str, int], int] = {}
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
        group, topic = self._group(consumer.group), consumer.topic
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

    def __init__(self, broker: Broker, group: str, topic: str,
                 auto_commit: bool = True):
        broker._topic(topic)  # validate
        self.broker = broker
        self.group = group
        self.topic = topic
        self.auto_commit = auto_commit
        self.member_id = broker.runtime.gensym(f"{group}-member")
        self._closed = False
        broker._join(group, self.member_id, topic)
        self.generation = broker.group_generation(group)

    # -- membership -----------------------------------------------------------
    def assignment(self) -> List[Tuple[str, int]]:
        """The (topic, partition) pairs this member currently owns."""
        self._ensure_open()
        self._sync()
        group = self.broker._group(self.group)
        return [(self.topic, partition)
                for partition in group.partitions_of(self.member_id,
                                                     self.topic)]

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
        the result.  ``batch.groups()`` yields per-key sub-batches (a
        camera's frames together, ready to stack for the gateway).
        """
        self._ensure_open()
        if max_records < 1:
            raise BrokerError(f"max_records must be >= 1: {max_records}")
        self._sync()
        out = self.broker._fetch_batch(self, max_records)
        if self.auto_commit and out:
            self.broker._commit(self)
        return out

    def drain(self) -> List[Record]:
        """Poll, 100 records at a time, until no new records remain."""
        out: List[Record] = []
        while True:
            batch = self.poll(100)
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
        for partition in group.partitions_of(self.member_id, self.topic):
            position = broker._positions.get(
                (self.group, self.topic, partition))
            if position is not None:
                snapshot[(self.topic, partition)] = position
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
