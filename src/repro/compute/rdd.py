"""Spark-style resilient distributed datasets.

An :class:`RDD` is a lazy, partitioned collection with a lineage of
transformations.  Narrow transformations (map/filter/flatMap) evaluate
partition-by-partition; wide transformations (reduceByKey, groupByKey,
join, distinct, sortBy) insert a *shuffle*: all parent partitions are
evaluated, records are hash-partitioned by key, and a new stage begins.
The :class:`SparkContext` counts shuffles and evaluated partitions so the
substrate benchmarks can report stage structure.  Partitions evaluate
one after another in the calling process, in partition order.

Fault-tolerance flavour: partitions are recomputed from lineage on demand;
``cache()`` pins computed partitions in memory.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import zlib
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.runtime import get_runtime


def _partition_of(key: Any, n: int) -> int:
    """The shuffle bucket of ``key`` among ``n``, the same in every process.

    Numbers keep ``hash(key) % n`` (Python's numeric hash is unsalted and
    equal for equal numbers of any type).  ``str`` and ``bytes`` hashes
    are salted per process by ``PYTHONHASHSEED``, so every other key
    buckets by a CRC of its ``repr``; keys that compare equal must then
    have equal reprs, which holds for strings, tuples and dataclasses.
    """
    if isinstance(key, numbers.Number):
        return hash(key) % n
    return zlib.crc32(repr(key).encode()) % n


class SparkContext:
    """Entry point: creates base RDDs and tracks execution metrics.

    Shuffle and partition counts live in the shared runtime registry
    (``compute.spark.shuffles`` / ``compute.spark.partitions_computed``,
    labeled per context); :attr:`shuffle_count` and
    :attr:`partitions_computed` are views over those series, so the
    existing benchmark API keeps working.
    """

    def __init__(self, default_parallelism: int = 4):
        if default_parallelism < 1:
            raise ValueError(
                f"default_parallelism must be >= 1: {default_parallelism}")
        self.default_parallelism = default_parallelism
        self._rdd_ids = itertools.count()
        self.runtime = get_runtime()
        self._label = self.runtime.gensym("spark-ctx")
        registry = self.runtime.registry
        self._shuffles = registry.counter(
            "compute.spark.shuffles", "wide transformations executed")
        self._partitions = registry.counter(
            "compute.spark.partitions_computed", "partition evaluations")

    @property
    def shuffle_count(self) -> int:
        return int(self._shuffles.value(ctx=self._label))

    @property
    def partitions_computed(self) -> int:
        return int(self._partitions.value(ctx=self._label))

    def _record_shuffle(self) -> None:
        self._shuffles.inc(ctx=self._label)

    def _record_partition(self) -> None:
        self._partitions.inc(ctx=self._label)

    def parallelize(self, data: Iterable) -> "RDD":
        """``data`` over ``default_parallelism`` partitions."""
        items = list(data)
        n = self.default_parallelism
        # Item i goes to partition i % n: partition p is a strided slice.
        chunks = [items[index::n] for index in range(n)]
        return RDD(self, lambda i: iter(chunks[i]), n, name="parallelize")

    def text_file(self, dfs, path: str) -> "RDD":
        """Lines of a DFS file (or every file under a directory prefix)."""
        paths = [path] if dfs.exists(path) else dfs.listdir(path)
        lines: List[str] = []
        for p in paths:
            lines.extend(dfs.read(p).decode().splitlines())
        return self.parallelize(lines)


class RDD:
    """A partitioned, lazily-evaluated dataset with recorded lineage.

    The lineage lives in the ``compute`` closures: a narrow
    transformation's closure pulls its parent's partition, and a
    shuffle's output holds materialized buckets that start a new stage.
    """

    def __init__(self, context: SparkContext,
                 compute: Callable[[int], Iterator],
                 num_partitions: int, name: str = "rdd"):
        self.context = context
        self._compute = compute
        self.num_partitions = num_partitions
        self.name = name
        self.rdd_id = next(context._rdd_ids)
        self._cache: Optional[Dict[int, List]] = None

    # -- evaluation ----------------------------------------------------------
    def _iter_partition(self, index: int) -> Iterator:
        if self._cache is not None and index in self._cache:
            return iter(self._cache[index])
        self.context._record_partition()
        values = self._compute(index)
        if self._cache is not None:
            values = list(values)
            self._cache[index] = values
            return iter(values)
        return values

    def cache(self) -> "RDD":
        """Pin computed partitions in memory; returns self."""
        if self._cache is None:
            self._cache = {}
        return self

    @property
    def is_cached(self) -> bool:
        return self._cache is not None

    # -- narrow transformations -------------------------------------------------
    def map(self, fn: Callable) -> "RDD":
        return RDD(self.context,
                   lambda i: (fn(x) for x in self._iter_partition(i)),
                   self.num_partitions, name=f"{self.name}.map")

    def filter(self, predicate: Callable) -> "RDD":
        return RDD(self.context,
                   lambda i: (x for x in self._iter_partition(i) if predicate(x)),
                   self.num_partitions, name=f"{self.name}.filter")

    def flatMap(self, fn: Callable) -> "RDD":
        def compute(i):
            for item in self._iter_partition(i):
                yield from fn(item)
        return RDD(self.context, compute, self.num_partitions,
                   name=f"{self.name}.flatMap")

    def mapPartitions(self, fn: Callable[[Iterator], Iterator]) -> "RDD":
        # The stage id in the name keeps debug names unambiguous when the
        # same lineage applies mapPartitions more than once.
        return RDD(self.context, lambda i: iter(fn(self._iter_partition(i))),
                   self.num_partitions,
                   name=f"{self.name}.mapPartitions@{self.rdd_id}")

    def mapPartitionsWithIndex(
            self, fn: Callable[[int, Iterator], Iterable]) -> "RDD":
        """Like :meth:`mapPartitions`, but ``fn(index, iterator)`` also
        receives the partition index — the stage-local task id that
        per-partition seeding keys on."""
        return RDD(self.context,
                   lambda i: iter(fn(i, self._iter_partition(i))),
                   self.num_partitions,
                   name=f"{self.name}.mapPartitionsWithIndex@{self.rdd_id}")

    def union(self, other: "RDD") -> "RDD":
        mine = self.num_partitions

        def compute(i):
            if i < mine:
                return self._iter_partition(i)
            return other._iter_partition(i - mine)

        return RDD(self.context, compute, mine + other.num_partitions,
                   name=f"{self.name}.union")

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        rng_context = self.context.runtime.rng

        def compute(i):
            rng = rng_context.child("rdd.sample", seed, i)
            return (x for x in self._iter_partition(i)
                    if rng.random() < fraction)

        return RDD(self.context, compute, self.num_partitions,
                   name=f"{self.name}.sample")

    # -- shuffles (wide transformations) -------------------------------------------
    def _shuffle_by_key(self, n: int, combine: Optional[Callable] = None
                        ) -> List[List[Tuple]]:
        """Materialize and hash-partition (key, value) records into ``n``
        buckets.

        Partitions are read in order, so each bucket holds its records in
        partition order and every downstream reduce folds them in that
        order.  A key's bucket (:func:`_partition_of`) is computed once
        per distinct key.  With ``combine``, each partition is first
        folded per key, left to right, as Spark's map-side combine does:
        a bucket then holds one partial per (key, partition), keys in
        first-seen order.
        """
        self.context._record_shuffle()
        buckets: List[List[Tuple]] = [[] for _ in range(n)]
        bucket_of: Dict[Any, List[Tuple]] = {}
        for index in range(self.num_partitions):
            records = self._iter_partition(index)
            if combine is not None:
                partials: Dict = {}
                for key, value in records:
                    partials[key] = (combine(partials[key], value)
                                     if key in partials else value)
                records = partials.items()
            for key, value in records:
                bucket = bucket_of.get(key)
                if bucket is None:
                    bucket = bucket_of[key] = buckets[_partition_of(key, n)]
                bucket.append((key, value))
        return buckets

    def reduceByKey(self, fn: Callable) -> "RDD":
        buckets = self._shuffle_by_key(self.num_partitions, combine=fn)
        reduced: List[List[Tuple]] = []
        for bucket in buckets:
            acc: Dict = {}
            for key, value in bucket:
                acc[key] = fn(acc[key], value) if key in acc else value
            reduced.append(list(acc.items()))
        return RDD(self.context, lambda i: iter(reduced[i]), len(reduced),
                   name=f"{self.name}.reduceByKey")

    def groupByKey(self) -> "RDD":
        buckets = self._shuffle_by_key(self.num_partitions)
        grouped: List[List[Tuple]] = []
        for bucket in buckets:
            acc: Dict[Any, List] = defaultdict(list)
            for key, value in bucket:
                acc[key].append(value)
            grouped.append([(k, list(v)) for k, v in acc.items()])
        return RDD(self.context, lambda i: iter(grouped[i]), len(grouped),
                   name=f"{self.name}.groupByKey")

    def join(self, other: "RDD") -> "RDD":
        """Inner join of two (key, value) RDDs -> (key, (left, right))."""
        n = max(self.num_partitions, other.num_partitions)
        left = self._shuffle_by_key(n)
        right = other._shuffle_by_key(n)
        joined: List[List[Tuple]] = []
        for bucket_index in range(n):
            left_map: Dict[Any, List] = defaultdict(list)
            for key, value in left[bucket_index]:
                left_map[key].append(value)
            rows = []
            for key, rvalue in right[bucket_index]:
                for lvalue in left_map.get(key, ()):
                    rows.append((key, (lvalue, rvalue)))
            joined.append(rows)
        return RDD(self.context, lambda i: iter(joined[i]), n,
                   name=f"{self.name}.join")

    def distinct(self) -> "RDD":
        deduped = self.map(lambda x: (x, None)).reduceByKey(lambda a, b: a)
        return deduped.map(lambda kv: kv[0])

    def sortBy(self, key_fn: Callable, descending: bool = False) -> "RDD":
        self.context._record_shuffle()
        items = sorted(self._collect_all(), key=key_fn, reverse=descending)
        n = self.num_partitions
        chunk = max(1, (len(items) + n - 1) // n)
        chunks = [items[i:i + chunk] for i in range(0, max(len(items), 1), chunk)]
        while len(chunks) < n:
            chunks.append([])
        return RDD(self.context, lambda i: iter(chunks[i]), len(chunks),
                   name=f"{self.name}.sortBy")

    # -- actions ------------------------------------------------------------------
    def _collect_all(self) -> List:
        out: List = []
        for index in range(self.num_partitions):
            out.extend(self._iter_partition(index))
        return out

    def collect(self) -> List:
        return self._collect_all()

    def count(self) -> int:
        return sum(sum(1 for _ in self._iter_partition(index))
                   for index in range(self.num_partitions))

    def reduce(self, fn: Callable):
        """Fold all items with ``fn``, one partial fold per partition.

        Like Spark's ``reduce``, ``fn`` must be associative: each
        partition is folded left-to-right and the per-partition partials
        are folded in partition order, which for associative ``fn``
        equals the left fold over all items.
        """
        partials = []
        for index in range(self.num_partitions):
            items = list(self._iter_partition(index))
            if items:
                partials.append(functools.reduce(fn, items))
        if not partials:
            raise ValueError("reduce of an empty RDD")
        return functools.reduce(fn, partials)

    def take(self, n: int) -> List:
        if n <= 0:
            return []
        out: List = []
        for index in range(self.num_partitions):
            for item in self._iter_partition(index):
                out.append(item)
                if len(out) >= n:
                    return out
        return out

    def first(self):
        taken = self.take(1)
        if not taken:
            raise ValueError("first() on an empty RDD")
        return taken[0]

    def sum(self):
        return sum(self._collect_all())

    def mean(self) -> float:
        items = self._collect_all()
        if not items:
            raise ValueError("mean of an empty RDD")
        return sum(items) / len(items)
