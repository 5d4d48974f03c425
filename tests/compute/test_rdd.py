"""Tests for the Spark-like RDD engine."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compute import SparkContext
from repro.dfs import DistributedFileSystem


def sc(parallelism=4):
    return SparkContext(default_parallelism=parallelism)


class TestBasics:
    def test_parallelize_collect_roundtrip(self):
        data = list(range(17))
        assert sorted(sc().parallelize(data).collect()) == data

    def test_partition_count(self):
        rdd = sc(3).parallelize(range(10))
        assert rdd.num_partitions == 3

    def test_default_parallelism_used(self):
        assert sc(5).parallelize(range(10)).num_partitions == 5

    def test_validates_parallelism(self):
        with pytest.raises(ValueError):
            SparkContext(default_parallelism=0)

    def test_count(self):
        assert sc().parallelize(range(23)).count() == 23

    def test_empty_rdd(self):
        rdd = sc().parallelize([])
        assert rdd.collect() == []
        assert rdd.count() == 0


class TestNarrowTransformations:
    def test_map(self):
        out = sc().parallelize([1, 2, 3]).map(lambda x: x * 10).collect()
        assert sorted(out) == [10, 20, 30]

    def test_filter(self):
        out = sc().parallelize(range(10)).filter(lambda x: x % 2 == 0).collect()
        assert sorted(out) == [0, 2, 4, 6, 8]

    def test_flat_map(self):
        out = sc().parallelize(["a b", "c"]).flatMap(str.split).collect()
        assert sorted(out) == ["a", "b", "c"]

    def test_map_partitions(self):
        rdd = sc(2).parallelize(range(8))
        out = rdd.mapPartitions(lambda it: [sum(it)]).collect()
        assert sum(out) == sum(range(8))
        assert len(out) == 2

    def test_chained_transformations_lazy(self):
        context = sc()
        rdd = context.parallelize(range(100)).map(lambda x: x + 1).filter(
            lambda x: x > 50)
        assert context.partitions_computed == 0  # nothing evaluated yet
        rdd.collect()
        assert context.partitions_computed > 0

    def test_union(self):
        a = sc(2).parallelize([1, 2])
        b = a.context.parallelize([3, 4])
        union = a.union(b)
        assert sorted(union.collect()) == [1, 2, 3, 4]
        assert union.num_partitions == 4

    def test_sample_deterministic_and_bounded(self):
        rdd = sc().parallelize(range(1000))
        first = rdd.sample(0.1, seed=1).collect()
        second = rdd.sample(0.1, seed=1).collect()
        assert first == second
        assert 50 < len(first) < 200

    def test_sample_validates(self):
        with pytest.raises(ValueError):
            sc().parallelize([1]).sample(2.0)


class TestWideTransformations:
    def test_reduce_by_key(self):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 4)]
        out = dict(sc().parallelize(pairs).reduceByKey(lambda a, b: a + b).collect())
        assert out == {"a": 4, "b": 6}

    def test_reduce_by_key_counts_shuffle(self):
        context = sc()
        rdd = context.parallelize([("a", 1)]).reduceByKey(lambda a, b: a + b)
        rdd.collect()
        assert context.shuffle_count == 1

    def test_reduce_by_key_combines_each_partition_before_the_shuffle(self):
        # 4 partitions of 25 ("k", 1) rows: 24 map-side folds each, then
        # the reduce side folds the four 25-row partials, as Spark's
        # combiner does (without it every fold would take a raw 1)
        right_operands = []

        def add(a, b):
            right_operands.append(b)
            return a + b

        out = sc(4).parallelize([("k", 1)] * 100).reduceByKey(add).collect()
        assert out == [("k", 100)]
        assert len(right_operands) == 99
        assert [b for b in right_operands if b != 1] == [25, 25, 25]

    def test_reduce_by_key_keeps_fold_and_key_order(self):
        # associative but not commutative: each key folds its values in
        # partition order, and keys come out in first-seen order per bucket
        items = [("a", "0"), ("b", "1"), ("a", "2"), ("a", "3"), ("b", "4"),
                 ("a", "5"), ("a", "6"), (7, "7"), (7, "8"), ("b", "9")]
        concat = sc(2).parallelize(items).reduceByKey(lambda a, b: a + b)
        assert concat.collect() == [("a", "02635"), ("b", "419"), (7, "87")]
        lists = sc(3).parallelize([(k, [v]) for k, v in items]) \
            .reduceByKey(lambda a, b: a + b)
        assert lists.collect() == [("b", ["9", "1", "4"]), (7, ["7", "8"]),
                                   ("a", ["0", "3", "6", "2", "5"])]

    def test_reduce_by_key_counts_partitions_once(self):
        context = sc(3)
        context.parallelize([("a", 1), ("b", 1)] * 6) \
            .reduceByKey(lambda a, b: a + b).collect()
        assert context.shuffle_count == 1
        # the shuffle reads the three parent partitions once each, and
        # collect reads the three reduced ones
        assert context.partitions_computed == 3 + 3

    def test_distinct_keeps_first_seen_keys(self):
        mixed = sc(3).parallelize(["x", 3, "y", 1, 3, "x", 2.0, 1, "z", 2])
        assert mixed.distinct().collect() == [3, "y", "z", "x", 1, 2.0]
        equal = sc(2).parallelize([1, True, 1.0, 2, 2.0]).distinct()
        assert equal.collect() == [2.0, 1]

    def test_group_by_key(self):
        pairs = [("a", 1), ("a", 2), ("b", 3)]
        out = dict(sc().parallelize(pairs).groupByKey().collect())
        assert sorted(out["a"]) == [1, 2]
        assert out["b"] == [3]

    def test_join(self):
        left = sc().parallelize([("u1", "alice"), ("u2", "bob")])
        right = left.context.parallelize([("u1", 30), ("u1", 31), ("u3", 99)])
        out = sorted(left.join(right).collect())
        assert out == [("u1", ("alice", 30)), ("u1", ("alice", 31))]

    def test_distinct(self):
        out = sc().parallelize([1, 2, 2, 3, 3, 3]).distinct().collect()
        assert sorted(out) == [1, 2, 3]

    def test_sort_by(self):
        out = sc().parallelize([3, 1, 2]).sortBy(lambda x: x).collect()
        assert out == [1, 2, 3]

    def test_sort_by_descending(self):
        out = sc().parallelize([3, 1, 2]).sortBy(lambda x: x,
                                                 descending=True).collect()
        assert out == [3, 2, 1]

    def test_word_count_pipeline(self):
        lines = ["the quick brown fox", "the lazy dog", "the fox"]
        counts = dict(
            sc().parallelize(lines)
            .flatMap(str.split)
            .map(lambda w: (w, 1))
            .reduceByKey(lambda a, b: a + b)
            .collect())
        assert counts["the"] == 3
        assert counts["fox"] == 2
        assert counts["dog"] == 1

    def test_str_key_shuffle_ignores_hash_seed(self):
        # str hashes are salted per process; the shuffled order must not be
        job = ("from repro.compute import SparkContext\n"
               "words = 'a b c d e f g h'.split()\n"
               "rdd = SparkContext().parallelize([(w, 1) for w in words])\n"
               "print(rdd.reduceByKey(lambda a, b: a + b).collect())\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(subprocess.run(
                [sys.executable, "-c", job], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert len(outputs) == 1


class TestActions:
    def test_reduce(self):
        assert sc().parallelize(range(5)).reduce(lambda a, b: a + b) == 10

    def test_reduce_empty_rejected(self):
        with pytest.raises(ValueError):
            sc().parallelize([]).reduce(lambda a, b: a + b)

    def test_take(self):
        assert len(sc().parallelize(range(100)).take(5)) == 5
        assert sc(2).parallelize(range(5)).take(0) == []

    def test_take_more_than_available(self):
        assert sorted(sc().parallelize([1, 2]).take(10)) == [1, 2]

    def test_first(self):
        assert sc().parallelize([7, 8]).first() in (7, 8)
        with pytest.raises(ValueError):
            sc().parallelize([]).first()

    def test_sum_and_mean(self):
        rdd = sc().parallelize([1.0, 2.0, 3.0])
        assert rdd.sum() == 6.0
        assert rdd.mean() == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            sc().parallelize([]).mean()


class TestCaching:
    def test_cache_avoids_recomputation(self):
        context = sc(2)
        calls = []

        def traced(x):
            calls.append(x)
            return x

        rdd = context.parallelize(range(10)).map(traced).cache()
        rdd.collect()
        first_calls = len(calls)
        rdd.collect()
        assert len(calls) == first_calls  # second pass served from cache

    def test_uncached_recomputes(self):
        calls = []

        def traced(x):
            calls.append(x)
            return x

        rdd = sc(2).parallelize(range(10)).map(traced)
        rdd.collect()
        rdd.collect()
        assert len(calls) == 20

    def test_is_cached_flag(self):
        rdd = sc().parallelize([1])
        assert not rdd.is_cached
        assert rdd.cache().is_cached


class TestDFSIntegration:
    def test_text_file_single(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        dfs.create("/logs/a.txt", b"line1\nline2\nline3")
        rdd = sc().text_file(dfs, "/logs/a.txt")
        assert sorted(rdd.collect()) == ["line1", "line2", "line3"]

    def test_text_file_directory(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        dfs.create("/logs/a.txt", b"alpha")
        dfs.create("/logs/b.txt", b"beta")
        rdd = sc().text_file(dfs, "/logs")
        assert sorted(rdd.collect()) == ["alpha", "beta"]
