"""mapPartitions / mapPartitionsWithIndex: stage names, indices, laziness."""

from repro.compute.rdd import SparkContext
from repro.runtime import Runtime, using_runtime


class TestMapPartitionsLineage:
    def test_name_includes_stage_id(self):
        with using_runtime(Runtime()):
            sc = SparkContext()
            base = sc.parallelize(range(8), 2)
            staged = base.mapPartitions(lambda it: [sum(it)])
            assert f"@{base.rdd_id}" in staged.name
            assert "mapPartitions" in staged.name

    def test_with_index_passes_partition_index(self):
        with using_runtime(Runtime()):
            sc = SparkContext()
            rdd = sc.parallelize(range(6), 3)
            out = rdd.mapPartitionsWithIndex(
                lambda i, it: [(i, len(list(it)))]).collect()
        assert out == [(0, 2), (1, 2), (2, 2)]

    def test_with_index_is_lazy(self):
        with using_runtime(Runtime()):
            sc = SparkContext()
            rdd = sc.parallelize(range(6), 3).mapPartitionsWithIndex(
                lambda i, it: ((i, x) for x in it))
            assert sc.partitions_computed == 0
            rdd.collect()
            assert sc.partitions_computed > 0
