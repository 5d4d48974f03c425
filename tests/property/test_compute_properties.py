"""Property-based tests for the RDD engine, message bus and graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute import Graph, SparkContext
from repro.streaming import Broker

INTS = st.lists(st.integers(-50, 50), min_size=0, max_size=40)
PAIRS = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-5, 5)),
                 min_size=0, max_size=30)


@settings(max_examples=30, deadline=None)
@given(INTS, st.integers(1, 6))
def test_rdd_collect_preserves_multiset(data, partitions):
    rdd = SparkContext(default_parallelism=partitions).parallelize(data)
    assert sorted(rdd.collect()) == sorted(data)
    assert rdd.count() == len(data)


@settings(max_examples=30, deadline=None)
@given(INTS, st.integers(1, 6))
def test_rdd_map_filter_match_python(data, partitions):
    rdd = SparkContext(default_parallelism=partitions).parallelize(data)
    out = rdd.map(lambda x: x * 3).filter(lambda x: x % 2 == 0).collect()
    expected = [x * 3 for x in data if (x * 3) % 2 == 0]
    assert sorted(out) == sorted(expected)


@settings(max_examples=30, deadline=None)
@given(PAIRS, st.integers(1, 5))
def test_rdd_reduce_by_key_matches_python(pairs, partitions):
    rdd = SparkContext(default_parallelism=partitions).parallelize(pairs)
    result = dict(rdd.reduceByKey(lambda a, b: a + b).collect())
    expected = {}
    for key, value in pairs:
        expected[key] = expected.get(key, 0) + value
    assert result == expected


@settings(max_examples=30, deadline=None)
@given(INTS)
def test_rdd_distinct_is_set(data):
    out = SparkContext().parallelize(data).distinct().collect()
    assert sorted(out) == sorted(set(data))


@settings(max_examples=30, deadline=None)
@given(INTS)
def test_rdd_sort_by_sorts(data):
    out = SparkContext().parallelize(data).sortBy(lambda x: x).collect()
    assert out == sorted(data)


@settings(max_examples=30, deadline=None)
@given(PAIRS, PAIRS)
def test_rdd_join_matches_python(left, right):
    context = SparkContext()
    joined = context.parallelize(left).join(
        context.parallelize(right)).collect()
    expected = [(k, (lv, rv)) for k, lv in left for rk, rv in right
                if rk == k]
    assert sorted(joined) == sorted(expected)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 99)),
                min_size=0, max_size=40),
       st.integers(1, 6))
def test_bus_preserves_per_key_order(messages, partitions):
    bus = Broker()
    bus.create_topic("t", partitions=partitions)
    for key, value in messages:
        bus.produce("t", value, key=key)
    consumed = bus.consumer("g", "t").drain()
    for key in "xyz":
        got = [r.value for r in consumed if r.key == key]
        expected = [v for k, v in messages if k == key]
        assert got == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=40),
       st.integers(1, 4), st.integers(2, 4))
def test_bus_every_group_sees_every_record(values, partitions, groups):
    bus = Broker()
    bus.create_topic("t", partitions=partitions)
    for value in values:
        bus.produce("t", value)
    for group in range(groups):
        consumed = bus.consumer(f"g{group}", "t").drain()
        assert sorted(r.value for r in consumed) == sorted(values)


def random_graph(edge_seed, n=8, p=0.35):
    rng = np.random.default_rng(edge_seed)
    vertices = {i: None for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(vertices, edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_pagerank_is_distribution(seed):
    graph = random_graph(seed)
    ranks = graph.pagerank()
    np.testing.assert_allclose(sum(ranks.values()), 1.0, atol=1e-6)
    assert all(rank >= 0 for rank in ranks.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 7))
def test_neighborhood_monotone_in_depth(seed, vertex):
    graph = random_graph(seed)
    previous = set()
    for depth in range(4):
        current = graph.n_degree_neighborhood(vertex, depth)
        assert previous <= current
        previous = current


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_components_partition_vertices(seed):
    graph = random_graph(seed, p=0.15)
    components = graph.connected_components()
    assert set(components) == set(graph.vertices)
    # Every edge joins same-component vertices.
    for src, dst, _ in graph.edges:
        assert components[src] == components[dst]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_count_matches_networkx(seed):
    import networkx as nx
    graph = random_graph(seed)
    nx_graph = nx.Graph([(s, d) for s, d, _ in graph.edges])
    nx_graph.add_nodes_from(graph.vertices)
    expected = sum(nx.triangles(nx_graph).values()) // 3
    assert graph.triangle_count() == expected
