"""Property-based tests for DStreams, grid aggregation and the
parameter server."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute import GridAggregator, StreamingContext, assign_districts
from repro.nn.distributed import ParameterServer
from repro import nn
from repro.streaming import Broker

UNIT_POINTS = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False),
              st.floats(0, 1, allow_nan=False)),
    min_size=0, max_size=40)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=60),
       st.integers(1, 20), st.integers(1, 4))
def test_dstream_conserves_records(values, batch_size, partitions):
    bus = Broker()
    bus.create_topic("t", partitions=partitions)
    for value in values:
        bus.produce("t", value)
    context = StreamingContext(bus, batch_max_records=batch_size)
    seen = []
    context.stream("t").foreach_batch(seen.extend)
    consumed = context.run_until_idle()
    assert consumed == len(values)
    assert sorted(seen) == sorted(values)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=0, max_size=50),
       st.integers(1, 15))
def test_dstream_filter_partition_is_exact(values, batch_size):
    bus = Broker()
    bus.create_topic("t", partitions=2)
    for value in values:
        bus.produce("t", value)
    context = StreamingContext(bus, batch_max_records=batch_size)
    negatives, nonnegatives = [], []
    stream = context.stream("t")
    stream.filter(lambda x: x < 0).foreach_batch(negatives.extend)
    stream.filter(lambda x: x >= 0).foreach_batch(nonnegatives.extend)
    context.run_until_idle()
    assert sorted(negatives + nonnegatives) == sorted(values)
    assert all(x < 0 for x in negatives)


@settings(max_examples=30, deadline=None)
@given(UNIT_POINTS, st.integers(1, 6), st.integers(1, 6))
def test_grid_aggregation_conserves_counts(points, rows, cols):
    grid = GridAggregator(rows=rows, cols=cols).aggregate(points)
    assert grid.sum() == len(points)
    assert (grid >= 0).all()


@settings(max_examples=30, deadline=None)
@given(UNIT_POINTS)
def test_grid_density_bounded(points):
    density = GridAggregator(rows=4, cols=4).density(points)
    assert (density >= 0).all()
    assert density.max() <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(UNIT_POINTS)
def test_hotspots_ordered_and_within_grid(points):
    aggregator = GridAggregator(rows=5, cols=5)
    hotspots = aggregator.hotspots(points, top=5)
    counts = [h["count"] for h in hotspots]
    assert counts == sorted(counts, reverse=True)
    for spot in hotspots:
        assert 0 <= spot["center"][0] <= 1
        assert 0 <= spot["center"][1] <= 1


@settings(max_examples=30, deadline=None)
@given(UNIT_POINTS)
def test_assign_districts_picks_true_nearest(points):
    centers = {1: (0.2, 0.2), 2: (0.8, 0.8), 3: (0.2, 0.8)}
    labels = assign_districts(points, centers)
    for point, label in zip(points, labels):
        chosen = np.hypot(point[0] - centers[label][0],
                          point[1] - centers[label][1])
        for other in centers.values():
            distance = np.hypot(point[0] - other[0], point[1] - other[1])
            assert chosen <= distance + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=8),
       st.floats(0.01, 0.5, allow_nan=False))
def test_parameter_server_applies_exact_sgd(gradient_values, lr):
    model = nn.Sequential(nn.Linear(len(gradient_values), 1,
                                    rng=np.random.default_rng(0)))
    server = ParameterServer(model, lr=lr)
    before = dict(model.named_parameters())["layer0.weight"].data.copy()
    gradient = np.array(gradient_values).reshape(1, -1)
    server.push({"layer0.weight": gradient}, 0)
    after = dict(model.named_parameters())["layer0.weight"].data
    np.testing.assert_allclose(after, before - lr * gradient, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_parameter_server_version_counts_pushes(pushes):
    model = nn.Sequential(nn.Linear(2, 1))
    server = ParameterServer(model)
    for _ in range(pushes):
        server.push({"layer0.bias": np.zeros(1)}, 0)
    assert server.version == pushes
    assert server.updates_applied == pushes
