"""Property-based tests for the sim kernel, fog costing, Flume and stores."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Environment, NetworkTopology, Tier
from repro.fog import (
    FogPipeline,
    model_split_from_early_exit,
    place_bottom_up,
)
from repro.streaming import Channel, FlumeAgent, FunctionSource, SinkError


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=15))
def test_sim_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    np.testing.assert_allclose(sorted(fired), sorted(delays))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=30),
       st.integers(1, 10))
def test_channel_transactions_never_lose_events(values, batch):
    channel = Channel(capacity=100)
    for value in values:
        channel.put(value)
    drained = []
    attempts = []

    def sink(events):
        attempts.append(list(events))
        if len(attempts) % 2:
            raise SinkError("retry")   # every first attempt fails
        drained.extend(events)

    agent = FlumeAgent(FunctionSource([]), sink, channel=channel,
                       batch_size=batch)
    while len(channel):
        queued = list(channel._queue)
        if agent.pump_sink() == 0:
            assert list(channel._queue) == queued
        else:
            assert list(channel._queue) == queued[len(attempts[-1]):]
    assert drained == values


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=60),
       st.integers(0, 5), st.integers(1, 10),
       st.sampled_from([SinkError, RuntimeError]))
def test_flume_at_least_once_any_failure_pattern(events, failures, batch,
                                                 failure):
    received = []
    remaining = {"n": failures}

    def sink(batch_events):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise failure("transient")
        received.extend(batch_events)

    agent = FlumeAgent(FunctionSource(list(events)), sink, batch_size=batch)
    for _ in range(failures + 1):
        try:
            metrics = agent.run()
            break
        except RuntimeError:
            pass    # a sink that raises anything else: run the agent again
    assert received == list(events)
    assert metrics.events_delivered == len(events)


@settings(max_examples=20, deadline=None)
@given(st.floats(1e6, 1e10, allow_nan=False),
       st.floats(1e8, 1e11, allow_nan=False),
       st.integers(100, 100_000),
       st.integers(100, 1_000_000))
def test_fog_deeper_resolution_never_cheaper(local_flops, remote_flops,
                                             feature_bytes, input_bytes):
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=1, fogs_per_server=1, servers=1)
    edge = topology.machines(Tier.EDGE)[0].name
    stages = model_split_from_early_exit(
        local_flops=local_flops, remote_flops=remote_flops,
        feature_bytes=feature_bytes, input_bytes=input_bytes)
    pipeline = FogPipeline(place_bottom_up(topology, stages, edge))
    costs = [pipeline.item_cost(stage).total_s
             for stage in range(len(stages))]
    assert costs == sorted(costs)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 20), st.integers(0, 100))
def test_fog_stream_conserves_items(num_items, seed):
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=1, fogs_per_server=1, servers=1)
    edge = topology.machines(Tier.EDGE)[0].name
    stages = model_split_from_early_exit(
        local_flops=1e7, remote_flops=1e9,
        feature_bytes=1000, input_bytes=5000)
    pipeline = FogPipeline(place_bottom_up(topology, stages, edge))
    stats = pipeline.simulate_stream(
        num_items=num_items, arrival_interval_s=0.01,
        exit_probabilities={1: 0.5}, seed=seed)
    assert stats.completed == num_items
    assert sum(stats.resolved_per_stage.values()) == num_items
