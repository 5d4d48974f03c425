"""Fault-tolerant streaming: failover, degradation, drops, determinism."""

import json

import pytest

from repro.cluster import NetworkTopology
from repro.fog import (
    FailureSpec,
    FaultPolicy,
    FogPipeline,
    model_split_from_early_exit,
    place_bottom_up,
)
from repro.runtime import Runtime, using_runtime


def topo():
    return NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=2, servers=1)


def build_pipeline(topology):
    stages = model_split_from_early_exit(
        local_flops=2e8, remote_flops=8e9 + 1e6,
        feature_bytes=8_192, input_bytes=640 * 480 * 3,
        local_exit_flops=1e6)
    return FogPipeline(place_bottom_up(topology, stages, "edge-0-0-0"))


def run_stream(failures=None, fault_policy=None, num_items=30, seed=0,
               interval=0.05, exit_probabilities=None):
    runtime = Runtime(seed=0)
    pipeline = build_pipeline(topo())
    with using_runtime(runtime):
        stats = pipeline.simulate_stream(
            num_items, interval,
            exit_probabilities=({1: 0.5} if exit_probabilities is None
                                else exit_probabilities),
            seed=seed, failures=failures, fault_policy=fault_policy)
    return runtime, stats


class TestFaultPolicy:
    def test_backoff_doubles(self):
        policy = FaultPolicy()
        assert policy.backoff_s(0) == pytest.approx(0.01)
        assert policy.backoff_s(1) == pytest.approx(0.02)
        assert policy.backoff_s(2) == pytest.approx(0.04)

    def test_validates(self):
        with pytest.raises(ValueError):
            FaultPolicy(stage_timeout_s=0.0)


class TestHealthyRuns:
    def test_no_failures_means_no_fault_telemetry(self):
        _, stats = run_stream(failures=None)
        assert stats.completed == 30
        assert stats.degraded == stats.dropped == 0
        assert stats.retries == stats.failovers == 0
        assert stats.accounted == 30

    def test_failure_spec_with_no_time_to_fire_changes_nothing(self):
        healthy = run_stream(failures=None)[1]
        # Zero failures draws nothing: same traffic, machinery armed.
        inert = run_stream(failures=FailureSpec(
            max_failures=0, mean_time_to_failure_s=10.0))[1]
        assert inert.completed == healthy.completed
        assert inert.mean_latency_s == pytest.approx(healthy.mean_latency_s)
        assert inert.degraded == inert.dropped == 0


class TestFailover:
    def test_dead_fog_fails_over_to_sibling(self):
        # The placed fog node dies almost immediately and stays dead;
        # items re-ship their activation to the sibling fog node.
        failures = FailureSpec(
            seed=1, targets=["fog-0-0"], max_failures=1,
            mean_time_to_failure_s=0.01)
        _, stats = run_stream(failures=failures)
        assert stats.failovers > 0
        assert stats.dropped == 0
        assert stats.accounted == 30
        # Re-shipped activations show up as a hop toward the sibling.
        sibling_hops = [hop for hop in stats.bytes_per_hop
                        if hop.endswith("->fog-0-1")]
        assert sibling_hops

    def test_dead_server_degrades_to_local_exit(self):
        # servers=1, so a dead analysis server has no sibling: items that
        # wanted the server stage resolve at the fog exit instead.
        failures = FailureSpec(
            seed=1, targets=["server-0"], max_failures=1,
            mean_time_to_failure_s=0.01)
        _, stats = run_stream(failures=failures,
                              exit_probabilities={1: 0.0})
        assert stats.degraded > 0
        assert stats.dropped == 0
        assert stats.accounted == 30

    def test_dead_edge_tier_drops_unstarted_items(self):
        # Failover is tier-wide, so every edge device must die early;
        # later arrivals cannot run the ingest stage and have no completed
        # exit to fall back on, so they are dropped — but still accounted.
        failures = FailureSpec(
            seed=1,
            targets=["edge-0-0-0", "edge-0-0-1", "edge-0-1-0", "edge-0-1-1"],
            max_failures=4, mean_time_to_failure_s=0.01)
        _, stats = run_stream(failures=failures)
        assert stats.dropped > 0
        assert stats.accounted == 30


class TestRecovery:
    def test_crash_recover_churn_accounts_every_item(self):
        failures = FailureSpec(
            seed=3, mean_time_to_failure_s=0.2,
            mean_time_to_repair_s=0.3, max_failures=8)
        runtime, stats = run_stream(
            failures=failures,
            fault_policy=FaultPolicy(stage_timeout_s=5.0))
        assert stats.accounted == 30
        assert runtime.events.records("cluster.failure")
        assert all(record.clock == "sim"
                   for record in runtime.events.records("cluster.failure"))


class TestDeterminism:
    def test_same_seed_byte_identical_dump_under_failures(self):
        failures = FailureSpec(
            seed=3, mean_time_to_failure_s=0.2,
            mean_time_to_repair_s=0.3, max_failures=8)
        policy = FaultPolicy(stage_timeout_s=5.0)
        dumps = []
        for _ in range(2):
            runtime, _ = run_stream(failures=failures, fault_policy=policy)
            dumps.append(json.dumps(runtime.dump(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_different_failure_seeds_differ(self):
        def dump_for(failure_seed):
            runtime, _ = run_stream(failures=FailureSpec(
                seed=failure_seed, mean_time_to_failure_s=0.2,
                max_failures=4))
            return json.dumps(runtime.dump(), sort_keys=True)

        assert dump_for(1) != dump_for(2)
