"""Seeded chaos properties for the fault-tolerant fog pipeline.

Every example runs a full stream simulation under a hypothesis-chosen
failure schedule and asserts the two invariants the failure model
guarantees regardless of what crashes when:

- *conservation*: every arrival is exactly once completed, degraded, or
  dropped — nothing is lost or double-counted;
- *replayability*: the same seeds produce a byte-identical
  ``runtime.dump()``.

``REPRO_CHAOS_SEED`` (set by the CI chaos step, default 0) shifts the
entire space of drawn schedules so each CI seed explores different
chaos, while any single invocation stays deterministic.
"""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NetworkTopology
from repro.fog import (
    FailureSpec,
    FaultPolicy,
    FogPipeline,
    model_split_from_early_exit,
    place_bottom_up,
)
from repro.runtime import Runtime, using_runtime

BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def build_pipeline():
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=2, servers=1)
    stages = model_split_from_early_exit(
        local_flops=2e8, remote_flops=8e9 + 1e6,
        feature_bytes=8_192, input_bytes=64 * 64 * 3,
        local_exit_flops=1e6)
    return FogPipeline(place_bottom_up(topology, stages, "edge-0-0-0"))


failure_specs = st.builds(
    FailureSpec,
    seed=st.integers(0, 2**16).map(lambda s: s + BASE_SEED),
    mean_time_to_failure_s=st.floats(0.02, 1.0),
    mean_time_to_repair_s=st.one_of(st.none(), st.floats(0.05, 1.0)),
    max_failures=st.integers(1, 10),
)

fault_policies = st.builds(
    FaultPolicy,
    stage_timeout_s=st.one_of(st.none(), st.floats(0.5, 5.0)),
)


def run_once(spec, policy, num_items, exit_seed):
    runtime = Runtime(seed=BASE_SEED)
    pipeline = build_pipeline()
    with using_runtime(runtime):
        stats = pipeline.simulate_stream(
            num_items, 0.03, exit_probabilities={1: 0.5},
            seed=exit_seed, failures=spec, fault_policy=policy)
    return runtime, stats


@settings(max_examples=20, deadline=None)
@given(spec=failure_specs, policy=fault_policies,
       num_items=st.integers(1, 40), exit_seed=st.integers(0, 100))
def test_every_item_exactly_once_accounted(spec, policy, num_items,
                                           exit_seed):
    _, stats = run_once(spec, policy, num_items, exit_seed)
    assert stats.completed + stats.degraded + stats.dropped == num_items
    assert stats.accounted == num_items
    assert min(stats.completed, stats.degraded, stats.dropped) >= 0


@settings(max_examples=8, deadline=None)
@given(spec=failure_specs, policy=fault_policies,
       num_items=st.integers(1, 25), exit_seed=st.integers(0, 100))
def test_same_seeds_byte_identical_dump(spec, policy, num_items, exit_seed):
    first, _ = run_once(spec, policy, num_items, exit_seed)
    second, _ = run_once(spec, policy, num_items, exit_seed)
    assert (json.dumps(first.dump(), sort_keys=True)
            == json.dumps(second.dump(), sort_keys=True))
