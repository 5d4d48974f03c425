"""Worker-count invariance of the parallel engine, under hypothesis.

Every example builds one seeded workload and runs it at worker counts
{1, 2, 4}; the engine's determinism contract says the worker count is
*unobservable*:

- batched early-exit inference returns identical
  :class:`BatchExitDecisions`;
- the normalized registry dump (:func:`deterministic_dump`) is
  byte-identical.

``REPRO_CHAOS_SEED`` (set by the CI chaos step, default 0) shifts the
drawn workload space per CI seed; fork cost keeps example counts low.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import (
    Runtime,
    deterministic_dump,
    fork_available,
    using_runtime,
)

from tests.fanout import infer_fanned

BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
WORKER_SWEEP = (1, 2, 4)

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")

seeds = st.integers(0, 2**16).map(lambda s: s + BASE_SEED)


def normalized_dump(rt):
    return json.dumps(deterministic_dump(rt), sort_keys=True)


def build_early_exit(rng, num_classes=4):
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, num_classes, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, num_classes, rng=rng)))


@settings(max_examples=5, deadline=None)
@given(seed=seeds, n=st.integers(4, 24),
       threshold=st.floats(0.35, 0.99),
       batch_size=st.integers(1, 8))
def test_exit_decisions_invariant_under_worker_count(seed, n, threshold,
                                                     batch_size):
    policy = ScoreThresholdPolicy(threshold)
    decisions, dumps = {}, {}
    for workers in WORKER_SWEEP:
        with using_runtime(Runtime(seed=seed)) as rt:
            rng = rt.rng.np_child("prop.parallel.model")
            model = build_early_exit(rng)
            x = rt.rng.np_child("prop.parallel.x").normal(
                0.0, 1.0, (n, 1, 8, 8))
            decisions[workers] = infer_fanned(model, x, policy, batch_size,
                                              workers)
            assert rt.registry.counter("nn.infer.items").total() == n
            dumps[workers] = normalized_dump(rt)
    first = decisions[WORKER_SWEEP[0]]
    for workers in WORKER_SWEEP[1:]:
        other = decisions[workers]
        assert np.array_equal(first.predictions, other.predictions)
        assert np.array_equal(first.exit_index, other.exit_index)
        assert np.array_equal(first.confidence, other.confidence)
    assert dumps[1] == dumps[2] == dumps[4]
