"""Fog fan-out through the parallel engine: decisions identical to serial.

The caller owns the pool (:mod:`tests.fanout`); inference runs inside the
forked workers.
"""

import json

import numpy as np
import pytest

from repro import nn
from repro.fog import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy, run_policy_batched
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import (
    Runtime,
    deterministic_dump,
    fork_available,
    using_runtime,
)

from tests.fanout import infer_fanned, serve_streams_fanned

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")


def build_network(seed=0):
    rng = np.random.default_rng(seed)
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)))


def frames(seed, n=12):
    return np.random.default_rng(seed).normal(0.0, 1.0, (n, 1, 8, 8))


def normalized_dump(rt):
    return json.dumps(deterministic_dump(rt), sort_keys=True)


def decisions_equal(a, b):
    return (np.array_equal(a.predictions, b.predictions)
            and np.array_equal(a.exit_index, b.exit_index)
            and np.array_equal(a.confidence, b.confidence)
            and np.array_equal(a.local_logits, b.local_logits))


class TestRunPolicyBatchedExecutor:
    @needs_fork
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_decisions_identical_to_serial(self, workers):
        policy = ScoreThresholdPolicy(0.55)
        dumps = {}
        for pool in (1, workers):
            with using_runtime(Runtime(seed=5)) as rt:
                model = build_network()
                x = frames(7, n=16)
                serial = run_policy_batched(model, x, policy, batch_size=4)
                before = rt.registry.counter("nn.infer.items").total()
                fanned = infer_fanned(model, x, policy, 4, workers=pool)
                # the four chunks were inferred in workers and merged back
                assert rt.registry.counter(
                    "nn.infer.items").total() == before + 16
                dumps[pool] = normalized_dump(rt)
            assert decisions_equal(serial, fanned)
        assert dumps[1] == dumps[workers]
        assert set(serial.exit_index) == {1, 2}  # both tiers exercised


def make_deployment():
    return TwoTierDeployment(
        lambda: build_network(seed=99),
        local_modules=["local_stage", "local_head"],
        remote_modules=["remote_stage", "remote_head"])


def deployed():
    deployment = make_deployment()
    deployment.deploy(build_network(seed=1))
    return deployment


class TestDeploymentServing:
    def test_served_model_matches_monolith(self):
        with using_runtime(Runtime()):
            trained = build_network(seed=1)
            deployment = deployed()
            policy = ScoreThresholdPolicy(0.45)
            x = frames(2)
            direct = run_policy_batched(trained, x, policy)
            served = deployment.serve_batched(x, policy)
        assert decisions_equal(direct, served)

    def test_served_model_requires_early_exit_layout(self):
        with using_runtime(Runtime()):
            deployment = make_deployment()
            with pytest.raises(RuntimeError):
                deployment.served_model()  # deploy() not run yet

    @needs_fork
    def test_serve_batched_parallel_matches_serial(self):
        policy = ScoreThresholdPolicy(0.45)
        streams = [frames(seed, n=6) for seed in range(5)]
        served, dumps = {}, {}
        for workers in (1, 4):
            with using_runtime(Runtime()) as rt:
                served[workers] = serve_streams_fanned(
                    deployed(), streams, policy, workers)
                dumps[workers] = normalized_dump(rt)
        with using_runtime(Runtime()):
            deployment = deployed()
            serial = [deployment.serve_batched(stream, policy)
                      for stream in streams]
        for workers in (1, 4):
            assert len(served[workers]) == 5
            assert all(decisions_equal(a, b)
                       for a, b in zip(serial, served[workers]))
        assert dumps[1] == dumps[4]
