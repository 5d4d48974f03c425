"""A deployed two-tier pair serves what the monolith decides."""

import numpy as np
import pytest

from repro import nn
from repro.fog import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy, run_policy_batched
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import Runtime, using_runtime


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


def decisions_equal(a, b):
    return (np.array_equal(a.predictions, b.predictions)
            and np.array_equal(a.exit_index, b.exit_index)
            and np.array_equal(a.confidence, b.confidence)
            and np.array_equal(a.local_logits, b.local_logits))


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
