"""Shared fixtures for the serving-plane tests: a tiny deployed model."""

import numpy as np
import pytest

from repro import nn
from repro.fog.deployment import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import Runtime, using_runtime


def build_model(rng=None, num_classes=3):
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, num_classes, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, num_classes, rng=rng)))


class RecordingDeployment:
    """Wrap a deployment; remember the rows of every batch it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.rows_seen = []

    def serve_batched(self, x, policy):
        self.rows_seen.append(int(x.shape[0]))
        return self.inner.serve_batched(x, policy)


def camera_frames(seed, n):
    return np.random.default_rng(seed).normal(size=(n, 1, 8, 8))


@pytest.fixture
def rt():
    with using_runtime(Runtime(seed=11)) as runtime:
        yield runtime


@pytest.fixture
def deployment(rt):
    trained = build_model(rt.rng.np_child("serving.model"))
    deployed = TwoTierDeployment(build_model,
                                 ["local_stage", "local_head"],
                                 ["remote_stage", "remote_head"])
    deployed.deploy(trained)
    return deployed


@pytest.fixture
def policy():
    return ScoreThresholdPolicy(0.45)
