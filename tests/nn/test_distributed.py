"""Tests for the parameter-server training simulation."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.distributed import (
    AsyncWorker,
    ParameterServer,
    ParameterServerTrainer,
)
from repro.nn.tensor import Tensor


def build_model():
    return nn.Sequential(
        nn.Linear(2, 8, rng=np.random.default_rng(42)), nn.ReLU(),
        nn.Linear(8, 2, rng=np.random.default_rng(43)))


def toy_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


class TestParameterServer:
    def test_pull_returns_snapshot(self):
        server = ParameterServer(build_model())
        version, weights = server.pull()
        assert version == 0
        # snapshot is a copy, not a view
        weights["layer0.weight"][:] = 999.0
        assert not np.allclose(
            dict(server.model.named_parameters())["layer0.weight"].data,
            999.0)

    def test_push_advances_version_and_applies(self):
        server = ParameterServer(build_model(), lr=1.0)
        before = dict(server.model.named_parameters())[
            "layer0.weight"].data.copy()
        gradients = {"layer0.weight": np.ones_like(before)}
        staleness = server.push(gradients, computed_at_version=0)
        assert staleness == 0
        assert server.version == 1
        after = dict(server.model.named_parameters())["layer0.weight"].data
        np.testing.assert_allclose(after, before - 1.0)

    def test_staleness_measured(self):
        server = ParameterServer(build_model())
        grad = {"layer0.bias": np.zeros(8)}
        server.push(grad, 0)
        server.push(grad, 0)  # computed against version 0, now at 1
        assert server.total_staleness == 1
        assert server.mean_staleness == 0.5

    def test_rejects_future_and_unknown(self):
        server = ParameterServer(build_model())
        with pytest.raises(ValueError):
            server.push({}, computed_at_version=5)
        with pytest.raises(KeyError):
            server.push({"ghost": np.zeros(1)}, 0)
        with pytest.raises(ValueError):
            ParameterServer(build_model(), lr=0)


class TestAsyncWorker:
    def test_refresh_copies_server_weights(self):
        server = ParameterServer(build_model())
        worker = AsyncWorker("w", build_model, F.cross_entropy)
        # perturb the server, then refresh
        dict(server.model.named_parameters())["layer0.bias"].data += 5.0
        worker.refresh(server)
        np.testing.assert_allclose(
            dict(worker.model.named_parameters())["layer0.bias"].data,
            dict(server.model.named_parameters())["layer0.bias"].data)
        assert worker.held_version == server.version

    def test_compute_gradients_shapes(self):
        worker = AsyncWorker("w", build_model, F.cross_entropy)
        x, y = toy_data(16)
        gradients, loss = worker.compute_gradients(x, y)
        assert loss > 0
        assert set(gradients) == {name for name, _
                                  in worker.model.named_parameters()}


class TestParameterServerTrainer:
    def test_training_converges(self):
        x, y = toy_data()
        trainer = ParameterServerTrainer(build_model, F.cross_entropy,
                                         num_workers=4, lr=0.2)
        trainer.run(x, y, steps=150, batch_size=32)
        accuracy = trainer.evaluate(x, y, F.accuracy)
        assert accuracy > 0.9

    def test_fresh_pulls_have_zero_staleness(self):
        x, y = toy_data()
        trainer = ParameterServerTrainer(build_model, F.cross_entropy,
                                         num_workers=1, pull_period=1)
        trainer.run(x, y, steps=20)
        assert trainer.server.mean_staleness == 0.0

    def test_multiple_workers_induce_staleness(self):
        x, y = toy_data()
        trainer = ParameterServerTrainer(build_model, F.cross_entropy,
                                         num_workers=4, pull_period=4)
        trainer.run(x, y, steps=60)
        assert trainer.server.mean_staleness > 0.0

    def test_larger_pull_period_more_staleness(self):
        x, y = toy_data()

        def staleness(period):
            trainer = ParameterServerTrainer(
                build_model, F.cross_entropy, num_workers=4,
                pull_period=period)
            trainer.run(x, y, steps=80)
            return trainer.server.mean_staleness

        assert staleness(8) > staleness(1)

    def test_stale_training_still_converges(self):
        # The classic parameter-server result: moderate staleness slows
        # but does not break convergence.
        x, y = toy_data()
        trainer = ParameterServerTrainer(build_model, F.cross_entropy,
                                         num_workers=4, lr=0.1,
                                         pull_period=6)
        trainer.run(x, y, steps=250, batch_size=32)
        assert trainer.evaluate(x, y, F.accuracy) > 0.85

    def test_validates(self):
        with pytest.raises(ValueError):
            ParameterServerTrainer(build_model, F.cross_entropy,
                                   num_workers=0)
        with pytest.raises(ValueError):
            ParameterServerTrainer(build_model, F.cross_entropy,
                                   pull_period=0)


def test_a_failing_evaluation_ran_in_eval_without_grad_and_restores_training():
    x, y = toy_data(n=8)
    trainer = ParameterServerTrainer(build_model, F.cross_entropy)
    model = trainer.server.model
    seen = []

    def forward(*args):
        seen.append((model.training, nn.is_grad_enabled()))
        raise RuntimeError("forward failed")
    model.forward = forward
    with pytest.raises(RuntimeError, match="forward failed"):
        trainer.evaluate(x, y, F.accuracy)
    assert seen == [(False, False)]
    assert model.training
