"""Tests for the layer/module system."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestModuleMechanics:
    def test_parameters_collected_recursively(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names
        assert "layer2.bias" in names
        assert len(model.parameters()) == 4

    def test_num_parameters(self):
        model = nn.Linear(4, 8)
        assert model.num_parameters() == 4 * 8 + 8

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.Identity())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self):
        model = nn.Linear(3, 2)
        out = model(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Sequential(nn.Linear(3, 4, rng=np.random.default_rng(1)),
                          nn.ReLU(),
                          nn.Linear(4, 2, rng=np.random.default_rng(2)))
        b = nn.Sequential(nn.Linear(3, 4, rng=np.random.default_rng(3)),
                          nn.ReLU(),
                          nn.Linear(4, 2, rng=np.random.default_rng(4)))
        x = Tensor(np.random.default_rng(5).normal(0, 1, (2, 3)))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_state_dict_shape_mismatch(self):
        model = nn.Linear(3, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_unknown_key(self):
        model = nn.Linear(3, 2)
        state = model.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_missing_key(self):
        model = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 3))})


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_gradient_flows_to_weights(self):
        layer = nn.Linear(2, 1)
        out = layer(Tensor([[1.0, 2.0]]))
        out.sum().backward()
        np.testing.assert_allclose(layer.weight.grad, [[1.0, 2.0]])
        np.testing.assert_allclose(layer.bias.grad, [1.0])


class TestConvAndPoolLayers:
    def test_conv_layer_shape(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, stride=1, padding=1)
        assert layer(Tensor(np.zeros((2, 3, 6, 6)))).shape == (2, 8, 6, 6)

    def test_maxpool_layer(self):
        layer = nn.MaxPool2d(2)
        assert layer(Tensor(np.zeros((1, 1, 4, 4)))).shape == (1, 1, 2, 2)

    def test_global_avg_pool_layer(self):
        layer = nn.GlobalAvgPool2d()
        assert layer(Tensor(np.zeros((2, 5, 3, 3)))).shape == (2, 5)

    def test_flatten(self):
        layer = nn.Flatten()
        assert layer(Tensor(np.zeros((2, 3, 4)))).shape == (2, 12)


class TestBatchNorm:
    def test_normalizes_training_batch(self):
        rng = np.random.default_rng(0)
        layer = nn.BatchNorm2d(3)
        x = Tensor(rng.normal(5.0, 2.0, (8, 3, 4, 4)))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self):
        layer = nn.BatchNorm2d(2)
        x = Tensor(np.random.default_rng(1).normal(10.0, 1.0, (4, 2, 3, 3)))
        layer(x)
        assert (layer._buffer_running_mean > 0.5).all()

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(2)
        layer = nn.BatchNorm2d(2)
        for _ in range(50):
            layer(Tensor(rng.normal(3.0, 1.0, (16, 2, 2, 2))))
        layer.eval()
        single = Tensor(np.full((1, 2, 2, 2), 3.0))
        out = layer(single).data
        np.testing.assert_allclose(out, 0.0, atol=0.2)

    def test_buffers_in_state_dict(self):
        layer = nn.BatchNorm2d(2)
        state = layer.state_dict()
        assert "running_mean" in state
        assert "running_var" in state

    def test_buffer_roundtrip(self):
        a = nn.BatchNorm2d(2)
        a(Tensor(np.random.default_rng(3).normal(4, 1, (8, 2, 2, 2))))
        b = nn.BatchNorm2d(2)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(
            a._buffer_running_mean, b._buffer_running_mean)

    def test_gradient_flows(self):
        layer = nn.BatchNorm2d(2)
        x = Tensor(np.random.default_rng(4).normal(0, 1, (4, 2, 3, 3)),
                   requires_grad=True)
        layer(x).sum().backward()
        assert layer.gamma.grad is not None
        assert x.grad is not None

    def test_batchnorm1d(self):
        layer = nn.BatchNorm2d(4)
        out = layer(Tensor(np.random.default_rng(5).normal(3, 2, (16, 4))))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-7)


class TestLSTM:
    def test_cell_shapes(self):
        cell = nn.LSTMCell(4, 6)
        h, c = cell.initial_state(3)
        h2, c2 = cell(Tensor(np.zeros((3, 4))), (h, c))
        assert h2.shape == (3, 6)
        assert c2.shape == (3, 6)

    def test_forget_bias_initialized_to_one(self):
        cell = nn.LSTMCell(2, 3)
        np.testing.assert_allclose(cell.bias.data[3:6], 1.0)

    def test_lstm_sequence_shape(self):
        lstm = nn.LSTM(4, 8)
        out = lstm(Tensor(np.zeros((3, 5, 4))))
        assert out.shape == (3, 5, 8)

    def test_last_hidden(self):
        lstm = nn.LSTM(4, 8)
        out = lstm.last_hidden(Tensor(np.zeros((3, 5, 4))))
        assert out.shape == (3, 8)

    def test_gradient_through_time(self):
        lstm = nn.LSTM(2, 3, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(0, 1, (2, 4, 2)),
                   requires_grad=True)
        lstm.last_hidden(x).sum().backward()
        assert x.grad is not None
        # early timesteps must receive gradient (long-range credit)
        assert np.abs(x.grad[:, 0, :]).sum() > 0

    def test_sequence_order_matters(self):
        lstm = nn.LSTM(1, 4, rng=np.random.default_rng(2))
        seq = np.arange(6, dtype=float).reshape(1, 6, 1)
        fwd = lstm.last_hidden(Tensor(seq)).data
        rev = lstm.last_hidden(Tensor(seq[:, ::-1, :].copy())).data
        assert not np.allclose(fwd, rev)


class TestEndToEndTraining:
    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(0)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = nn.Sequential(
            nn.Linear(2, 8, rng=rng), nn.LeakyReLU(), nn.Linear(8, 2, rng=rng))
        optimizer = nn.Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
        assert F.accuracy(model(Tensor(x)), y) == 1.0

    def test_small_cnn_learns_patterns(self):
        rng = np.random.default_rng(1)
        # class 0: bright top half; class 1: bright bottom half
        n = 40
        x = np.zeros((n, 1, 6, 6))
        y = np.zeros(n, dtype=int)
        for i in range(n):
            label = i % 2
            y[i] = label
            noise = rng.normal(0, 0.1, (6, 6))
            if label == 0:
                x[i, 0, :3, :] = 1.0
            else:
                x[i, 0, 3:, :] = 1.0
            x[i, 0] += noise
        model = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU(),
            nn.MaxPool2d(2), nn.Flatten(),
            nn.Linear(4 * 3 * 3, 2, rng=rng))
        optimizer = nn.Adam(model.parameters(), lr=0.01)
        for _ in range(40):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
        assert F.accuracy(model(Tensor(x)), y) >= 0.95
