"""Numeric gradient checks for composite modules (LSTM, BatchNorm, YOLO).

The per-op gradcheck suite verifies primitives; these tests verify that
gradients remain correct through the *composed* structures the paper's
models actually use — gates through time, normalization statistics, and
the multi-term detection loss.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.models.resnet import ResNetBlock
from repro.nn.models.yolo import EarlyExitDetector, GroundTruthBox, YoloLoss
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import numeric_grad


def check_parameter_gradient(build_loss, parameter, atol=1e-5, rtol=1e-3):
    """Compare a parameter's analytic gradient with central differences."""
    loss = build_loss()
    loss.backward()
    analytic = parameter.grad.copy()
    original = parameter.data.copy()

    def scalar(values):
        parameter.data = values.reshape(parameter.data.shape)
        out = build_loss().item()
        parameter.data = original.copy()
        return out

    numeric = numeric_grad(scalar, original.copy().reshape(-1))
    np.testing.assert_allclose(analytic.reshape(-1), numeric,
                               atol=atol, rtol=rtol)


class TestLSTMGradients:
    def test_weight_ih_gradient_through_time(self):
        rng = np.random.default_rng(0)
        cell = nn.LSTMCell(2, 2, rng=rng)
        x = rng.normal(0, 1, (2, 3, 2))  # batch 2, 3 steps

        def build_loss():
            cell.zero_grad()
            h, c = cell.initial_state(2)
            for t in range(3):
                h, c = cell(Tensor(x[:, t, :]), (h, c))
            return (h * h).sum()

        check_parameter_gradient(build_loss, cell.weight_ih)

    def test_weight_hh_gradient_through_time(self):
        rng = np.random.default_rng(1)
        cell = nn.LSTMCell(2, 2, rng=rng)
        x = rng.normal(0, 1, (1, 4, 2))

        def build_loss():
            cell.zero_grad()
            h, c = cell.initial_state(1)
            for t in range(4):
                h, c = cell(Tensor(x[:, t, :]), (h, c))
            return h.sum()

        check_parameter_gradient(build_loss, cell.weight_hh)


class TestBatchNormGradients:
    def test_gamma_gradient_training_mode(self):
        rng = np.random.default_rng(2)
        layer = nn.BatchNorm2d(2)
        x = rng.normal(0, 1, (4, 2, 3, 3))

        def build_loss():
            layer.zero_grad()
            # reset running stats so repeated calls are identical
            layer._buffer_running_mean = np.zeros(2)
            layer._buffer_running_var = np.ones(2)
            return (layer(Tensor(x)) ** 2).sum()

        check_parameter_gradient(build_loss, layer.gamma)

    def test_input_gradient_training_mode(self):
        rng = np.random.default_rng(3)
        layer = nn.BatchNorm2d(1)
        values = rng.normal(0, 1, (3, 1, 2, 2))

        def run(arr):
            layer._buffer_running_mean = np.zeros(1)
            layer._buffer_running_var = np.ones(1)
            t = Tensor(arr, requires_grad=True)
            out = (layer(t) * Tensor(rng_weights)).sum()
            return t, out

        rng_weights = np.random.default_rng(4).normal(0, 1, values.shape)
        t, out = run(values.copy())
        out.backward()
        numeric = numeric_grad(lambda arr: run(arr)[1].item(), values.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5, rtol=1e-3)


class TestResNetBlockGradients:
    def test_conv_shortcut_weight_gradient(self):
        rng = np.random.default_rng(5)
        block = ResNetBlock(1, 2, stride=2, shortcut="conv", rng=rng)
        x = rng.normal(0, 1, (2, 1, 4, 4))

        def build_loss():
            block.zero_grad()
            for module in block.modules():
                if isinstance(module, nn.BatchNorm2d):
                    module._buffer_running_mean = np.zeros(
                        module.num_features)
                    module._buffer_running_var = np.ones(module.num_features)
            return (block(Tensor(x)) ** 2).sum()

        check_parameter_gradient(build_loss, block.shortcut_conv.weight,
                                 atol=1e-4, rtol=5e-3)


class TestYoloLossGradients:
    def test_head_bias_gradient(self):
        rng = np.random.default_rng(6)
        model = EarlyExitDetector(1, 8, num_classes=2, grid=4, rng=rng)
        loss_fn = YoloLoss(grid=4, num_classes=2)
        x = rng.normal(0, 1, (2, 1, 8, 8))
        boxes = [[GroundTruthBox(0.3, 0.3, 0.4, 0.4, 0)],
                 [GroundTruthBox(0.7, 0.7, 0.3, 0.3, 1)]]

        def build_loss():
            model.zero_grad()
            for module in model.modules():
                if isinstance(module, nn.BatchNorm2d):
                    module._buffer_running_mean = np.zeros(
                        module.num_features)
                    module._buffer_running_var = np.ones(module.num_features)
            return loss_fn(model(Tensor(x))[1], boxes)

        check_parameter_gradient(build_loss, model.remote_head.bias,
                                 atol=1e-5, rtol=1e-3)

    def test_loss_gradient_wrt_raw_predictions(self):
        rng = np.random.default_rng(7)
        loss_fn = YoloLoss(grid=2, num_classes=2)
        raw_values = rng.normal(0, 1, (1, 7, 2, 2))
        boxes = [[GroundTruthBox(0.3, 0.3, 0.4, 0.4, 0)]]

        raw = Tensor(raw_values.copy(), requires_grad=True)
        loss_fn(raw, boxes).backward()
        numeric = numeric_grad(
            lambda arr: loss_fn(Tensor(arr), boxes).item(),
            raw_values.copy())
        np.testing.assert_allclose(raw.grad, numeric, atol=1e-5, rtol=1e-3)
