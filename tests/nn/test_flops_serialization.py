"""Tests for FLOP estimation and checkpoint serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn.flops import activation_size_bytes, estimate_flops
from repro.nn.tensor import Tensor


class TestFlops:
    def test_linear_flops(self):
        flops, shape = estimate_flops(nn.Linear(10, 5), (10,))
        assert flops == 2 * 10 * 5
        assert shape == (5,)

    def test_linear_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimate_flops(nn.Linear(10, 5), (7,))

    def test_conv_flops_formula(self):
        conv = nn.Conv2d(3, 8, kernel_size=3, padding=1)
        flops, shape = estimate_flops(conv, (3, 16, 16))
        assert shape == (8, 16, 16)
        assert flops == 2 * 8 * 16 * 16 * 3 * 3 * 3

    def test_conv_stride_changes_output(self):
        conv = nn.Conv2d(1, 1, kernel_size=3, stride=2, padding=1)
        _, shape = estimate_flops(conv, (1, 8, 8))
        assert shape == (1, 4, 4)

    def test_sequential_accumulates_and_tracks_shape(self):
        model = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), nn.Linear(4 * 8 * 8, 10))
        flops, shape = estimate_flops(model, (1, 16, 16))
        assert shape == (10,)
        assert flops > 0

    def test_sequential_shape_consistency_with_forward(self):
        model = nn.Sequential(
            nn.Conv2d(2, 6, 3, stride=2, padding=1), nn.ReLU(),
            nn.MaxPool2d(2), nn.Flatten())
        _, shape = estimate_flops(model, (2, 16, 16))
        out = model(Tensor(np.zeros((1, 2, 16, 16))))
        assert out.shape[1:] == shape

    def test_lstm_flops_scale_with_steps(self):
        lstm = nn.LSTM(8, 16)
        short, _ = estimate_flops(lstm, (5, 8))
        long, _ = estimate_flops(lstm, (10, 8))
        assert long == 2 * short

    def test_unknown_module_rejected(self):
        class Mystery(nn.Module):
            pass

        with pytest.raises(TypeError):
            estimate_flops(Mystery(), (3,))

    def test_deeper_model_costs_more(self):
        shallow = nn.Sequential(nn.Conv2d(1, 4, 3, padding=1))
        deep = nn.Sequential(nn.Conv2d(1, 4, 3, padding=1),
                             nn.Conv2d(4, 4, 3, padding=1))
        f1, _ = estimate_flops(shallow, (1, 8, 8))
        f2, _ = estimate_flops(deep, (1, 8, 8))
        assert f2 > f1

    def test_activation_size(self):
        assert activation_size_bytes((16, 8, 8)) == 16 * 8 * 8 * 4


class TestFlopsRegressions:
    """Pins for two historical FLOP-accounting bugs (placement inputs)."""

    def test_identity_is_free(self):
        assert estimate_flops(nn.Identity(), (3, 5, 5)) == (0.0, (3, 5, 5))

    def test_conv_shortcut_counts_its_batchnorm(self):
        # The Fig. 8 conv shortcut is conv + BN; the BN used to be skipped,
        # under-reporting exactly the block variant the paper champions.
        from repro.nn.models.resnet import ResNetBlock

        rng = np.random.default_rng(0)
        block = ResNetBlock(4, 8, stride=2, shortcut="conv", rng=rng)
        total, shape = estimate_flops(block, (4, 16, 16))
        assert shape == (8, 8, 8)
        expected = 0.0
        part, s = estimate_flops(block.conv1, (4, 16, 16))
        expected += part
        part, s = estimate_flops(block.bn1, s)
        expected += part + float(np.prod(s))  # interior ReLU
        part, s = estimate_flops(block.conv2, s)
        expected += part
        part, s = estimate_flops(block.bn2, s)
        expected += part
        part, short_shape = estimate_flops(block.shortcut_conv, (4, 16, 16))
        expected += part
        bn_part, _ = estimate_flops(block.shortcut_bn, short_shape)
        assert bn_part > 0
        expected += bn_part
        expected += 2.0 * float(np.prod(s))  # residual add + final ReLU
        assert total == expected

    def test_plan_flops_match_static_estimate(self):
        from repro.nn.fuse import fuse_for_inference
        from repro.nn.plan import capture_plan

        rng = np.random.default_rng(1)
        model = fuse_for_inference(nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng),
        ), dtype=np.float32)
        x = rng.normal(size=(4, 1, 12, 12)).astype(np.float32)
        plan = capture_plan(model, x)
        static_flops, static_shape = estimate_flops(model, (1, 12, 12))
        plan_flops, plan_shape = estimate_flops(plan, (1, 12, 12))
        assert plan_flops == static_flops
        assert plan_shape == static_shape


class TestSerialization:
    def test_save_load_roundtrip(self):
        model = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(0)),
                              nn.ReLU(), nn.Linear(3, 2))
        other = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(9)),
                              nn.ReLU(), nn.Linear(3, 2))
        other.load_state_dict(model.state_dict())
        x = Tensor(np.random.default_rng(1).normal(0, 1, (2, 4)))
        np.testing.assert_allclose(model(x).data, other(x).data)

    def test_batchnorm_buffers_serialized(self):
        model = nn.BatchNorm2d(2)
        model(Tensor(np.random.default_rng(4).normal(7, 1, (8, 2, 2, 2))))
        fresh = nn.BatchNorm2d(2)
        fresh.load_state_dict(model.state_dict())
        np.testing.assert_allclose(
            model._buffer_running_mean, fresh._buffer_running_mean)
