"""Int8 post-training quantization: round-trips, calibration, parity bound.

The edge tier of a two-tier deployment ships int8 weights (4x smaller
payload) and fake-quantizes activations on a calibrated grid; the bound
under test is *measured agreement* with the float model on held-out
data, not a hoped-for tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import plan as plan_mod
from repro.nn.fuse import fuse_for_inference
from repro.nn.inference import batched_forward
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.nn.models.resnet import SmallResNet
from repro.nn.plan import capture_plan
from repro.nn.quantize import (
    QPARAM_OVERHEAD_BYTES,
    QuantizedConv2d,
    QuantizedLinear,
    _FakeQuantOp,
    calibrate_activation,
    dequantize_weight,
    fake_quant,
    measure_quantization_drop,
    quantize_for_inference,
    quantize_weight_per_channel,
    quantized_state_bytes,
)
from repro.nn.tensor import Tensor


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestWeightQuantization:
    def test_round_trip_error_bounded_by_half_scale(self):
        w = rng_for().normal(0.0, 0.8, size=(8, 4, 3, 3)).astype(np.float32)
        q, scale = quantize_weight_per_channel(w)
        assert q.dtype == np.int8
        back = dequantize_weight(q, scale, np.float32)
        per_channel_bound = scale.reshape(-1, 1, 1, 1) * 0.5 + 1e-7
        assert np.all(np.abs(back - w) <= per_channel_bound)

    def test_scales_are_per_output_channel(self):
        w = np.ones((3, 2), dtype=np.float32)
        w[1] *= 10.0
        _, scale = quantize_weight_per_channel(w)
        assert scale.shape == (3,)
        assert scale[1] == pytest.approx(10.0 * scale[0])

    def test_zero_channel_safe(self):
        w = np.zeros((2, 4), dtype=np.float32)
        w[0, 0] = 1.0
        q, scale = quantize_weight_per_channel(w)
        assert scale[1] == 1.0
        assert np.array_equal(dequantize_weight(q, scale, np.float32)[1],
                              np.zeros(4, dtype=np.float32))


class TestActivationCalibration:
    def test_range_always_covers_zero(self):
        scale, zp = calibrate_activation(np.array([2.0, 6.0]))
        grid = fake_quant(np.array([0.0]), scale, zp)
        assert grid[0] == pytest.approx(0.0, abs=scale / 2)

    def test_constant_zero_input_degenerates_safely(self):
        scale, zp = calibrate_activation(np.zeros(10))
        assert scale == 1.0 and zp == 0.0
        assert np.array_equal(fake_quant(np.zeros(4), scale, zp),
                              np.zeros(4))

    def test_fake_quant_error_bounded_and_idempotent(self):
        values = rng_for(1).normal(size=512).astype(np.float32)
        scale, zp = calibrate_activation(values)
        once = fake_quant(values, scale, zp)
        assert np.max(np.abs(once - values)) <= scale / 2 + 1e-7
        assert np.array_equal(fake_quant(once, scale, zp), once)


class TestQuantizeForInference:
    def model(self):
        rng = rng_for()
        return fuse_for_inference(nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng),
        ), dtype=np.float32)

    def test_layers_replaced_and_counted(self):
        model = self.model()
        x = rng_for(1).normal(size=(6, 1, 12, 12)).astype(np.float32)
        quantized = quantize_for_inference(model, x)
        kinds = [type(m) for m in quantized.modules()]
        assert QuantizedConv2d in kinds and QuantizedLinear in kinds
        assert quantized.quantized_layers == 2
        # original untouched
        assert not any(isinstance(m, QuantizedConv2d) for m in model.modules())

    def test_bare_layer_rejected(self):
        with pytest.raises(ValueError, match="container"):
            quantize_for_inference(nn.Conv2d(1, 2, 3),
                                   np.zeros((1, 1, 8, 8), dtype=np.float32))

    def test_grad_mode_rejected(self):
        model = self.model()
        x = rng_for(1).normal(size=(2, 1, 12, 12)).astype(np.float32)
        quantized = quantize_for_inference(model, x)
        with pytest.raises(RuntimeError, match="inference-only"):
            quantized(Tensor(x))

    def test_payload_bytes_shrink_about_4x(self):
        # Weight tensors large enough that the per-tensor scale/qparam
        # overhead is noise next to the 4x weight shrink.
        rng = rng_for(5)
        model = fuse_for_inference(nn.Sequential(
            nn.Conv2d(8, 32, 3, padding=1, rng=rng), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(32, 64, rng=rng),
        ), dtype=np.float32)
        x = rng.normal(size=(4, 8, 12, 12)).astype(np.float32)
        quantized = quantize_for_inference(model, x)
        float_bytes = sum(p.data.nbytes for p in model.parameters())
        int8_bytes = quantized_state_bytes(quantized)
        assert int8_bytes < 0.35 * float_bytes
        assert int8_bytes > 0.25 * float_bytes

    def test_qparam_overhead_accounted(self):
        model = self.model()
        x = rng_for(1).normal(size=(4, 1, 12, 12)).astype(np.float32)
        quantized = quantize_for_inference(model, x)
        layers = [m for m in quantized.modules()
                  if isinstance(m, (QuantizedConv2d, QuantizedLinear))]
        manual = 0
        for layer in layers:
            manual += layer._buffer_weight_q.nbytes
            manual += layer._buffer_weight_scale.nbytes
            manual += QPARAM_OVERHEAD_BYTES
            if layer.bias is not None:
                manual += layer.bias.data.nbytes
        assert quantized_state_bytes(quantized) == manual


class TestAccuracyParityBound:
    """The measured drop bound on the paper's two serving models."""

    def test_fig5_early_exit_agreement(self):
        rng = rng_for(2)
        model = fuse_for_inference(EarlyExitNetwork(
            local_stage=nn.Sequential(
                nn.Conv2d(1, 8, 3, padding=1, rng=rng),
                nn.BatchNorm2d(8), nn.ReLU()),
            local_head=nn.Sequential(
                nn.GlobalAvgPool2d(), nn.Linear(8, 4, rng=rng)),
            remote_stage=nn.Sequential(
                nn.Conv2d(8, 16, 3, stride=2, padding=1, rng=rng),
                nn.BatchNorm2d(16), nn.ReLU()),
            remote_head=nn.Sequential(
                nn.GlobalAvgPool2d(), nn.Linear(16, 4, rng=rng)),
        ), dtype=np.float32)
        x = rng.normal(size=(48, 1, 16, 16)).astype(np.float32)
        targets = rng.integers(0, 4, size=48)
        edge = quantize_for_inference(model.local_stage, x)
        feats = batched_forward(edge, x, model="test.calibration")
        head = quantize_for_inference(model.local_head, feats)

        def local_logits(m, data):
            stage, exit_head = m
            return batched_forward(exit_head,
                                   batched_forward(stage, data))

        report = measure_quantization_drop(
            (model.local_stage, model.local_head), (edge, head), x, targets,
            forward=local_logits)
        assert report["agreement"] >= 0.9
        assert abs(report["drop"]) <= 0.1

    def test_fig7_resnet_agreement(self):
        rng = rng_for(3)
        model = fuse_for_inference(
            SmallResNet(1, num_classes=4, widths=(8, 16), rng=rng),
            dtype=np.float32)
        x = rng.normal(size=(48, 1, 16, 16)).astype(np.float32)
        targets = rng.integers(0, 4, size=48)
        quantized = quantize_for_inference(model, x)
        report = measure_quantization_drop(model, quantized, x, targets)
        assert report["agreement"] >= 0.9
        assert abs(report["drop"]) <= 0.1
        assert 0.0 <= report["float_accuracy"] <= 1.0


class TestQuantizedPlans:
    def test_quantized_stack_plans_bit_identical_to_quantized_eager(self):
        rng = rng_for(4)
        model = fuse_for_inference(nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng),
        ), dtype=np.float32)
        x = rng.normal(size=(6, 1, 12, 12)).astype(np.float32)
        quantized = quantize_for_inference(model, x)
        plan = capture_plan(quantized, x)
        with nn.no_grad():
            expected = quantized(Tensor(x)).data
        assert np.array_equal(plan.run(x), expected)
        assert np.array_equal(plan.run(x[:2]), expected[:2])


def six_step_fake_quant(values, scale, zero_point):
    """The int8 round trip as first written: the byte-level reference."""
    q = np.clip(np.round(values / scale) + zero_point, -128, 127)
    return (q - zero_point) * scale


def fake_quant_plan(rows, sample_shape, scale, zero_point):
    """A captured plan holding one fake-quant op on its input."""
    builder = plan_mod._PlanBuilder(rows, sample_shape, np.float32)
    op = _FakeQuantOp(builder, scale, zero_point, plan_mod._INPUT)
    builder.add_op(op)
    return plan_mod.InferencePlan(None, builder, op.out_slot, "fake_quant")


#: grid units: inside, on and far outside the int8 range, halves, and the
#: small negatives that round to -0.0
GRID_UNITS = st.one_of(
    st.floats(-400.0, 400.0, width=32),
    st.sampled_from([-0.5, -0.4, -0.25, -1e-6, -0.0, 0.0, 0.5, 1.5, -1.5,
                     127.5, -128.5, 255.0, -255.0, 1e30, -1e30]))
#: values that are not a finite multiple of the scale
SPECIAL = st.sampled_from([np.inf, -np.inf, np.nan, -np.nan,
                           np.float32(3e38), np.float32(-3e38),
                           np.float32(1e-40), np.float32(-1e-40)])


class TestFakeQuantBytes:
    """Eager and planned fake-quant equal the six-step reference, bytewise.

    ``np.array_equal`` (what plan validation uses) cannot see the sign of
    zero or a NaN's bits, so the comparison is ``tobytes()``.
    """

    @settings(max_examples=60, deadline=None)
    @given(sample_shape=st.sampled_from([(2, 3, 3), (1, 4, 4), (5,)]),
           rows=st.integers(1, 5),
           low=st.floats(-50.0, 0.0), high=st.floats(0.0, 50.0),
           data=st.data())
    def test_eager_and_op_equal_the_reference(self, sample_shape, rows, low,
                                              high, data):
        scale, zero_point = calibrate_activation(np.array([low, high]))
        assert zero_point == int(zero_point) and -128 <= zero_point <= 127
        size = rows * int(np.prod(sample_shape))
        cells = data.draw(st.lists(
            st.one_of(GRID_UNITS.map(lambda unit: unit * scale), SPECIAL),
            min_size=size, max_size=size))
        x = np.array(cells, dtype=np.float32).reshape((rows,) + sample_shape)
        plan = fake_quant_plan(rows, sample_shape, scale, zero_point)
        with np.errstate(all="ignore"):
            for prefix in range(1, rows + 1):
                head = np.ascontiguousarray(x[:prefix])
                layouts = [head]
                if len(sample_shape) == 3:   # the batch-innermost layout
                    layouts.append(np.moveaxis(
                        np.ascontiguousarray(np.moveaxis(head, 0, -1)),
                        -1, 0))
                expected = six_step_fake_quant(head, scale,
                                               zero_point).tobytes()
                for values in layouts:
                    assert fake_quant(values, scale, zero_point).tobytes() \
                        == expected
                    assert plan.run(values).tobytes() == expected

    def test_values_rounding_to_negative_zero_come_back_positive(self):
        x = np.array([[-0.4, -0.0, -1e-6, 0.0]], dtype=np.float32)
        for zero_point in (-128.0, -3.0, 0.0, 5.0, 127.0):
            expected = six_step_fake_quant(x, 1.0, zero_point).tobytes()
            plan = fake_quant_plan(1, (4,), 1.0, zero_point)
            for got in (fake_quant(x, 1.0, zero_point), plan.run(x)):
                assert got.tobytes() == expected
                assert not np.signbit(got).any()
