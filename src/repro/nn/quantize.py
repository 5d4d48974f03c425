"""Post-training int8 quantization for edge-tier inference.

The reconfigurable video-surveillance CPS line of work motivates
shrinking the *edge* half of an early-exit deployment: the local stage
and exit head run on constrained devices and their weights dominate the
deployment payload.  This module implements the standard PTQ recipe:

- **weights**: per-output-channel symmetric int8 (scale = max|W_c|/127,
  zero-point 0) — stored as int8 buffers for payload accounting, with a
  dequantized float copy kept as the live parameter;
- **activations**: per-tensor asymmetric int8 fake-quant, with scale and
  zero-point calibrated from the min/max of a representative batch
  (:func:`quantize_for_inference` records each layer's actual input
  during one calibration forward).

Compute stays in float32 BLAS: NumPy has no int8 GEMM kernel, so an
integer matmul would be *slower* than float — the honest wins on this
backend are the 4x smaller serialized payload (see
:func:`quantized_state_bytes`) and a measured accuracy-parity bound
(:func:`measure_quantization_drop`), not raw speed.  Quantized layers
register plan builders, so a planned deployment fake-quants activations
inside the arena with no extra allocation.

Quantized modules are inference-only: their forward raises if autograd
is recording (training through a fake-quant without a straight-through
estimator would silently compute wrong gradients).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import plan as plan_mod
from repro.nn.fuse import patch_list_references
from repro.nn.grad_mode import is_grad_enabled
from repro.nn.modules import Conv2d, Linear, Module, Parameter
from repro.nn.tensor import Tensor

INT8_LEVELS = 255
QPARAM_OVERHEAD_BYTES = 16  # serialized scale + zero-point per tensor


def quantize_weight_per_channel(weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8: returns (int8 weights, scales).

    Channel c maps through ``w / scale_c`` with ``scale_c = max|W_c| / 127``;
    an all-zero channel gets scale 1 so dequantization is well defined.
    """
    flat = weight.reshape(weight.shape[0], -1)
    amax = np.abs(flat).max(axis=1)
    scale = np.where(amax > 0, amax / 127.0, 1.0)
    view = scale.reshape((-1,) + (1,) * (weight.ndim - 1))
    q = np.clip(np.round(weight / view), -127, 127).astype(np.int8)
    return q, scale


def dequantize_weight(q: np.ndarray, scale: np.ndarray, dtype) -> np.ndarray:
    view = scale.reshape((-1,) + (1,) * (q.ndim - 1))
    return (q * view).astype(dtype)


def calibrate_activation(values: np.ndarray) -> Tuple[float, float]:
    """Asymmetric per-tensor qparams (scale, zero_point) from observed data.

    The range always includes zero (so padding and ReLU zeros map to a
    representable level), split across the 255 usable int8 steps.
    """
    lo = min(float(values.min()), 0.0) if values.size else 0.0
    hi = max(float(values.max()), 0.0) if values.size else 0.0
    scale = (hi - lo) / INT8_LEVELS
    if scale == 0.0:
        return 1.0, 0.0
    zero_point = round(-128.0 - lo / scale)
    return scale, float(np.clip(zero_point, -128, 127))


def fake_quant(values: np.ndarray, scale: float, zero_point: float) -> np.ndarray:
    """Round-trip ``values`` through the int8 grid, staying in float.

    ``clip(round(x / s) + z, -128, 127)`` lands exactly on integer grid
    points in float arithmetic, so this matches a true int8 round-trip
    while keeping the BLAS-friendly dtype.
    """
    q = np.clip(np.round(values / scale) + zero_point, -128, 127)
    return (q - zero_point) * scale


class _QuantizedMixin:
    """Shared int8 state: quantized weight buffers + activation qparams."""

    def _quantize_from(self, layer) -> None:
        weight = layer.weight.data
        q, scale = quantize_weight_per_channel(weight)
        self._buffer_weight_q = q
        self._buffer_weight_scale = scale.astype(np.float32)
        self.weight = Parameter(dequantize_weight(q, scale, weight.dtype))
        self.bias = (Parameter(layer.bias.data.copy())
                     if layer.bias is not None else None)
        self.act_scale = 1.0
        self.act_zero_point = 0.0

    def set_activation_qparams(self, scale: float, zero_point: float) -> None:
        self.act_scale = float(scale)
        self.act_zero_point = float(zero_point)

    def _fake_quant_input(self, x: Tensor) -> Tensor:
        if is_grad_enabled():
            raise RuntimeError(
                f"{type(self).__name__} is inference-only: run it under "
                "no_grad() (fake-quant has no gradient defined)")
        return Tensor(fake_quant(x.data, self.act_scale, self.act_zero_point))


class QuantizedConv2d(_QuantizedMixin, Conv2d):
    """Conv2d with int8 weights and fake-quantized input activations."""

    @classmethod
    def from_float(cls, conv: Conv2d) -> "QuantizedConv2d":
        q = cls.__new__(cls)
        Module.__init__(q)
        q.in_channels = conv.in_channels
        q.out_channels = conv.out_channels
        q.kernel_size = conv.kernel_size
        q.stride = conv.stride
        q.padding = conv.padding
        q._quantize_from(conv)
        return q

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(self._fake_quant_input(x), self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class QuantizedLinear(_QuantizedMixin, Linear):
    """Linear with int8 weights and fake-quantized input activations."""

    @classmethod
    def from_float(cls, linear: Linear) -> "QuantizedLinear":
        q = cls.__new__(cls)
        Module.__init__(q)
        q.in_features = linear.in_features
        q.out_features = linear.out_features
        q._quantize_from(linear)
        return q

    def forward(self, x: Tensor) -> Tensor:
        out = self._fake_quant_input(x) @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


# -- plan integration --------------------------------------------------------

class _FakeQuantOp(plan_mod._PlanOp):
    """Arena fake-quant, ufunc-for-ufunc identical to :func:`fake_quant`."""

    label = "fake_quant"

    def __init__(self, builder, scale: float, zero_point: float, in_slot: int):
        shape = builder.slots[in_slot].shape
        self._scale = scale
        self._zero_point = zero_point
        self.out_slot = builder.new_slot(shape, builder.slots[in_slot].dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        builder.flops += 4.0 * builder.slots[in_slot].size

    def run(self):
        # rebind/set_input: inherited single-input default.
        out = self._out
        np.divide(self._x, self._scale, out=out)
        np.round(out, out=out)
        out += self._zero_point
        np.clip(out, -128, 127, out=out)
        out -= self._zero_point
        out *= self._scale


@plan_mod.plan_builder(QuantizedConv2d)
def _build_quantized_conv(builder, module, in_slot):
    op = _FakeQuantOp(builder, module.act_scale, module.act_zero_point, in_slot)
    builder.add_op(op)
    return plan_mod._build_conv(builder, module, op.out_slot)


@plan_mod.plan_builder(QuantizedLinear)
def _build_quantized_linear(builder, module, in_slot):
    op = _FakeQuantOp(builder, module.act_scale, module.act_zero_point, in_slot)
    builder.add_op(op)
    return plan_mod._build_linear(builder, module, op.out_slot)


# -- whole-module quantization ----------------------------------------------

def _record_layer_inputs(module: Module, targets: List[Module],
                         calibration: np.ndarray) -> Dict[int, Tuple[float, float]]:
    """One eval forward of ``calibration``, capturing each target's input."""
    observed: Dict[int, Tuple[float, float]] = {}
    patched = []

    def recorder_for(layer: Module) -> Callable:
        forward = type(layer).forward

        def recorder(x, *args, **kwargs):
            data = x.data if isinstance(x, Tensor) else np.asarray(x)
            lo, hi = observed.get(id(layer), (np.inf, -np.inf))
            if data.size:
                observed[id(layer)] = (min(lo, float(data.min())),
                                       max(hi, float(data.max())))
            return forward(layer, x, *args, **kwargs)

        return recorder

    from repro.nn.grad_mode import no_grad
    from repro.nn.inference import eval_mode
    try:
        for layer in targets:
            recorder = recorder_for(layer)
            object.__setattr__(layer, "forward", recorder)
            patched.append(layer)
        with eval_mode(module), no_grad():
            module(Tensor(calibration))
    finally:
        for layer in patched:
            if "forward" in layer.__dict__:
                del layer.__dict__["forward"]
    qparams = {}
    for layer in targets:
        lo, hi = observed.get(id(layer), (0.0, 0.0))
        span = np.array([lo, hi]) if np.isfinite(lo) else np.array([0.0])
        qparams[id(layer)] = calibrate_activation(span)
    return qparams


def quantize_for_inference(module: Module, calibration: np.ndarray) -> Module:
    """Return a deep copy of ``module`` with conv/dense layers int8-quantized.

    ``calibration`` is a representative input batch; it is run through the
    copy once (eval mode, no grad) to calibrate per-layer activation
    ranges.  Fuse *before* quantizing — a folded graph has no BatchNorm
    between a layer and its activation observer.  The copy carries
    ``quantized_layers`` (count) for telemetry.
    """
    calibration = np.asarray(calibration)
    if calibration.ndim < 2 or calibration.shape[0] < 1:
        raise ValueError("calibration needs a batch with >= 1 row")
    if isinstance(module, (Conv2d, Linear)):
        raise ValueError(
            "quantize_for_inference needs a container module; wrap a bare "
            "layer in Sequential")
    quantized = copy.deepcopy(module)
    targets = [m for m in quantized.modules()
               if isinstance(m, (Conv2d, Linear))
               and not isinstance(m, _QuantizedMixin)]
    qparams = _record_layer_inputs(quantized, targets, calibration)
    replaced: Dict[int, Module] = {}
    for parent in list(quantized.modules()):
        for name, child in list(parent._modules.items()):
            if id(child) not in qparams:
                continue
            maker = (QuantizedConv2d if isinstance(child, Conv2d)
                     else QuantizedLinear)
            qlayer = maker.from_float(child)
            qlayer.set_activation_qparams(*qparams[id(child)])
            setattr(parent, name, qlayer)
            replaced[id(child)] = qlayer
    patch_list_references(quantized, replaced)
    quantized.eval()
    quantized.quantized_layers = len(replaced)
    return quantized


def quantized_state_bytes(module: Module) -> int:
    """Serialized size of the module's weights in int8 transport form.

    Quantized layers ship int8 weights + per-channel scales + activation
    qparams; everything else (biases, unquantized parameters, buffers
    that are not the float shadow of an int8 tensor) ships at its native
    width.  Compare with the float ``payload_bytes`` a
    :class:`~repro.fog.deployment.TwoTierDeployment` reports to get the
    edge-tier savings.
    """
    total = 0
    for sub in module.modules():
        if isinstance(sub, _QuantizedMixin):
            total += sub._buffer_weight_q.nbytes
            total += sub._buffer_weight_scale.nbytes
            total += QPARAM_OVERHEAD_BYTES
            if sub.bias is not None:
                total += sub.bias.data.nbytes
        else:
            for param in sub._parameters.values():
                total += param.data.nbytes
            for name, value in sub.__dict__.items():
                if name.startswith("_buffer_") and isinstance(value, np.ndarray):
                    total += value.nbytes
    return total


def measure_quantization_drop(model: Module, quantized: Module,
                              inputs: np.ndarray, targets: np.ndarray,
                              forward: Optional[Callable] = None) -> Dict[str, float]:
    """Accuracy of float vs quantized on held-out data, and the drop.

    ``forward`` maps (module, inputs) -> logits array; defaults to the
    batched inference fast path.  Returns ``{"float_accuracy",
    "quantized_accuracy", "drop", "agreement"}`` — ``agreement`` is the
    fraction of samples where both models predict the same class, the
    parity bound the edge tier is gated on.
    """
    from repro.nn.inference import batched_forward
    run = forward or (lambda module, x: batched_forward(module, x))
    targets = np.asarray(targets)
    float_logits = np.asarray(run(model, inputs))
    quant_logits = np.asarray(run(quantized, inputs))
    float_pred = float_logits.argmax(axis=-1)
    quant_pred = quant_logits.argmax(axis=-1)
    float_acc = float((float_pred == targets).mean())
    quant_acc = float((quant_pred == targets).mean())
    return {
        "float_accuracy": float_acc,
        "quantized_accuracy": quant_acc,
        "drop": float_acc - quant_acc,
        "agreement": float((float_pred == quant_pred).mean()),
    }
