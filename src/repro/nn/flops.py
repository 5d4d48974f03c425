"""Static FLOP estimation for modules.

The fog placement policy (Sec. II-B-1) decides which layers run on which
tier by comparing layer cost to tier compute rates.  This module estimates
multiply-accumulate counts per layer for a given input shape, mirroring the
standard conventions (2 FLOPs per MAC).
"""

from __future__ import annotations

from typing import Tuple

from repro.nn import modules as M


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def estimate_flops(module: M.Module, input_shape: Tuple[int, ...]) -> Tuple[float, Tuple[int, ...]]:
    """Estimate FLOPs for one forward pass and return (flops, output_shape).

    ``input_shape`` excludes the batch dimension: (C, H, W) for conv stacks
    or (F,) for dense layers.  Composite modules recurse over children in
    the order :class:`repro.nn.modules.Sequential` applies them.

    A captured :class:`repro.nn.plan.InferencePlan` is also accepted: the
    plan compiler already summed per-op FLOPs over its exact geometry
    (including what actually executes — fused models have no BatchNorm
    passes left, ``Identity`` compiles to nothing), so the plan is
    the ground truth the static estimate is checked against in tests.
    """
    if hasattr(module, "flops_per_item") and hasattr(module, "sample_shape"):
        if tuple(input_shape) != tuple(module.sample_shape):
            raise ValueError(
                f"plan was captured for {tuple(module.sample_shape)} samples, "
                f"asked about {tuple(input_shape)}")
        return module.flops_per_item, tuple(module.output_shape[1:])
    if isinstance(module, M.Sequential):
        total = 0.0
        shape = input_shape
        for layer in module:
            flops, shape = estimate_flops(layer, shape)
            total += flops
        return total, shape
    if isinstance(module, M.Conv2d):
        c, h, w = input_shape
        out_h = _conv_out(h, module.kernel_size, module.stride, module.padding)
        out_w = _conv_out(w, module.kernel_size, module.stride, module.padding)
        macs = (module.out_channels * out_h * out_w
                * c * module.kernel_size * module.kernel_size)
        return 2.0 * macs, (module.out_channels, out_h, out_w)
    if isinstance(module, M.Linear):
        flattened = 1
        for dim in input_shape:
            flattened *= dim
        if flattened != module.in_features:
            raise ValueError(
                f"linear layer expects {module.in_features} features, "
                f"input shape {input_shape} provides {flattened}")
        return 2.0 * module.in_features * module.out_features, (module.out_features,)
    if isinstance(module, M.MaxPool2d):
        c, h, w = input_shape
        k = module.kernel_size
        out_h = _conv_out(h, k, k, 0)
        out_w = _conv_out(w, k, k, 0)
        return float(c * out_h * out_w * module.kernel_size ** 2), (c, out_h, out_w)
    if isinstance(module, M.GlobalAvgPool2d):
        c, h, w = input_shape
        return float(c * h * w), (c,)
    if isinstance(module, M.BatchNorm2d):
        numel = 1
        for dim in input_shape:
            numel *= dim
        return 4.0 * numel, input_shape
    if isinstance(module, M.Identity):
        return 0.0, input_shape
    if isinstance(module, M.Flatten):
        flattened = 1
        for dim in input_shape:
            flattened *= dim
        return 0.0, (flattened,)
    if isinstance(module, (M.ReLU, M.LeakyReLU)):
        numel = 1
        for dim in input_shape:
            numel *= dim
        return float(numel), input_shape
    if isinstance(module, M.LSTM):
        steps = input_shape[0] if len(input_shape) == 2 else 1
        feature = input_shape[-1]
        gate_macs = 4 * module.hidden_size * (feature + module.hidden_size)
        return 2.0 * gate_macs * steps, (steps, module.hidden_size)
    if hasattr(module, "estimate_flops"):
        return module.estimate_flops(input_shape)
    # Composite user modules: sum over registered children, shape unchanged
    # only if the module declares it; otherwise we cannot infer — fail loudly.
    raise TypeError(f"cannot estimate FLOPs for {type(module).__name__}")


def activation_size_bytes(shape: Tuple[int, ...]) -> int:
    """Bytes of an activation of ``shape`` (per sample) at fp32 transport.

    Used to price sending a feature map upstream (Fig. 5) versus sending the
    raw frame.
    """
    numel = 1
    for dim in shape:
        numel *= dim
    return numel * 4
