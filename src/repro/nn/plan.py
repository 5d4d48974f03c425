"""Graph-captured inference plans: run a module without per-op dispatch.

PR 4's fast path (``no_grad`` + fusion + float32) left two costs on the
table, both visible in ``BENCH_nn_inference.json``: per-op Python/Tensor
dispatch, and allocation churn — every conv allocates a padded input, a
GEMM output, and a bias sum on every forward.  A *plan* removes both:

- :func:`capture_plan` walks a module's structure once and compiles it
  into a linear list of kernel ops over a fixed input geometry.  Each op
  is a plain object holding pre-bound NumPy buffers and parameter views;
  executing the plan is a straight loop of ``out=``-style NumPy calls
  with **zero** Tensor wrapping and **zero** fresh array allocation.
- An :class:`Arena` owns every intermediate buffer.  Buffers are assigned
  by liveness (a slot whose last reader has run is recycled for the next
  same-shape/dtype slot), generalizing the PR 5 im2col scratch cache into
  a plan-owned pool that is reused across micro-batches.
- :class:`PlanCache` keys plans on (rows, sample shape, dtype) with LRU
  eviction and ``nn.plan.*`` counters.  A batch with *fewer* rows than a
  captured plan (the ragged tail of ``iter_microbatches``, or the
  variable escalated-row count of an early-exit remote stage) runs
  *padded* through the nearest larger plan instead of recapturing.

Kernels mirror the eager ops expression-for-expression (same NumPy ufunc
sequence, same dtypes; conv is the very function no-grad ``F.conv2d``
calls), so a plan's output is bit-identical to the eager fast path at
every row count — early-exit *decisions* therefore cannot differ between
the two.  Capture validates this on the example batch and records the
observed error.

Plans are inference-only snapshots: they hold views of the module's
parameter arrays at capture time.  Every ``run`` cheaply verifies those
arrays are still the module's current ones and raises :class:`PlanError`
if the module was retrained, re-cast, or re-loaded — call
:meth:`PlanCache.clear` (or recapture) after mutating a planned module.

Plan state is deliberately per-process: :class:`PlanCache` pickles as an
*empty* cache (workers of a ``ParallelExecutor`` recapture on first use)
and its counters live under the ``nn.plan.`` metric prefix, which
``deterministic_dump`` drops — capture counts depend on worker placement
and must not leak into merged telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn import modules as M
from repro.nn.functional import _conv_output_size, conv_k_major
from repro.nn.grad_mode import no_grad
from repro.nn.tensor import Tensor
from repro.runtime import get_runtime

#: metric namespace for plan-cache counters; dropped from deterministic
#: dumps (see ``repro.runtime.parallel``) because plans are per-worker.
PLAN_METRIC_PREFIX = "nn.plan."


class PlanError(RuntimeError):
    """Capture failed or a captured plan no longer matches its module."""


# --------------------------------------------------------------------------
# Build-time slot bookkeeping
# --------------------------------------------------------------------------

class _Slot:
    """A logical buffer: shape + dtype, possibly aliasing another slot."""

    __slots__ = ("shape", "dtype", "base", "exclusive")

    def __init__(self, shape, dtype, base=None, exclusive=False):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.base = base          # root slot id when this is a reshape view
        self.exclusive = exclusive  # never recycled (holds persistent zeros)


class _PlanBuilder:
    """Accumulates slots and ops while a module tree is being compiled."""

    def __init__(self, rows: int, sample_shape: Tuple[int, ...], dtype):
        self.rows = rows
        self.slots: List[_Slot] = []
        self.ops: List["_PlanOp"] = []
        self.flops = 0.0
        self.fallback_ops = 0
        self.watched: List[Tuple[object, str, np.ndarray]] = []
        self.input_slot = self.new_slot((rows,) + tuple(sample_shape), dtype)

    def new_slot(self, shape, dtype, exclusive: bool = False) -> int:
        self.slots.append(_Slot(shape, dtype, exclusive=exclusive))
        return len(self.slots) - 1

    def alias_slot(self, slot: int, shape) -> int:
        """A reshape view over ``slot``'s storage (contiguous buffers only)."""
        root = self.root(slot)
        self.slots.append(_Slot(shape, self.slots[slot].dtype, base=root))
        return len(self.slots) - 1

    def root(self, slot: int) -> int:
        base = self.slots[slot].base
        return slot if base is None else base

    def add_op(self, op: "_PlanOp") -> None:
        self.ops.append(op)

    def watch(self, owner: object, attr: str, array: np.ndarray) -> None:
        """Record that the plan embeds ``owner.<attr>`` (a parameter view)."""
        self.watched.append((owner, attr, array))

    def watch_param(self, module: M.Module, name: str) -> np.ndarray:
        """Embed ``module.<name>.data`` and watch both rebind levels.

        Staleness has two shapes: ``param.data = new_array`` (optimizer
        step, ``astype``) and ``module.weight = Parameter(...)`` (reload,
        re-quantization).  Watching only the parameter object misses the
        second, so both links are recorded.
        """
        param = getattr(module, name)
        self.watch(module, name, param)
        self.watch(param, "data", param.data)
        return param.data

    def watch_buffer(self, module: M.Module, name: str) -> np.ndarray:
        array = getattr(module, name)
        self.watch(module, name, array)
        return array


class _PlanOp:
    """One step of a plan.  Subclasses bind buffers once, then ``run``.

    ``reads``/``writes`` list slot ids for liveness analysis; ``bind``
    receives the physical buffer per slot and stores direct references so
    ``run`` does no indexing or allocation (lint rule PERF403 enforces the
    no-allocation property on every ``run`` body in this module).

    ``rebind(rows)`` re-slices every working view to the first ``rows``
    batch rows.  This is how a plan serves *smaller* batches (ragged
    micro-batch tails, variable escalation counts) while staying
    bit-identical to eager: each kernel executes on a C-contiguous row
    prefix with exactly the shapes the eager path would see, so BLAS and
    ufunc reduction orders match — zero-padding the batch instead would
    let BLAS pick a different kernel for the larger M and drift by an ulp.
    Rebinding creates views only, never buffers.
    """

    label = "op"
    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()

    def bind(self, buffers: Dict[int, np.ndarray]) -> None:
        # Default for single-input, single-output, batch-leading ops;
        # multi-buffer ops (conv, pool, residual) override both methods.
        self._x_full = buffers[self.reads[0]]
        self._out_full = buffers[self.out_slot]

    def rebind(self, rows: int) -> None:
        self._x = self._x_full[:rows]
        self._out = self._out_full[:rows]

    def run(self) -> None:
        raise NotImplementedError


class _CopyOp(_PlanOp):
    """out[...] = in — materialize an alias or stage a sub-plan input."""

    label = "copy"

    def __init__(self, src: int, dst: int):
        self.reads = (src,)
        self.writes = (dst,)

    def bind(self, buffers):
        self._src_full = buffers[self.reads[0]]
        self._dst_full = buffers[self.writes[0]]

    def rebind(self, rows):
        self._src = self._src_full[:rows]
        self._dst = self._dst_full[:rows]

    def run(self):
        self._dst[...] = self._src


class _ConvOp(_PlanOp):
    """Conv2d: ``functional.conv_k_major`` over arena buffers.

    Slots: optional padded input (exclusive: the zero border is written
    once at materialize time and never recycled), flat storage for the
    K-major column matrix (C·K·K · N·H'·W') and for the channel-major
    GEMM result (F · N·H'·W'), and the (N, F, H', W') output.

    An ``r``-row run views its column and result matrices over the
    contiguous *head* of that storage — (C·K·K, r·H'·W') and
    (F, r·H'·W'), C-contiguous, never column slices of the full-size
    matrices — so BLAS gets exactly the operands no-grad ``F.conv2d``
    hands it at ``r`` rows, and a plan captured at ``r`` rows would bind:
    every prefix length is bit-identical to both by construction, at the
    same cost.  The last pass writes the result back to NCHW (a block
    transpose: per-sample H'·W' planes move as contiguous runs) and
    applies a directly following ``ReLU`` on the way (``relu``, set by
    :func:`_build_relu`): one slot and one sweep fewer.
    """

    label = "conv2d"

    def __init__(self, builder: _PlanBuilder, conv: M.Conv2d, in_slot: int):
        n, c, h, w = builder.slots[in_slot].shape
        k, stride, padding = conv.kernel_size, conv.stride, conv.padding
        out_h = _conv_output_size(h, k, stride, padding)
        out_w = _conv_output_size(w, k, stride, padding)
        f = conv.out_channels
        weight = builder.watch_param(conv, "weight")
        dtype = np.result_type(builder.slots[in_slot].dtype, weight.dtype)
        self._w_flat = weight.reshape(f, -1)
        self._bias_col = None
        if conv.bias is not None:
            self._bias_col = builder.watch_param(conv, "bias").reshape(f, 1)
        self.kernel, self.stride, self.padding = k, stride, padding
        self.geometry = (n, c, h, w, f, out_h, out_w)
        self.relu = False

        self._pad_slot = None
        if padding > 0:
            self._pad_slot = builder.new_slot(
                (n, c, h + 2 * padding, w + 2 * padding), dtype, exclusive=True)
        cols_slot = builder.new_slot((c * k * k * n * out_h * out_w,), dtype)
        gemm_slot = builder.new_slot((f * n * out_h * out_w,), dtype)
        self.out_slot = builder.new_slot((n, f, out_h, out_w), dtype)
        self.reads = (in_slot,)
        scratch = (cols_slot, gemm_slot)
        if self._pad_slot is not None:
            scratch = (self._pad_slot,) + scratch
        self.writes = scratch + (self.out_slot,)
        self._slots = (in_slot, cols_slot, gemm_slot, self.out_slot)
        builder.flops += 2.0 * n * f * out_h * out_w * c * k * k

    def bind(self, buffers):
        in_slot, cols_slot, gemm_slot, out_slot = self._slots
        self._x_full = buffers[in_slot]
        self._pad_full = (buffers[self._pad_slot]
                          if self._pad_slot is not None else None)
        self._cols_flat = buffers[cols_slot]
        self._gemm_flat = buffers[gemm_slot]
        self._out_full = buffers[out_slot]

    def rebind(self, rows):
        _, c, _, _, f, out_h, out_w = self.geometry
        k = self.kernel
        positions = rows * out_h * out_w
        self._cols_t = self._cols_flat[:c * k * k * positions].reshape(
            c, k, k, rows, out_h, out_w)
        self._gemm = self._gemm_flat[:f * positions].reshape(f, positions)
        self._gemm_nchw = self._gemm.reshape(
            f, rows, out_h, out_w).transpose(1, 0, 2, 3)
        self._out = self._out_full[:rows]
        x = self._x_full[:rows]
        if self._pad_full is not None:
            p = self.padding
            padded = self._pad_full[:rows]
            self._pad_src = x
            self._pad_interior = padded[:, :, p:-p, p:-p]
            x = padded
        self._x_t = x.transpose(1, 0, 2, 3)

    def run(self):
        if self._pad_full is not None:
            self._pad_interior[...] = self._pad_src
        conv_k_major(self._x_t, self._cols_t, self._w_flat, self._bias_col,
                     self._gemm, self.stride)
        if self.relu:
            np.maximum(self._gemm_nchw, 0, out=self._out)
        else:
            self._out[...] = self._gemm_nchw


class _LinearOp(_PlanOp):
    """y = x @ W.T + b via a single BLAS call into the arena."""

    label = "linear"

    def __init__(self, builder: _PlanBuilder, linear: M.Linear, in_slot: int):
        in_shape = builder.slots[in_slot].shape
        if len(in_shape) != 2 or in_shape[1] != linear.in_features:
            raise PlanError(
                f"linear layer expects (N, {linear.in_features}), "
                f"plan slot has {in_shape}")
        weight = builder.watch_param(linear, "weight")
        dtype = np.result_type(builder.slots[in_slot].dtype, weight.dtype)
        self._w_t = weight.T
        self._bias = (builder.watch_param(linear, "bias")
                      if linear.bias is not None else None)
        self.out_slot = builder.new_slot((in_shape[0], linear.out_features), dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        builder.flops += 2.0 * in_shape[0] * linear.in_features * linear.out_features

    def run(self):
        np.matmul(self._x, self._w_t, out=self._out)
        if self._bias is not None:
            self._out += self._bias


class _BatchNormOp(_PlanOp):
    """Eval-mode BatchNorm as four in-place broadcast passes.

    Replicates the eager expression ``(x - mean) / (var + eps) ** 0.5 *
    gamma + beta`` ufunc for ufunc; the denominator is precomputed at
    capture with the same dtype arithmetic, so results stay bit-identical
    to the unfused eager path.
    """

    label = "batchnorm"

    def __init__(self, builder: _PlanBuilder, bn: M.BatchNorm2d, in_slot: int):
        in_shape = builder.slots[in_slot].shape
        view = (1, -1, 1, 1) if len(in_shape) == 4 else (1, -1)
        gamma = builder.watch_param(bn, "gamma")
        beta = builder.watch_param(bn, "beta")
        mean = builder.watch_buffer(bn, "_buffer_running_mean")
        var = builder.watch_buffer(bn, "_buffer_running_var")
        dtype = np.result_type(builder.slots[in_slot].dtype, gamma.dtype)
        self._mean = mean.reshape(view)
        eps = np.asarray(bn.eps, dtype=var.dtype)
        self._denom = (var.reshape(view) + eps) ** 0.5
        self._gamma = gamma.reshape(view)
        self._beta = beta.reshape(view)
        self.out_slot = builder.new_slot(in_shape, dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        numel = 1
        for dim in in_shape:
            numel *= dim
        builder.flops += 4.0 * numel

    def run(self):
        out = self._out
        np.subtract(self._x, self._mean, out=out)
        out /= self._denom
        out *= self._gamma
        out += self._beta


class _ReluOp(_PlanOp):
    label = "relu"

    def __init__(self, builder: _PlanBuilder, in_slot: int):
        shape = builder.slots[in_slot].shape
        self.out_slot = builder.new_slot(shape, builder.slots[in_slot].dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        numel = 1
        for dim in shape:
            numel *= dim
        builder.flops += float(numel)

    def run(self):
        # Tensor.relu's forward expression, written into the arena.
        np.maximum(self._x, 0, out=self._out)


class _LeakyReluOp(_PlanOp):
    label = "leaky_relu"

    def __init__(self, builder: _PlanBuilder, slope: float, in_slot: int):
        shape = builder.slots[in_slot].shape
        dtype = builder.slots[in_slot].dtype
        # Tensor.leaky_relu multiplies by where(x > 0, 1, slope) cast to
        # the input dtype; x * 1 is x, so scaling everything by the cast
        # slope and copying the positive entries back is the same values
        # without the per-run scale array.  The mask is a bound slot.
        self._slope = np.asarray(slope, dtype=dtype)
        self._mask_slot = builder.new_slot(shape, np.bool_)
        self.out_slot = builder.new_slot(shape, dtype)
        self.reads = (in_slot,)
        self.writes = (self._mask_slot, self.out_slot)
        numel = 1
        for dim in shape:
            numel *= dim
        builder.flops += float(numel)

    def bind(self, buffers):
        super().bind(buffers)
        self._mask_full = buffers[self._mask_slot]

    def rebind(self, rows):
        super().rebind(rows)
        self._mask = self._mask_full[:rows]

    def run(self):
        np.greater(self._x, 0, out=self._mask)
        np.multiply(self._x, self._slope, out=self._out)
        np.copyto(self._out, self._x, where=self._mask)


class _TanhOp(_PlanOp):
    label = "tanh"

    def __init__(self, builder: _PlanBuilder, in_slot: int):
        shape = builder.slots[in_slot].shape
        self.out_slot = builder.new_slot(shape, builder.slots[in_slot].dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        numel = 1
        for dim in shape:
            numel *= dim
        builder.flops += float(numel)

    def run(self):
        np.tanh(self._x, out=self._out)


class _SigmoidOp(_PlanOp):
    label = "sigmoid"

    def __init__(self, builder: _PlanBuilder, in_slot: int):
        shape = builder.slots[in_slot].shape
        self.out_slot = builder.new_slot(shape, builder.slots[in_slot].dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        numel = 1
        for dim in shape:
            numel *= dim
        builder.flops += float(numel)

    def run(self):
        # Mirrors Tensor.sigmoid: 1 / (1 + exp(-clip(x, -60, 60))).
        out = self._out
        np.clip(self._x, -60, 60, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)


class _PoolOp(_PlanOp):
    """Max/avg pooling via the same (N*C, 1, H, W) unfold as the eager op."""

    def __init__(self, builder: _PlanBuilder, kind: str, kernel: int,
                 stride: Optional[int], in_slot: int):
        n, c, h, w = builder.slots[in_slot].shape
        stride = kernel if stride is None else stride
        out_h = _conv_output_size(h, kernel, stride, 0)
        out_w = _conv_output_size(w, kernel, stride, 0)
        dtype = builder.slots[in_slot].dtype
        self.kind = kind
        self.label = f"{kind}_pool"
        self.kernel, self.stride = kernel, stride
        self.geometry = (n, c, h, w, out_h, out_w)
        rows = n * c * out_h * out_w
        cols_slot = builder.new_slot((n * c, 1, kernel, kernel, out_h, out_w), dtype)
        flat_slot = builder.new_slot((rows, kernel * kernel), dtype)
        self.out_slot = builder.new_slot((n, c, out_h, out_w), dtype)
        self.reads = (in_slot,)
        self.writes = (cols_slot, flat_slot, self.out_slot)
        self._slots = (in_slot, cols_slot, flat_slot, self.out_slot)
        self._arange = np.arange(rows) if kind == "max" else None
        self._argmax = np.empty(rows, dtype=np.intp) if kind == "max" else None
        builder.flops += float(c * out_h * out_w * kernel * kernel) * n

    def bind(self, buffers):
        in_slot, cols_slot, flat_slot, out_slot = self._slots
        n, c, h, w, _, _ = self.geometry
        self._x_full = buffers[in_slot].reshape(n * c, 1, h, w)
        self._cols_full = buffers[cols_slot]
        self._flat_full = buffers[flat_slot]
        self._out_full = buffers[out_slot]

    def rebind(self, rows):
        _, c, _, _, out_h, out_w = self.geometry
        k = self.kernel
        self._x = self._x_full[:rows * c]
        self._cols = self._cols_full[:rows * c]
        flat_rows = rows * c * out_h * out_w
        self._flat = self._flat_full[:flat_rows]
        self._flat_view = self._flat.reshape(rows * c, out_h, out_w, 1, k, k)
        self._out_flat = self._out_full[:rows].reshape(flat_rows)
        if self.kind == "max":
            self._arange_r = self._arange[:flat_rows]
            self._argmax_r = self._argmax[:flat_rows]

    def run(self):
        _, _, _, _, out_h, out_w = self.geometry
        k, stride = self.kernel, self.stride
        cols = self._cols
        x = self._x
        for ky in range(k):
            y_end = ky + stride * out_h
            for kx in range(k):
                x_end = kx + stride * out_w
                cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
        self._flat_view[...] = cols.transpose(0, 4, 5, 1, 2, 3)
        if self.kind == "max":
            np.argmax(self._flat, axis=1, out=self._argmax_r)
            self._out_flat[...] = self._flat[self._arange_r, self._argmax_r]
        else:
            np.mean(self._flat, axis=1, out=self._out_flat)


class _GlobalAvgPoolOp(_PlanOp):
    label = "global_avg_pool"

    def __init__(self, builder: _PlanBuilder, in_slot: int):
        n, c, h, w = builder.slots[in_slot].shape
        dtype = builder.slots[in_slot].dtype
        # Tensor.mean is sum * (1 / count) with the scalar cast to the
        # tensor dtype; replicate exactly rather than calling np.mean,
        # which divides by the count and can round differently.
        self._scale = np.asarray(1.0 / (h * w), dtype=dtype)
        self.out_slot = builder.new_slot((n, c), dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        builder.flops += float(n * c * h * w)

    def run(self):
        np.sum(self._x, axis=(2, 3), out=self._out)
        self._out *= self._scale


class _AddReluOp(_PlanOp):
    """(a + b).relu() — the residual join of a ResNet block."""

    label = "add_relu"

    def __init__(self, builder: _PlanBuilder, a_slot: int, b_slot: int,
                 relu: bool = True):
        shape = builder.slots[a_slot].shape
        if shape != builder.slots[b_slot].shape:
            raise PlanError(
                f"residual shape mismatch: {shape} vs {builder.slots[b_slot].shape}")
        self._relu = relu
        dtype = np.result_type(builder.slots[a_slot].dtype,
                               builder.slots[b_slot].dtype)
        self.out_slot = builder.new_slot(shape, dtype)
        self.reads = (a_slot, b_slot)
        self.writes = (self.out_slot,)
        numel = 1
        for dim in shape:
            numel *= dim
        builder.flops += float(numel) * (2.0 if relu else 1.0)

    def bind(self, buffers):
        self._a_full = buffers[self.reads[0]]
        self._b_full = buffers[self.reads[1]]
        self._out_full = buffers[self.out_slot]

    def rebind(self, rows):
        self._a = self._a_full[:rows]
        self._b = self._b_full[:rows]
        self._out = self._out_full[:rows]

    def run(self):
        out = self._out
        np.add(self._a, self._b, out=out)
        if self._relu:
            np.maximum(out, 0, out=out)


class _PadChannelsOp(_PlanOp):
    """Zero-pad channels (the widened maxpool shortcut).

    The output buffer is exclusive: the zero channels are written once at
    materialize time, only the live channels are copied per run.
    """

    label = "pad_channels"

    def __init__(self, builder: _PlanBuilder, in_slot: int, out_channels: int):
        n, c, h, w = builder.slots[in_slot].shape
        dtype = builder.slots[in_slot].dtype
        self._in_channels = c
        self.out_slot = builder.new_slot((n, out_channels, h, w), dtype,
                                         exclusive=True)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)

    def rebind(self, rows):
        self._x = self._x_full[:rows]
        self._out_head = self._out_full[:rows, :self._in_channels]

    def run(self):
        self._out_head[...] = self._x


class _EagerOp(_PlanOp):
    """Fallback for modules without a registered builder.

    Correct but not fast: wraps the input buffer in a Tensor and calls the
    module's eager forward (eval semantics, grad off), copying the result
    into the arena.  ``InferencePlan.fallback_ops`` counts these so tests
    and benchmarks can assert a model compiled fully.
    """

    label = "eager"

    def __init__(self, builder: _PlanBuilder, module: M.Module, in_slot: int):
        self._module = module
        in_shape = builder.slots[in_slot].shape
        dtype = builder.slots[in_slot].dtype
        probe = np.zeros(in_shape, dtype=dtype)  # repro: noqa[PERF403]
        with no_grad():
            was_training = [(m, m.training) for m in module.modules()]
            module.eval()
            try:
                out = module(Tensor(probe))
            finally:
                for sub, training in was_training:
                    sub.training = training
        if not isinstance(out, Tensor):
            raise PlanError(
                f"cannot plan {type(module).__name__}: forward returned "
                f"{type(out).__name__}, not a Tensor")
        for param in module.parameters():
            builder.watch(param, "data", param.data)
        self.out_slot = builder.new_slot(out.data.shape, out.data.dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        builder.fallback_ops += 1

    def run(self):
        module = self._module
        with no_grad():
            was_training = [(m, m.training) for m in module.modules()]
            module.eval()
            try:
                self._out[...] = module(Tensor(self._x)).data
            finally:
                for sub, training in was_training:
                    sub.training = training


# --------------------------------------------------------------------------
# Builder registry
# --------------------------------------------------------------------------

_PLAN_BUILDERS: Dict[type, Callable] = {}


def plan_builder(*types):
    """Register a capture rule for one or more module classes.

    Dispatch walks the module's MRO, so a subclass with its own builder
    (e.g. a quantized layer) wins over its base class rule.
    """

    def decorate(fn):
        for cls in types:
            _PLAN_BUILDERS[cls] = fn
        return fn

    return decorate


def _builder_for(module: M.Module):
    for cls in type(module).__mro__:
        fn = _PLAN_BUILDERS.get(cls)
        if fn is not None:
            return fn
    return None


def _build(builder: _PlanBuilder, module: M.Module, in_slot: int) -> int:
    fn = _builder_for(module)
    if fn is not None:
        return fn(builder, module, in_slot)
    op = _EagerOp(builder, module, in_slot)
    builder.add_op(op)
    return op.out_slot


def _build_simple(builder, op):
    builder.add_op(op)
    return op.out_slot


@plan_builder(M.Identity)
def _build_identity(builder, module, in_slot):
    return in_slot


@plan_builder(M.Dropout)
def _build_dropout(builder, module, in_slot):
    # Plans encode eval semantics; eval-mode dropout is the identity.
    return in_slot


@plan_builder(M.Sequential)
def _build_sequential(builder, module, in_slot):
    slot = in_slot
    for layer in module.layers:
        slot = _build(builder, layer, slot)
    return slot


@plan_builder(M.Conv2d)
def _build_conv(builder, module, in_slot):
    return _build_simple(builder, _ConvOp(builder, module, in_slot))


@plan_builder(M.Linear)
def _build_linear(builder, module, in_slot):
    return _build_simple(builder, _LinearOp(builder, module, in_slot))


@plan_builder(M.BatchNorm2d)
def _build_batchnorm(builder, module, in_slot):
    return _build_simple(builder, _BatchNormOp(builder, module, in_slot))


@plan_builder(M.ReLU)
def _build_relu(builder, module, in_slot):
    """ReLU over ``in_slot``, folded into the conv that just wrote it.

    When the last op emitted is the conv producing ``in_slot`` (fusion
    leaves ``Identity`` where the BatchNorm was, so conv -> bn -> relu
    arrives here this way), that conv's write-back pass applies the ReLU
    and the slot keeps its id — so a builder must not hand over a slot
    it also reads pre-activation.
    """
    last = builder.ops[-1] if builder.ops else None
    if (isinstance(last, _ConvOp) and last.out_slot == in_slot
            and not last.relu):
        last.relu = True
        builder.flops += float(np.prod(builder.slots[in_slot].shape))
        return in_slot
    return _build_simple(builder, _ReluOp(builder, in_slot))


@plan_builder(M.LeakyReLU)
def _build_leaky_relu(builder, module, in_slot):
    return _build_simple(
        builder, _LeakyReluOp(builder, module.negative_slope, in_slot))


@plan_builder(M.Tanh)
def _build_tanh(builder, module, in_slot):
    return _build_simple(builder, _TanhOp(builder, in_slot))


@plan_builder(M.Sigmoid)
def _build_sigmoid(builder, module, in_slot):
    return _build_simple(builder, _SigmoidOp(builder, in_slot))


@plan_builder(M.Flatten)
def _build_flatten(builder, module, in_slot):
    shape = builder.slots[in_slot].shape
    flattened = 1
    for dim in shape[1:]:
        flattened *= dim
    return builder.alias_slot(in_slot, (shape[0], flattened))


@plan_builder(M.MaxPool2d)
def _build_max_pool(builder, module, in_slot):
    return _build_simple(builder, _PoolOp(
        builder, "max", module.kernel_size, module.stride, in_slot))


@plan_builder(M.AvgPool2d)
def _build_avg_pool(builder, module, in_slot):
    return _build_simple(builder, _PoolOp(
        builder, "avg", module.kernel_size, module.stride, in_slot))


@plan_builder(M.GlobalAvgPool2d)
def _build_global_avg_pool(builder, module, in_slot):
    return _build_simple(builder, _GlobalAvgPoolOp(builder, in_slot))


def _register_model_builders():
    """ResNet builders live here to keep module import order acyclic."""
    from repro.nn.models.resnet import ResNetBlock, SmallResNet

    @plan_builder(ResNetBlock)
    def _build_resnet_block(builder, module, in_slot):
        main = _build(builder, module.conv1, in_slot)
        main = _build(builder, module.bn1, main)
        main = _build_relu(builder, None, main)
        main = _build(builder, module.conv2, main)
        main = _build(builder, module.bn2, main)
        if module.shortcut_kind == "identity":
            shortcut = in_slot
        elif module.shortcut_kind == "conv":
            shortcut = _build(builder, module.shortcut_conv, in_slot)
            shortcut = _build(builder, module.shortcut_bn, shortcut)
        else:  # maxpool
            shortcut = in_slot
            if module.stride > 1:
                shortcut = _build_simple(builder, _PoolOp(
                    builder, "max", module.stride, module.stride, shortcut))
            if module.out_channels > module.in_channels:
                shortcut = _build_simple(builder, _PadChannelsOp(
                    builder, shortcut, module.out_channels))
        return _build_simple(builder, _AddReluOp(builder, main, shortcut))

    @plan_builder(SmallResNet)
    def _build_small_resnet(builder, module, in_slot):
        slot = _build(builder, module.stem, in_slot)
        slot = _build(builder, module.stem_bn, slot)
        slot = _build_relu(builder, None, slot)
        for block in module.blocks:
            slot = _build(builder, block, slot)
        slot = _build(builder, module.pool, slot)
        return _build(builder, module.head, slot)


_register_model_builders()


# --------------------------------------------------------------------------
# Arena: liveness-based physical buffer assignment
# --------------------------------------------------------------------------

class Arena:
    """Physical buffers for a plan, recycled by slot liveness.

    Two logical slots share storage when the earlier one's last reader has
    already run by the time the later one is written — the plan-level
    generalization of the PR 5 im2col scratch pair.  Exclusive slots
    (padded conv inputs, channel-padded shortcuts) opt out: their zero
    regions are written once here and must survive every run.
    """

    def __init__(self, slots: List[_Slot], ops: List[_PlanOp],
                 input_slot: int, output_slot: int):
        root = {i: (s.base if s.base is not None else i)
                for i, s in enumerate(slots)}
        # first_def/last_use per root slot, in op index space; the input
        # buffer is written before op 0 and the output is read after the
        # last op, so neither ever re-enters the free pool mid-plan.
        last_use: Dict[int, int] = {root[input_slot]: len(ops)}
        first_def: Dict[int, int] = {root[input_slot]: -1}
        for index, op in enumerate(ops):
            for slot in op.reads + op.writes:
                r = root[slot]
                last_use[r] = index
                first_def.setdefault(r, index)
        last_use[root[output_slot]] = len(ops)

        defs_at: Dict[int, List[int]] = {}
        for r, index in first_def.items():
            defs_at.setdefault(index, []).append(r)
        frees_at: Dict[int, List[int]] = {}
        for r, index in last_use.items():
            if not slots[r].exclusive and index < len(ops):
                frees_at.setdefault(index, []).append(r)

        physical: Dict[int, np.ndarray] = {}
        free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}
        reused = 0
        for index in range(-1, len(ops)):
            for r in defs_at.get(index, ()):
                slot = slots[r]
                pool = free.get((slot.shape, slot.dtype))
                if pool and not slot.exclusive:
                    physical[r] = pool.pop()
                    reused += 1
                else:
                    buf = np.empty(slot.shape, dtype=slot.dtype)
                    if slot.exclusive:
                        buf.fill(0)
                    physical[r] = buf
            # A slot last touched by op ``index`` is dead once that op has
            # run: its storage is available to any slot defined later.
            for r in frees_at.get(index, ()):
                slot = slots[r]
                free.setdefault((slot.shape, slot.dtype),
                                []).append(physical[r])

        self.buffers: Dict[int, np.ndarray] = {}
        for i, slot in enumerate(slots):
            base = physical[root[i]]
            self.buffers[i] = (base if slot.base is None
                               else base.reshape(slot.shape))
        self.slots = slots
        self.reused_slots = reused
        unique = {id(b): b for b in physical.values()}
        self.num_buffers = len(unique)
        self.total_bytes = sum(b.nbytes for b in unique.values())


# --------------------------------------------------------------------------
# The plan itself
# --------------------------------------------------------------------------

class InferencePlan:
    """A compiled forward pass over a fixed (rows, sample shape, dtype).

    Created by :func:`capture_plan`; executed with :meth:`run`.  The
    returned array is a **view into the arena** — it is overwritten by the
    next ``run``, so callers that keep it must copy (exactly the contract
    of the im2col scratch cache).
    """

    def __init__(self, module: M.Module, builder: _PlanBuilder,
                 output_slot: int, label: str):
        self.rows = builder.rows
        self.sample_shape = builder.slots[builder.input_slot].shape[1:]
        self.dtype = builder.slots[builder.input_slot].dtype
        self.label = label
        self.flops = builder.flops
        self.fallback_ops = builder.fallback_ops
        self.num_ops = len(builder.ops)
        self.max_validation_error = 0.0
        self.bit_exact: Optional[bool] = None
        self._ops = builder.ops
        self._watched = builder.watched
        self.arena = Arena(builder.slots, builder.ops,
                           builder.input_slot, output_slot)
        for op in self._ops:
            op.bind(self.arena.buffers)
            op.rebind(self.rows)
        self._bound_rows = self.rows
        self._input = self.arena.buffers[builder.input_slot]
        self._output = self.arena.buffers[output_slot]
        self.output_shape = self._output.shape

    @property
    def flops_per_item(self) -> float:
        return self.flops / self.rows if self.rows else 0.0

    def _check_weights(self) -> None:
        for owner, attr, array in self._watched:
            if getattr(owner, attr) is not array:
                raise PlanError(
                    f"plan '{self.label}' is stale: {type(owner).__name__}."
                    f"{attr} was replaced after capture (retraining, astype, "
                    "or load_state_dict); clear the plan cache and recapture")

    def run(self, data: np.ndarray) -> np.ndarray:
        """Execute the plan; returns a (rows, ...) view into the arena.

        ``data`` may have *fewer* rows than the plan was captured with —
        every op re-binds to a row-prefix slice of its buffers, so ragged
        micro-batches and variable escalation counts reuse the plan's
        arena while each kernel still sees exactly the eager shapes
        (which keeps even padded runs bit-identical to eager; see
        :class:`_PlanOp`).
        """
        rows = data.shape[0]
        if rows > self.rows:
            raise PlanError(
                f"plan '{self.label}' captured for {self.rows} rows, "
                f"got {rows}")
        if data.shape[1:] != self.sample_shape or data.dtype != self.dtype:
            raise PlanError(
                f"plan '{self.label}' expects {self.sample_shape} "
                f"{self.dtype} samples, got {data.shape[1:]} {data.dtype}")
        self._check_weights()
        with no_grad():
            if rows != self._bound_rows:
                for op in self._ops:
                    op.rebind(rows)
                self._bound_rows = rows
            self._input[:rows] = data
            for op in self._ops:
                op.run()
        if rows == self.rows:
            return self._output
        return self._output[:rows]

    def __repr__(self):
        return (f"InferencePlan({self.label!r}, rows={self.rows}, "
                f"sample={self.sample_shape}, dtype={self.dtype}, "
                f"ops={self.num_ops}, fallbacks={self.fallback_ops}, "
                f"arena_bytes={self.arena.total_bytes})")

    # Plans hold live buffer/parameter views; they are per-process state
    # and must never cross a pickle boundary (see PlanCache.__getstate__).
    def __reduce__(self):
        raise TypeError("InferencePlan is not picklable; pickle the module "
                        "and recapture (PlanCache does this automatically)")


def capture_plan(module: M.Module, example: np.ndarray, *,
                 validate: bool = True, label: Optional[str] = None) -> InferencePlan:
    """Compile ``module``'s eval-mode forward for ``example``'s geometry.

    With ``validate=True`` (default) the example batch is also run through
    the eager fast path and compared; a mismatch beyond float tolerance
    raises :class:`PlanError`.  Validation requires at least one row.
    """
    example = np.asarray(example)
    if example.ndim < 1 or example.shape[0] < 1:
        raise PlanError("capture needs an example batch with >= 1 row")
    if not np.issubdtype(example.dtype, np.floating):
        raise PlanError(f"plans cover float inputs, got {example.dtype}")
    label = label or type(module).__name__
    builder = _PlanBuilder(example.shape[0], example.shape[1:], example.dtype)
    output_slot = _build(builder, module, builder.input_slot)
    if output_slot == builder.input_slot:
        # A pure pass-through (Identity chains): copy so run() returns a
        # stable output buffer rather than the input staging buffer.
        output_slot = builder.new_slot(builder.slots[builder.input_slot].shape,
                                       builder.slots[builder.input_slot].dtype)
        builder.add_op(_CopyOp(builder.input_slot, output_slot))
    plan = InferencePlan(module, builder, output_slot, label)
    if validate:
        from repro.nn.inference import eval_mode
        with eval_mode(module), no_grad():
            expected = module(Tensor(example)).data
        got = plan.run(example)
        if expected.shape != got.shape or expected.dtype != got.dtype:
            raise PlanError(
                f"plan '{label}' disagrees with eager forward: "
                f"{got.shape}/{got.dtype} vs {expected.shape}/{expected.dtype}")
        tolerance = 1e-5 if plan.dtype == np.float32 else 1e-10
        error = float(np.max(np.abs(got - expected))) if got.size else 0.0
        if not error <= tolerance:
            raise PlanError(
                f"plan '{label}' numerically diverges from eager forward: "
                f"max abs error {error:.3e} > {tolerance:.0e}")
        plan.max_validation_error = error
        plan.bit_exact = bool(np.array_equal(got, expected))
    return plan


# --------------------------------------------------------------------------
# Plan cache
# --------------------------------------------------------------------------

class PlanCache:
    """LRU cache of :class:`InferencePlan` keyed (rows, sample, dtype).

    Lookups accept any batch whose row count is <= a cached plan with the
    same sample shape and dtype — the smallest such plan runs padded.
    Pickling drops the plans (they embed process-local buffers); executor
    workers recapture on first use, which the ``nn.plan.capture``
    counters make visible (and ``deterministic_dump`` drops, since the
    counts depend on worker placement).
    """

    def __init__(self, max_plans: int = 8, validate: bool = True,
                 label: Optional[str] = None):
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1: {max_plans}")
        self.max_plans = max_plans
        self.validate = validate
        self.label = label
        self._plans: "OrderedDict[tuple, InferencePlan]" = OrderedDict()
        self.hits = 0
        self.padded_hits = 0
        self.misses = 0
        self.evictions = 0

    # -- pickling / copying: plans are per-process ----------------------------
    def __getstate__(self):
        return {"max_plans": self.max_plans, "validate": self.validate,
                "label": self.label}

    def __setstate__(self, state):
        self.__init__(**state)

    def __deepcopy__(self, memo):
        return PlanCache(max_plans=self.max_plans, validate=self.validate,
                         label=self.label)

    def __len__(self):
        return len(self._plans)

    def clear(self) -> None:
        self._plans.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "padded_hits": self.padded_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "arena_bytes": sum(p.arena.total_bytes
                               for p in self._plans.values()),
        }

    def _count(self, metric: str, label: str) -> None:
        get_runtime().registry.counter(
            PLAN_METRIC_PREFIX + metric,
            help="plan cache events (per-process; dropped from "
                 "deterministic dumps)").inc(1, cache=label)

    def plan_for(self, module: M.Module, data: np.ndarray) -> InferencePlan:
        """A plan fitting ``data``: cached, padded-cached, or captured."""
        rows = int(data.shape[0])
        sample = tuple(data.shape[1:])
        dtype = np.dtype(data.dtype)
        label = self.label or type(module).__name__
        best_key = None
        for key in self._plans:
            if key[1] == sample and key[2] == dtype and key[0] >= rows:
                if best_key is None or key[0] < best_key[0]:
                    best_key = key
        if best_key is not None:
            self._plans.move_to_end(best_key)
            self.hits += 1
            self._count("cache_hits", label)
            if best_key[0] > rows:
                self.padded_hits += 1
            return self._plans[best_key]
        self.misses += 1
        self._count("cache_misses", label)
        plan = capture_plan(module, data, validate=self.validate, label=label)
        self._count("captures", label)
        self._plans[(rows, sample, dtype)] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
            self.evictions += 1
            self._count("cache_evictions", label)
        return plan

    def run(self, module: M.Module, data: np.ndarray) -> np.ndarray:
        """Plan-execute ``data`` through ``module``; returns an arena view."""
        return self.plan_for(module, data).run(data)
