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
  slot of the same size and dtype): a plan-owned pool that is reused
  across micro-batches.  The plan's *input* is not one of them: ops that
  read it are bound to the caller's array on every ``run`` — nothing is
  staged.
- One layout rule, shared with the eager no-grad forward
  (:mod:`repro.nn.functional`): a 4-D feature map is stored
  batch-innermost, ``(C, H, W, rows)`` C-contiguous, and handed between
  ops as an NCHW-shaped view; 2-D matrices are row-major.  A conv's GEMM
  result therefore *is* its output slot, nothing transposes between ops,
  and ``Flatten`` is the one op that does.
- :class:`PlanCache` holds **one plan per (sample shape, dtype)**, the
  largest it has been asked for.  A batch with *fewer* rows (the ragged
  tail of ``iter_microbatches``, or the variable escalated-row count of
  an early-exit remote stage) runs as a prefix of that plan: every slot
  is re-viewed over the contiguous *head* of its storage, so the run is
  the same BLAS calls and the same memory walk as a plan captured at
  exactly that row count — a ladder of smaller plans would buy nothing
  per row.  A batch with *more* rows drops the plan and recaptures at
  the new row count; ``nn.plan.*`` counters make both visible.

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
*empty* cache (an unpickled copy recaptures on first use) and its
counters live under the ``nn.plan.`` metric prefix, which
``deterministic_dump`` drops — capture counts depend on what the process
ran before, not on the seed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn import modules as M
from repro.nn.functional import (
    _conv_output_size,
    conv_band_views,
    conv_k_major,
    global_avg_pool_k_major,
    pool_k_major,
    pool_windows,
)
from repro.nn.grad_mode import no_grad
from repro.nn.tensor import Tensor
from repro.runtime import get_runtime

#: metric namespace for plan-cache counters; dropped from deterministic
#: dumps (see ``repro.runtime.parallel``) because plans are per-process.
PLAN_METRIC_PREFIX = "nn.plan."


class PlanError(RuntimeError):
    """Capture failed or a captured plan no longer matches its module."""


# --------------------------------------------------------------------------
# Build-time slot bookkeeping
# --------------------------------------------------------------------------

#: slot id of the plan's input.  It has no arena storage: ops that read
#: it are handed the caller's array on every run (``_PlanOp.set_input``).
_INPUT = 0


class _Slot:
    """A logical buffer: batch-leading shape + dtype."""

    __slots__ = ("shape", "dtype", "exclusive", "row_size", "size")

    def __init__(self, shape, dtype, exclusive=False):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.exclusive = exclusive  # never recycled (holds persistent zeros)
        self.row_size = int(np.prod(self.shape[1:], dtype=np.int64))
        self.size = self.shape[0] * self.row_size

    def head_view(self, flat: np.ndarray, rows: int) -> np.ndarray:
        """The first ``rows`` batch rows, over the contiguous head of ``flat``.

        A 4-D slot is a feature map: stored (C, H, W, rows), returned as
        the NCHW-shaped view of that storage.  Anything else is row-major.
        Never a ``[:rows]`` slice of the full-size array — a prefix run
        walks exactly the memory a plan captured at ``rows`` rows would.
        """
        tail = self.shape[1:]
        head = flat[:rows * self.row_size]
        if len(tail) == 3:
            return head.reshape(tail + (rows,)).transpose(3, 0, 1, 2)
        return head.reshape((rows,) + tail)


class _PlanBuilder:
    """Accumulates slots and ops while a module tree is being compiled."""

    def __init__(self, rows: int, sample_shape: Tuple[int, ...], dtype):
        self.rows = rows
        self.slots: List[_Slot] = []
        self.ops: List["_PlanOp"] = []
        self.flops = 0.0
        self.fallback_ops = 0
        self.watched: List[Tuple[object, str, np.ndarray]] = []
        self.new_slot((rows,) + tuple(sample_shape), dtype)  # slot _INPUT

    def new_slot(self, shape, dtype, exclusive: bool = False) -> int:
        self.slots.append(_Slot(shape, dtype, exclusive=exclusive))
        return len(self.slots) - 1

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
    """One step of a plan.  Subclasses bind views, then ``run``.

    ``reads``/``writes`` list slot ids for liveness analysis.

    ``rebind(views)`` runs when the row count changes: ``views`` maps each
    slot id to its :meth:`_Slot.head_view` at the new row count (and
    ``_INPUT`` to the caller's array), and the op stores direct references
    so ``run`` does no indexing, view building or allocation (lint rule
    PERF403 enforces the no-allocation property on every ``run`` and
    ``set_input`` body in this module).  This is how a plan serves
    *smaller* batches (ragged micro-batch tails, variable escalation
    counts) while staying bit-identical to eager: each kernel executes on
    C-contiguous storage with exactly the shapes and strides the eager
    path would see, so BLAS and ufunc reduction orders match —
    zero-padding the batch instead would let BLAS pick a different kernel
    for the larger M and drift by an ulp.  Rebinding creates views only,
    never buffers; an op that reshapes one must get a view back (a silent
    copy would detach it from the arena — ``tests/nn/test_plan.py`` checks
    every held array).

    ``set_input(x)`` is called before every run on the ops that read the
    plan's input, with the caller's array: the input is read in place, so
    this is the one place views are built per run (the array is new each
    time: K·K sources of an unpadded conv or a pooling, 3-5 us).  A hot
    path like ``run``: no copies, whatever layout the caller stored.  The
    op holds ``x`` until the next run.
    """

    label = "op"
    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()

    def rebind(self, views: Dict[int, np.ndarray]) -> None:
        # Default for single-input, single-output ops.
        self._out = views[self.out_slot]
        self.set_input(views[self.reads[0]])

    def set_input(self, x: np.ndarray) -> None:
        self._x = x

    def run(self) -> None:
        raise NotImplementedError


class _CopyOp(_PlanOp):
    """out[...] = in — a pass-through plan's stable output, and ``Flatten``.

    The output slot may have another shape of the same size (``Flatten``:
    a row-major (N, C·H·W) matrix); it is then written through its view in
    the input's shape — for a feature map the one transposing copy, which
    is what eager ``reshape`` does to batch-innermost storage.
    """

    label = "copy"

    def __init__(self, builder: _PlanBuilder, in_slot: int, out_shape=None):
        slot = builder.slots[in_slot]
        self._in_tail = slot.shape[1:]
        self.out_slot = builder.new_slot(out_shape or slot.shape, slot.dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)

    def rebind(self, views):
        out = views[self.out_slot]
        self._out = out.reshape(out.shape[:1] + self._in_tail)
        self.set_input(views[self.reads[0]])

    def run(self):
        self._out[...] = self._x


class _ConvOp(_PlanOp):
    """Conv2d: ``functional.conv_k_major`` over arena buffers.

    Slots: optional padded input (exclusive, never recycled: only its
    interior is written per run), the column scratch (map-sized; every
    band unfolds into its head) and the (N, F, H', W') output, whose
    batch-innermost storage is the (F, H'·W'·N) GEMM result itself, so
    bias and a directly following ``ReLU`` (``relu``, set by
    :func:`_build_relu`) are applied in place.

    An ``r``-row run views all three over the contiguous *head* of their
    storage and bands them as eager does at ``r`` rows, so BLAS gets
    exactly the operands no-grad ``F.conv2d`` hands it, and a plan
    captured at ``r`` rows would bind: every prefix length is
    bit-identical to both by construction, at the same cost.  Re-viewing
    moves the padded buffer's border, so ``rebind`` re-zeroes it (four
    thin slices, 6-30 us; a strided ``[..., :r]`` prefix would keep the
    zeros in place but doubles the interior copy and costs the unfold 4x
    at 4 of 16 rows — on every run).
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
        self._cols_slot = builder.new_slot((n, c * k * k * out_h * out_w), dtype)
        self.out_slot = builder.new_slot((n, f, out_h, out_w), dtype)
        self.reads = (in_slot,)
        self.writes = (self._cols_slot, self.out_slot)
        if self._pad_slot is not None:
            self.writes = (self._pad_slot,) + self.writes
        builder.flops += 2.0 * n * f * out_h * out_w * c * k * k

    def rebind(self, views):
        _, _, _, _, f, out_h, out_w = self.geometry
        p = self.padding
        out = views[self.out_slot]
        rows = out.shape[0]
        self._gemm = out.transpose(1, 2, 3, 0).reshape(f, out_h * out_w * rows)
        self._cols = views[self._cols_slot].reshape(-1)
        if self._pad_slot is not None:
            padded = views[self._pad_slot]
            self._pad_interior = padded[:, :, p:-p, p:-p]
            x_t = padded.transpose(1, 2, 3, 0)
            x_t[:, :p] = 0
            x_t[:, -p:] = 0
            x_t[:, :, :p] = 0
            x_t[:, :, -p:] = 0
            self._bands = conv_band_views(
                x_t, self._cols, self._gemm, self.kernel, self.stride)
        self.set_input(views[self.reads[0]])

    def set_input(self, x):
        if self._pad_slot is not None:
            self._pad_src = x
        else:
            self._bands = conv_band_views(x.transpose(1, 2, 3, 0), self._cols,
                                          self._gemm, self.kernel, self.stride)

    def run(self):
        if self._pad_slot is not None:
            self._pad_interior[...] = self._pad_src
        conv_k_major(self._bands, self._w_flat, self._bias_col, self._gemm,
                     self.relu)


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
        builder.flops += 4.0 * builder.slots[in_slot].size

    def run(self):
        out = self._out
        np.subtract(self._x, self._mean, out=out)
        out /= self._denom
        out *= self._gamma
        out += self._beta


class _ElementwiseOp(_PlanOp):
    """A unary op whose output slot has the input's shape and dtype."""

    def __init__(self, builder: _PlanBuilder, in_slot: int):
        slot = builder.slots[in_slot]
        self.out_slot = builder.new_slot(slot.shape, slot.dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        builder.flops += slot.size


class _ReluOp(_ElementwiseOp):
    label = "relu"

    def run(self):
        # Tensor.relu's forward expression, written into the arena.
        np.maximum(self._x, 0, out=self._out)


class _LeakyReluOp(_ElementwiseOp):
    label = "leaky_relu"

    def __init__(self, builder: _PlanBuilder, slope: float, in_slot: int):
        super().__init__(builder, in_slot)
        slot = builder.slots[in_slot]
        # Tensor.leaky_relu multiplies by where(x > 0, 1, slope) cast to
        # the input dtype; x * 1 is x, so scaling everything by the cast
        # slope and copying the positive entries back is the same values
        # without the per-run scale array.  The mask is a bound slot.
        self._slope = np.asarray(slope, dtype=slot.dtype)
        self._mask_slot = builder.new_slot(slot.shape, np.bool_)
        self.writes = (self._mask_slot, self.out_slot)

    def rebind(self, views):
        super().rebind(views)
        self._mask = views[self._mask_slot]

    def run(self):
        np.greater(self._x, 0, out=self._mask)
        np.multiply(self._x, self._slope, out=self._out)
        np.copyto(self._out, self._x, where=self._mask)


class _TanhOp(_ElementwiseOp):
    label = "tanh"

    def run(self):
        np.tanh(self._x, out=self._out)


class _SigmoidOp(_ElementwiseOp):
    label = "sigmoid"

    def run(self):
        # Mirrors Tensor.sigmoid: 1 / (1 + exp(-clip(x, -60, 60))).
        out = self._out
        np.clip(self._x, -60, 60, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)


class _PoolOp(_PlanOp):
    """Max/avg pooling: ``functional.pool_k_major`` straight into the arena."""

    def __init__(self, builder: _PlanBuilder, kind: str, kernel: int,
                 stride: Optional[int], in_slot: int):
        n, c, h, w = builder.slots[in_slot].shape
        stride = kernel if stride is None else stride
        out_h = _conv_output_size(h, kernel, stride, 0)
        out_w = _conv_output_size(w, kernel, stride, 0)
        self.kind = kind
        self.label = f"{kind}_pool"
        self.kernel, self.stride = kernel, stride
        self.out_slot = builder.new_slot((n, c, out_h, out_w),
                                         builder.slots[in_slot].dtype)
        self.reads = (in_slot,)
        self.writes = (self.out_slot,)
        builder.flops += float(c * out_h * out_w * kernel * kernel) * n

    def set_input(self, x):
        self._windows = pool_windows(x, self._out, self.kernel, self.stride)

    def run(self):
        pool_k_major(self._windows, self._out, self.kind)


class _GlobalAvgPoolOp(_PlanOp):
    """``functional.global_avg_pool_k_major`` into a bound (C, N) scratch.

    The kernel reduces batch-innermost storage.  Every arena slot is, the
    plan's input need not be: a pooling that reads it binds a staging slot
    too, and ``run`` copies an input stored any other way there (eager
    ``spatial_rows`` allocates for that) — what one stage hands the next
    is read in place.
    """

    label = "global_avg_pool"

    def __init__(self, builder: _PlanBuilder, in_slot: int):
        n, c, h, w = builder.slots[in_slot].shape
        dtype = builder.slots[in_slot].dtype
        self._scale = np.asarray(1.0 / (h * w), dtype=dtype)
        self._ones = np.ones((1, h * w), dtype=dtype)
        self._sums_slot = builder.new_slot((n, c), dtype)
        self.out_slot = builder.new_slot((n, c), dtype)
        self.reads = (in_slot,)
        self.writes = (self._sums_slot, self.out_slot)
        self._stage_slot = None
        if in_slot == _INPUT:
            self._stage_slot = builder.new_slot((n, c, h, w), dtype)
            self.writes += (self._stage_slot,)
        builder.flops += float(n * c * h * w)

    def rebind(self, views):
        rows, c = views[self._sums_slot].shape
        self._sums = views[self._sums_slot].reshape(c, 1, rows)
        self._staged = views.get(self._stage_slot)
        super().rebind(views)

    def set_input(self, x):
        x_t = x.transpose(1, 2, 3, 0)
        self._stage_src = None
        if not x_t.flags["C_CONTIGUOUS"]:
            self._stage_src, x_t = x, self._staged.transpose(1, 2, 3, 0)
        c, h, w, rows = x_t.shape
        self._x_t = x_t.reshape(c, h * w, rows)

    def run(self):
        if self._stage_src is not None:
            np.copyto(self._staged, self._stage_src)
        global_avg_pool_k_major(self._x_t, self._ones, self._sums, self._out,
                                self._scale)


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
        builder.flops += builder.slots[a_slot].size * (2.0 if relu else 1.0)

    def rebind(self, views):
        self._a = views[self.reads[0]]
        self._b = views[self.reads[1]]
        self._out = views[self.out_slot]

    def set_input(self, x):
        if self.reads[0] == _INPUT:
            self._a = x
        if self.reads[1] == _INPUT:
            self._b = x

    def run(self):
        out = self._out
        np.add(self._a, self._b, out=out)
        if self._relu:
            np.maximum(out, 0, out=out)


class _PadChannelsOp(_PlanOp):
    """Zero-pad channels (the widened maxpool shortcut).

    The output buffer is exclusive: only the live channels are copied per
    run.  They are the head of its batch-innermost storage and the zero
    channels the tail, which moves with the row count — ``rebind``
    re-zeroes it.
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

    def rebind(self, views):
        out = views[self.out_slot]
        out[:, self._in_channels:] = 0
        self._out = out[:, :self._in_channels]
        self.set_input(views[self.reads[0]])

    def run(self):
        self._out[...] = self._x


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
        slot = builder.slots[in_slot]
        out = self._forward(np.zeros(slot.shape, dtype=slot.dtype))
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

    def _forward(self, data: np.ndarray):
        """The module's eval-mode, grad-off forward; modes restored after."""
        module = self._module
        with no_grad():
            was_training = [(m, m.training) for m in module.modules()]
            module.eval()
            try:
                return module(Tensor(data))
            finally:
                for sub, training in was_training:
                    sub.training = training

    def run(self):
        self._out[...] = self._forward(self._x).data


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
    return _build_simple(builder, _EagerOp(builder, module, in_slot))


def _build_simple(builder, op):
    builder.add_op(op)
    return op.out_slot


@plan_builder(M.Identity, M.Dropout)
def _build_identity(builder, module, in_slot):
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
    arrives here this way), that conv applies the ReLU in place on its
    result and the slot keeps its id — so a builder must not hand over a
    slot it also reads pre-activation.
    """
    last = builder.ops[-1] if builder.ops else None
    if (isinstance(last, _ConvOp) and last.out_slot == in_slot
            and not last.relu):
        last.relu = True
        builder.flops += builder.slots[in_slot].size
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
    slot = builder.slots[in_slot]
    if len(slot.shape) == 2:
        return in_slot
    return _build_simple(builder, _CopyOp(
        builder, in_slot, (slot.shape[0], slot.row_size)))


@plan_builder(M.MaxPool2d, M.AvgPool2d)
def _build_pool(builder, module, in_slot):
    kind = "max" if isinstance(module, M.MaxPool2d) else "avg"
    return _build_simple(builder, _PoolOp(
        builder, kind, module.kernel_size, module.stride, in_slot))


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

    Every buffer is flat; ops see :meth:`_Slot.head_view` views of it.  Two
    logical slots share storage when the earlier one's last reader has
    already run by the time the later one is written.  Exclusive slots
    (padded conv inputs, channel-padded shortcuts) opt out: their zero
    regions are written at rebind and must survive every run.  The plan's
    input slot gets no buffer at all (it is read in place).
    """

    def __init__(self, slots: List[_Slot], ops: List[_PlanOp],
                 output_slot: int):
        # first_def/last_use per stored slot, in op index space; the
        # output is read after the last op, so it never re-enters the
        # free pool.
        last_use: Dict[int, int] = {}
        first_def: Dict[int, int] = {}
        for index, op in enumerate(ops):
            for slot in op.reads + op.writes:
                if slot != _INPUT:
                    last_use[slot] = index
                    first_def.setdefault(slot, index)
        last_use[output_slot] = len(ops)

        defs_at: Dict[int, List[int]] = {}
        for slot, index in first_def.items():
            defs_at.setdefault(index, []).append(slot)
        frees_at: Dict[int, List[int]] = {}
        for slot, index in last_use.items():
            if not slots[slot].exclusive and index < len(ops):
                frees_at.setdefault(index, []).append(slot)

        self.buffers: Dict[int, np.ndarray] = {}
        free: Dict[Tuple[int, np.dtype], List[np.ndarray]] = {}
        reused = 0
        for index in range(len(ops)):
            for slot_id in defs_at.get(index, ()):
                slot = slots[slot_id]
                pool = free.get((slot.size, slot.dtype))
                if pool and not slot.exclusive:
                    self.buffers[slot_id] = pool.pop()
                    reused += 1
                else:
                    self.buffers[slot_id] = np.empty(slot.size, slot.dtype)
            # A slot last touched by op ``index`` is dead once that op has
            # run: its storage is available to any slot defined later.
            for slot_id in frees_at.get(index, ()):
                buf = self.buffers[slot_id]
                free.setdefault((buf.size, buf.dtype), []).append(buf)

        self.slots = slots
        self.reused_slots = reused
        self._owned = {id(b): b for b in self.buffers.values()}
        self.num_buffers = len(self._owned)
        self.total_bytes = sum(b.nbytes for b in self._owned.values())

    def views(self, rows: int) -> Dict[int, np.ndarray]:
        """Every slot's first ``rows`` rows, over the head of its buffer."""
        return {slot_id: self.slots[slot_id].head_view(buf, rows)
                for slot_id, buf in self.buffers.items()}

    def foreign(self, array: np.ndarray) -> np.ndarray:
        """``array`` — or, if it views one of this arena's buffers, a copy.

        The copy keeps the memory order (``order="K"``): C order would
        transpose a batch-innermost feature map.
        """
        owner = array if array.base is None else array.base
        if id(owner) in self._owned:
            return array.copy(order="K")
        return array


# --------------------------------------------------------------------------
# The plan itself
# --------------------------------------------------------------------------

class InferencePlan:
    """A compiled forward pass over a fixed (rows, sample shape, dtype).

    Created by :func:`capture_plan`; executed with :meth:`run`.  The
    returned array is a **view into the arena** — it is overwritten by the
    next ``run``, so callers that keep it must copy (``order="K"``: a
    feature map is stored batch-innermost, and a default C-order copy
    would transpose it).
    """

    def __init__(self, module: M.Module, builder: _PlanBuilder,
                 output_slot: int, label: str):
        self.rows = builder.rows
        self.sample_shape = builder.slots[_INPUT].shape[1:]
        self.dtype = builder.slots[_INPUT].dtype
        self.label = label
        self.flops = builder.flops
        self.fallback_ops = builder.fallback_ops
        self.num_ops = len(builder.ops)
        self.max_validation_error = 0.0
        self.bit_exact: Optional[bool] = None
        self._ops = builder.ops
        self._input_ops = [op for op in builder.ops if _INPUT in op.reads]
        self._watched = builder.watched
        self.arena = Arena(builder.slots, builder.ops, output_slot)
        self._output_slot = output_slot
        self.output_shape = builder.slots[output_slot].shape
        self._bound_rows: Optional[int] = None  # views are built on first run
        self._output: Optional[np.ndarray] = None

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

    def _rebind(self, data: np.ndarray) -> None:
        rows = data.shape[0]
        views = self.arena.views(rows)
        self._output = views[self._output_slot]
        views[_INPUT] = data
        for op in self._ops:
            op.rebind(views)
        self._bound_rows = rows

    def run(self, data: np.ndarray) -> np.ndarray:
        """Execute the plan; returns a (rows, ...) view into the arena.

        ``data`` is read in place — never copied into the arena — and may
        have *fewer* rows than the plan was captured with: every op
        re-binds to the contiguous head of its buffers, so ragged
        micro-batches and variable escalation counts reuse the plan's
        arena while each kernel still sees exactly the eager shapes and
        strides (which keeps prefix runs bit-identical to eager; see
        :class:`_PlanOp`).  The one input a plan cannot read in place is
        its own arena (``plan.run(plan.run(x))``: an op would overwrite
        what a later op still reads), so that is detached first.  Like
        the output, ``data`` stays referenced by the plan until the next
        ``run`` replaces it.
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
        data = self.arena.foreign(data)
        with no_grad():
            if rows != self._bound_rows:
                self._rebind(data)
            else:
                for op in self._input_ops:
                    op.set_input(data)
            for op in self._ops:
                op.run()
        return self._output

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
    output_slot = _build(builder, module, _INPUT)
    if output_slot == _INPUT:
        # A pure pass-through (Identity chains): copy so run() returns an
        # arena buffer rather than the caller's own array.
        output_slot = _build_simple(builder, _CopyOp(builder, _INPUT))
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

#: distinct (sample shape, dtype) geometries a :class:`PlanCache` holds
#: before the least recently used one is dropped.  A serving stage sees
#: one; the bound only keeps a cache fed ever-new frame sizes finite.
MAX_GEOMETRIES = 8


class PlanCache:
    """One :class:`InferencePlan` per (sample shape, dtype): the largest seen.

    A batch with at most the held plan's rows is a hit and runs as a row
    prefix of it, at the cost of a plan captured at exactly that size.  A
    batch with more rows is a miss: the held plan is dropped *first*, then
    one is captured (and validated against the eager forward) at the new
    row count, so the two arenas never coexist and a cache's footprint is
    that of its largest batch.  The first oversized batch pays one
    capture — building the ops, allocating the arena, one eager forward
    and one replay — which serving moves into set-up by warming with its
    largest batch.

    Pickling drops the plans (they embed process-local buffers); an
    unpickled copy recaptures on first use, which the ``nn.plan.capture``
    counters make visible (and ``deterministic_dump`` drops, since the
    counts depend on what the process ran before).
    """

    def __init__(self, label: Optional[str] = None):
        self.label = label
        self._plans: "OrderedDict[tuple, InferencePlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- pickling / copying: plans are per-process ----------------------------
    def __getstate__(self):
        return {"label": self.label}

    def __setstate__(self, state):
        self.__init__(**state)

    def __deepcopy__(self, memo):
        return PlanCache(label=self.label)

    def __len__(self):
        return len(self._plans)

    def clear(self) -> None:
        self._plans.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
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
        """The plan for ``data``'s geometry, recaptured if ``data`` outgrew it."""
        key = (tuple(data.shape[1:]), np.dtype(data.dtype))
        label = self.label or type(module).__name__
        plan = self._plans.get(key)
        if plan is not None and plan.rows >= data.shape[0]:
            self._plans.move_to_end(key)
            self.hits += 1
            self._count("cache_hits", label)
            return plan
        self.misses += 1
        self._count("cache_misses", label)
        # Release the outgrown plan before its replacement allocates.
        plan = None
        self._plans.pop(key, None)
        plan = capture_plan(module, data, label=label)
        self._count("captures", label)
        self._plans[key] = plan
        while len(self._plans) > MAX_GEOMETRIES:
            self._plans.popitem(last=False)
            self.evictions += 1
            self._count("cache_evictions", label)
        return plan

    def run(self, module: M.Module, data: np.ndarray) -> np.ndarray:
        """Plan-execute ``data`` through ``module``; returns an arena view."""
        return self.plan_for(module, data).run(data)
