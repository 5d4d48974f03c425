"""The inference fast path: eval-scoped, no-grad, micro-batched forwards.

Everything the fog tier needs to run a trained model cheaply lives here:

- :func:`eval_mode` — scope a module (and children) to eval mode and
  restore each submodule's previous training flag on exit;
- :func:`iter_microbatches` — slice a batch into configurable micro-batches
  so memory stays bounded while NumPy still amortizes per-op overhead;
- :func:`observe_inference` — time a block on the runtime clock and emit
  ``nn.infer.latency_s`` / ``nn.infer.throughput_items_s``;
- :func:`batched_forward` — the composition of all three: run a module
  over an input batch with no autograd recording and return the raw
  output array.

Combined with :func:`repro.nn.fuse.fuse_for_inference` and a float32 cast
this is the path the perf harness (``benchmarks/perf/``) measures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

import numpy as np

from repro.nn.grad_mode import no_grad
from repro.nn.modules import Module
from repro.nn.tensor import Tensor
from repro.runtime import get_runtime
from repro.runtime.metrics import LATENCY_SAMPLES


@contextmanager
def eval_mode(module: Module) -> Iterator[Module]:
    """Run a block with ``module`` in eval mode, then restore prior modes.

    Unlike a bare ``module.eval()`` this remembers each submodule's own
    ``training`` flag, so a model that was mid-training (or a child that
    was deliberately frozen in eval) comes back exactly as it was — even
    when the block raises.
    """
    # One walk; a flag is written only where it differs (a deployed model
    # is already in eval mode, and ``Module.__setattr__`` is not free).
    previous = [(m, m.training) for m in module.modules()]
    for submodule, training in previous:
        if training:
            submodule.training = False
    try:
        yield module
    finally:
        for submodule, training in previous:
            if submodule.training != training:
                submodule.training = training


def iter_microbatches(data: np.ndarray,
                      batch_size: Optional[int] = None) -> Iterator[np.ndarray]:
    """Yield ``data`` in row-chunks of ``batch_size`` (all rows if None)."""
    if batch_size is None:
        yield data
        return
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1: {batch_size}")
    for start in range(0, data.shape[0], batch_size):
        yield data[start:start + batch_size]


@contextmanager
def observe_inference(model: str, items: int, runtime=None) -> Iterator[None]:
    """Time a block and emit the inference metrics for ``items`` samples.

    ``nn.infer.items`` is a deterministic counter; ``nn.infer.latency_s``
    and ``nn.infer.throughput_items_s`` carry runtime-clock readings —
    virtual time inside a DES simulation, *wall time* otherwise, so under
    a wall clock those two (and only those two) vary between
    identically-seeded runs.  The latency histogram keeps a reservoir of
    :data:`~repro.runtime.metrics.LATENCY_SAMPLES` per model; its count,
    sum, min and max stay exact.
    """
    rt = runtime or get_runtime()
    start = rt.now()
    try:
        yield
    finally:
        elapsed = rt.now() - start
        registry = rt.registry
        registry.counter(
            "nn.infer.items",
            help="samples processed by inference calls").inc(
                items, model=model)
        registry.histogram(
            "nn.infer.latency_s",
            help="wall/sim seconds per inference call",
            max_samples=LATENCY_SAMPLES).observe(elapsed, model=model)
        if elapsed > 0:
            registry.gauge(
                "nn.infer.throughput_items_s",
                help="samples per second of the latest inference call").set(
                    items / elapsed, model=model)


def batched_forward(module: Module, x: Union[Tensor, np.ndarray],
                    batch_size: Optional[int] = None,
                    model: Optional[str] = None,
                    runtime=None) -> np.ndarray:
    """Forward ``x`` through ``module`` on the fast path; returns an array.

    Eval mode, no autograd recording, micro-batched over the leading axis,
    and metered through ``nn.infer.*``.  The per-micro-batch outputs are
    concatenated, so callers see one array regardless of ``batch_size``.
    Always eager: captured plans (:mod:`repro.nn.plan`) are switched on in
    one place, :meth:`EarlyExitNetwork.enable_plans
    <repro.nn.models.earlyexit.EarlyExitNetwork.enable_plans>`; a caller
    that wants them for a bare module runs a
    :class:`~repro.nn.plan.PlanCache` itself.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    label = model or type(module).__name__
    outputs = []
    with observe_inference(label, int(data.shape[0]), runtime=runtime):
        with eval_mode(module), no_grad():
            if data.shape[0] == 0:
                # A zero-row batch yields no micro-batches, and
                # ``np.concatenate([])`` raises; one forward of the empty
                # batch lets the module itself report the output shape
                # (a gateway draining an empty coalescing window hits
                # this path).
                return module(Tensor(data)).data
            for chunk in iter_microbatches(data, batch_size):
                outputs.append(module(Tensor(chunk)).data)
    if len(outputs) == 1:
        return outputs[0]
    return np.concatenate(outputs, axis=0)
