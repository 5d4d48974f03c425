"""The inference fast path: eval-scoped, no-grad, whole-batch forwards.

Everything the fog tier needs to run a trained model cheaply lives here:

- :func:`eval_mode` — scope a module (and children) to eval mode and
  restore each submodule's previous training flag on exit;
- :func:`observe_inference` — time a block on the runtime clock and emit
  ``nn.infer.items`` / ``nn.infer.latency_s``;
- :func:`batched_forward` — the composition of both: run a module over
  an input batch in one forward with no autograd recording and return
  the raw output array.  A caller bounds a batch's size before it gets
  here (the gateway's ``max_batch_rows``).

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


@contextmanager
def observe_inference(model: str, items: int) -> Iterator[None]:
    """Time a block and emit the inference metrics for ``items`` samples.

    ``nn.infer.items`` is a deterministic counter; ``nn.infer.latency_s``
    carries runtime-clock readings — virtual time inside a DES
    simulation, *wall time* otherwise, so under a wall clock it (and only
    it) varies between identically-seeded runs.  It keeps a reservoir of
    :data:`~repro.runtime.metrics.LATENCY_SAMPLES` per model; its count,
    sum, min and max stay exact.
    """
    rt = get_runtime()
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
            help="wall/sim seconds per inference call").observe(
                elapsed, model=model)


def batched_forward(module: Module, x: Union[Tensor, np.ndarray],
                    model: Optional[str] = None) -> np.ndarray:
    """Forward ``x`` through ``module`` on the fast path; returns an array.

    Eval mode, no autograd recording, one forward of the whole batch, and
    metered through ``nn.infer.*``.  Always eager: captured plans
    (:mod:`repro.nn.plan`) are switched on in one place,
    :meth:`EarlyExitNetwork.enable_plans
    <repro.nn.models.earlyexit.EarlyExitNetwork.enable_plans>`; a caller
    that wants them for a bare module runs a
    :class:`~repro.nn.plan.PlanCache` itself.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    label = model or type(module).__name__
    with observe_inference(label, int(data.shape[0])):
        with eval_mode(module), no_grad():
            return module(Tensor(data)).data
