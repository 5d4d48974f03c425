"""The asyncio serving gateway: coalesce, admit, shed, serve, observe.

:class:`ServingGateway` is the ingress in front of a
:class:`~repro.fog.deployment.TwoTierDeployment`.  Concurrent callers
``await submit(frames, tenant=...)``; the gateway coalesces whatever is
queued into micro-batches (a window that closes when arrivals pause, held
open at most ``coalesce_window_s``; size-bounded by ``max_batch_rows``;
one sample geometry per batch), runs one early-exit inference per batch
through :meth:`~repro.fog.deployment.TwoTierDeployment.serve_batched`, and
slices the :class:`~repro.nn.models.earlyexit.BatchExitDecisions` back out
to each caller.  Every admitted request resolves exactly once — with its
decisions, or with the batch's exception; every refused request raises
:class:`~repro.serving.admission.ShedError` exactly once; a request whose
caller cancelled ``submit()`` while it waited leaves the queue
uninferred, its rows released to admission as the cancellation lands, and
is counted ``cancelled``.  That invariant — ``submitted ==
answered + shed + failed + cancelled`` — is what the chaos property
tests pin.

Determinism notes:

- With ``coalesce_window_s=0`` the drain loop takes exactly what the
  single-threaded event loop has queued at wake time, so batch
  composition is a deterministic function of submission order — the mode
  the determinism tests run in.
- With a positive window the drain loop yields one event-loop turn at a
  time and closes the window at the first turn that admitted nothing:
  requests created together (a tick's cameras, the clients the previous
  batch released) have all arrived by then, and a lone request is served
  after one turn instead of a timer.  A steady trickle — at least one
  admission every turn — keeps it open until ``coalesce_window_s`` has
  passed on the runtime clock or ``max_batch_rows`` are queued, so batch
  composition depends on how arrivals interleave with loop turns.  No
  timer is armed either way.
- Latency histograms carry wall-clock readings (a reservoir of
  :data:`~repro.runtime.metrics.LATENCY_SAMPLES` per tenant);
  :data:`VOLATILE_METRIC_PREFIXES` names them so determinism tests can
  pass them to :func:`~repro.runtime.parallel.deterministic_dump`.

Inference runs inline on the event loop (NumPy holds the CPU either
way); submissions landing mid-batch simply queue and ride the next
coalescing window — under load that pile-up is what fills batches, which
is why the window never needs to sleep on an idle server's behalf.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.models.earlyexit import BatchExitDecisions
from repro.runtime import get_runtime
from repro.runtime.metrics import LATENCY_SAMPLES
from repro.serving.admission import (
    SHED_SHUTDOWN,
    AdmissionController,
    ShedError,
)

#: metric families whose *values* are wall-clock readings; determinism
#: tests pass these to ``deterministic_dump(drop_metric_prefixes=...)``
VOLATILE_METRIC_PREFIXES = ("serving.gateway.latency_s",)


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for one :class:`ServingGateway`.

    ``coalesce_window_s`` is the longest the first request of a batch is
    held while company keeps arriving (the window closes earlier, at the
    first event-loop turn that admits nothing; 0 takes exactly what is
    queued at wake time); ``max_batch_rows`` bounds how much company it
    can get.  ``max_queue_rows`` is the admission bound (see
    :class:`~repro.serving.admission.AdmissionController`);
    ``tenant_rate``/``tenant_burst`` enable per-tenant token buckets.
    """

    coalesce_window_s: float = 0.002
    max_batch_rows: int = 64
    max_queue_rows: int = 1024
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None

    def __post_init__(self):
        if self.coalesce_window_s < 0:
            raise ValueError(
                f"coalesce_window_s must be >= 0: {self.coalesce_window_s}")
        if self.max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1: {self.max_batch_rows}")
        if self.max_queue_rows < 1:
            raise ValueError(
                f"max_queue_rows must be >= 1: {self.max_queue_rows}")


class _TenantTelemetry:
    """Per-request metric handles, bound once per tenant (same series)."""

    __slots__ = ("submitted", "admitted", "answered", "latency")

    def __init__(self, gateway: "ServingGateway", tenant: str):
        self.submitted = gateway._m_submitted.bind(tenant=tenant)
        self.admitted = gateway._m_admitted.bind(tenant=tenant)
        self.answered = gateway._m_answered.bind(tenant=tenant)
        self.latency = gateway._m_latency.bind(tenant=tenant)


class _Pending:
    """One admitted request waiting in the coalescing queue."""

    __slots__ = ("tenant", "frames", "rows", "future", "enqueued_at")

    def __init__(self, tenant: str, frames: np.ndarray, rows: int,
                 future: "asyncio.Future", enqueued_at: float):
        self.tenant = tenant
        self.frames = frames
        self.rows = rows
        self.future = future
        self.enqueued_at = enqueued_at


def split_decisions(decisions: BatchExitDecisions,
                    row_counts: Sequence[int]) -> List[BatchExitDecisions]:
    """Invert :meth:`BatchExitDecisions.concatenate` along ``row_counts``.

    Remote logits follow their rows: each part gets the escalated rows
    that fall inside its slice, re-based to part-local indices.  Every
    column of a part is a view into ``decisions``.
    """
    bounds = list(accumulate(row_counts, initial=0))
    if bounds[-1] != len(decisions):
        raise ValueError(f"row_counts sum to {bounds[-1]}, "
                         f"decisions hold {len(decisions)} rows")
    # remote_rows ascends (flatnonzero per chunk, offset in chunk order),
    # so one searchsorted places every part's escalated range.
    cuts = (np.searchsorted(decisions.remote_rows, bounds).tolist()
            if decisions.remote_logits is not None else [0] * len(bounds))
    parts = []
    for start, stop, first, last in zip(bounds, bounds[1:], cuts, cuts[1:]):
        remote_rows = np.zeros(0, dtype=int)
        remote_logits = None
        if first < last:
            remote_rows = (decisions.remote_rows[first:last]
                           - start).astype(int, copy=False)
            remote_logits = decisions.remote_logits[first:last]
        parts.append(BatchExitDecisions(
            predictions=decisions.predictions[start:stop],
            exit_index=decisions.exit_index[start:stop],
            confidence=decisions.confidence[start:stop],
            local_logits=decisions.local_logits[start:stop],
            remote_logits=remote_logits,
            remote_rows=remote_rows))
    return parts


class ServingGateway:
    """Coalescing, admission-controlled ingress over a fog deployment.

    Lifecycle::

        gateway = ServingGateway(deployment, policy, config)
        async with gateway.running():
            decisions = await gateway.submit(frames, tenant="cam-a")

    ``close()`` (or leaving ``running()``) drains what was already
    admitted before returning; submissions arriving after close are shed
    with reason ``shutdown``.
    """

    def __init__(self, deployment, policy, config: Optional[GatewayConfig] = None,
                 runtime=None):
        self.deployment = deployment
        self.policy = policy
        self.config = config or GatewayConfig()
        self.runtime = runtime or get_runtime()
        self.admission = AdmissionController(
            self.config.max_queue_rows,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            clock=self.runtime.now)
        self._queue: Deque[_Pending] = deque()
        self._queued_rows = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Task"] = None
        self._closed = False
        self._batch_seq = 0
        self.submitted = 0
        self.admitted = 0
        self.answered = 0
        self.shed = 0
        self.failed = 0
        self.cancelled = 0
        registry = self.runtime.registry
        self._m_submitted = registry.counter(
            "serving.gateway.submitted",
            help="requests offered to the gateway")
        self._m_admitted = registry.counter(
            "serving.gateway.admitted",
            help="requests accepted into the coalescing queue")
        self._m_shed = registry.counter(
            "serving.gateway.shed",
            help="requests refused by admission control or shutdown")
        self._m_answered = registry.counter(
            "serving.gateway.answered",
            help="admitted requests resolved with decisions")
        self._m_failed = registry.counter(
            "serving.gateway.failed",
            help="admitted requests resolved with a batch exception")
        self._m_cancelled = registry.counter(
            "serving.gateway.cancelled",
            help="admitted requests whose caller cancelled before a "
                 "batch took them")
        self._m_batches = registry.counter(
            "serving.gateway.batches",
            help="coalesced micro-batches served")
        self._m_rows = registry.counter(
            "serving.gateway.rows_served",
            help="frame rows served through coalesced batches")
        self._m_batch_rows = registry.histogram(
            "serving.gateway.batch_rows",
            help="rows per coalesced micro-batch")
        self._m_latency = registry.histogram(
            "serving.gateway.latency_s",
            help="wall seconds from admission to answer",
            max_samples=LATENCY_SAMPLES)
        self._tenants: Dict[str, _TenantTelemetry] = {}
        self._g_queue_rows = registry.gauge(
            "serving.gateway.queue_rows",
            help="frame rows waiting in the coalescing queue")
        self._g_queue_requests = registry.gauge(
            "serving.gateway.queue_requests",
            help="requests waiting in the coalescing queue")

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the drain loop on the running event loop (idempotent)."""
        if self._drain_task is not None and not self._drain_task.done():
            return
        self._closed = False
        self._wakeup = asyncio.Event()
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain_loop())

    async def close(self) -> None:
        """Stop accepting work, drain what was admitted, join the loop."""
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None

    @asynccontextmanager
    async def running(self):
        await self.start()
        try:
            yield self
        finally:
            await self.close()

    # -- ingress ----------------------------------------------------------------
    async def submit(self, frames, tenant: str = "default"
                     ) -> BatchExitDecisions:
        """Queue one request and await its slice of the batch decisions.

        Raises :class:`ShedError` when admission refuses it, or the
        inference exception when the whole batch fails.  ``frames`` is a
        ``(rows, ...)`` array; rows may be zero (the request still rides
        a batch and resolves with zero-row decisions).
        """
        data = np.asarray(frames)
        rows = int(data.shape[0])
        telemetry = self._tenants.get(tenant)
        if telemetry is None:
            telemetry = self._tenants[tenant] = _TenantTelemetry(self, tenant)
        self.submitted += 1
        telemetry.submitted.inc(1)
        if self._closed or self._wakeup is None:
            self._shed(tenant, SHED_SHUTDOWN, "gateway is not running")
        reason = self.admission.admit(tenant, rows, self._queued_rows)
        if reason is not None:
            self._shed(tenant, reason,
                       f"{rows} rows against {self._queued_rows} queued")
        pending = _Pending(tenant, data, rows,
                           asyncio.get_running_loop().create_future(),
                           self.runtime.now())
        self._queue.append(pending)
        self._queued_rows += rows
        self.admitted += 1
        telemetry.admitted.inc(1)
        self._update_queue_gauges()
        self._wakeup.set()
        try:
            return await pending.future
        except asyncio.CancelledError:
            self._withdraw(pending)
            raise

    def _withdraw(self, pending: _Pending) -> None:
        """Take a cancelled caller's request out of the queue, if still in.

        Not in the queue: a batch took it (it is answered or failed), or
        ``_take_batch`` met it at the head first and dropped it.
        """
        try:
            self._queue.remove(pending)
        except ValueError:
            return
        self._count_cancelled(pending)
        self._update_queue_gauges()

    def _count_cancelled(self, pending: _Pending) -> None:
        self._queued_rows -= pending.rows
        self.cancelled += 1
        self._m_cancelled.inc(1, tenant=pending.tenant)

    def _shed(self, tenant: str, reason: str, detail: str) -> None:
        self.shed += 1
        self._m_shed.inc(1, tenant=tenant, reason=reason)
        raise ShedError(tenant, reason, detail)

    def _update_queue_gauges(self) -> None:
        self._g_queue_rows.set(self._queued_rows)
        self._g_queue_requests.set(len(self._queue))

    # -- drain loop -------------------------------------------------------------
    async def _drain_loop(self) -> None:
        while True:
            if not self._queue:
                if self._closed:
                    return
                # Nothing awaits between the checks above and this clear,
                # so a flag still set here is stale (its request is served
                # or withdrawn) and waiting on it would spin.
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._await_quiescence()
            batch = self._take_batch()
            if batch:
                self._serve_batch(batch)

    async def _await_quiescence(self) -> None:
        """Hold the batch while requests keep arriving, turn by turn.

        Requests created together are admitted within one turn of the
        event loop of each other, so the first turn that admits nothing
        means the burst is in.  ``coalesce_window_s`` (on the runtime
        clock) and ``max_batch_rows`` bound a trickle that never pauses.
        """
        window = self.config.coalesce_window_s
        if window <= 0:
            return
        deadline = self._queue[0].enqueued_at + window
        while not self._closed and self._queued_rows < self.config.max_batch_rows:
            admitted = self.admitted
            await asyncio.sleep(0)
            if self.admitted == admitted or self.runtime.now() >= deadline:
                return

    def _take_batch(self) -> List[_Pending]:
        """Pop whole requests until the next one would overflow the batch
        or change its ``frames.shape[1:]``: a batch is stacked into one
        array, so an odd-shaped request rides alone and meets the model's
        verdict alone instead of failing the stack for its neighbours.

        A request whose future is already done was cancelled by its caller
        and reached the head before the cancellation reached ``submit()``
        (which would have withdrawn it): it leaves the queue here,
        uninferred.
        """
        batch: List[_Pending] = []
        rows = 0
        while self._queue:
            head = self._queue[0]
            if head.future.done():
                self._count_cancelled(self._queue.popleft())
                continue
            if batch and (rows + head.rows > self.config.max_batch_rows
                          or head.frames.shape[1:] != batch[0].frames.shape[1:]):
                break
            batch.append(self._queue.popleft())
            rows += head.rows
        self._queued_rows -= rows
        self._update_queue_gauges()
        return batch

    def _serve_batch(self, batch: List[_Pending]) -> None:
        self._batch_seq += 1
        seq = self._batch_seq
        rows = sum(p.rows for p in batch)
        arrays = [p.frames for p in batch]
        stacked = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        tracer = self.runtime.tracer
        with tracer.span("serving.gateway.batch", batch=seq,
                         requests=len(batch), rows=rows):
            try:
                with tracer.span("serving.gateway.infer", batch=seq):
                    decisions = self.deployment.serve_batched(
                        stacked, self.policy)
            except Exception as exc:
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
                        self.failed += 1
                        self._m_failed.inc(1, tenant=pending.tenant)
                return
            parts = split_decisions(decisions, [p.rows for p in batch])
        now = self.runtime.now()
        for pending, part in zip(batch, parts):
            if not pending.future.done():
                pending.future.set_result(part)
            self.answered += 1
            telemetry = self._tenants[pending.tenant]
            telemetry.answered.inc(1)
            telemetry.latency.observe(now - pending.enqueued_at)
        self._m_batches.inc()
        self._m_rows.inc(rows)
        self._m_batch_rows.observe(rows)

    # -- observability ----------------------------------------------------------
    def stats(self) -> dict:
        """A cheap live snapshot for health endpoints and tests.

        When the deployment serves captured plans (``capture_plans=``),
        ``plans`` carries the per-stage plan-cache counters.  A stage
        holds one plan, so after warm-up ``misses`` stands still; one
        that keeps rising means batches keep outgrowing the plan (each
        miss is a recapture) — with ``arena_bytes`` the first thing to
        look at when latency regresses.
        """
        snapshot = {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "answered": self.answered,
            "shed": self.shed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "batches": self._batch_seq,
            "queue_rows": self._queued_rows,
            "queue_requests": len(self._queue),
            "closed": self._closed,
        }
        plan_stats = getattr(self.deployment, "plan_stats", None)
        if callable(plan_stats):
            plans = plan_stats()
            if plans:
                snapshot["plans"] = plans
        return snapshot
