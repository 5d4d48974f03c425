"""The asyncio serving gateway: coalesce, admit, shed, serve, observe.

:class:`ServingGateway` is the ingress in front of a
:class:`~repro.fog.deployment.TwoTierDeployment`.  Concurrent callers
``await submit(frames, tenant=...)``; the gateway coalesces whatever is
queued into micro-batches (deadline-bounded by
``coalesce_window_s``, size-bounded by ``max_batch_rows``), runs one
early-exit inference per batch through
:meth:`~repro.fog.deployment.TwoTierDeployment.serve_batched`, and slices
the :class:`~repro.nn.models.earlyexit.BatchExitDecisions` back out to
each caller.  Every admitted request resolves exactly once — with its
decisions, or with the batch's exception; every refused request raises
:class:`~repro.serving.admission.ShedError` exactly once; a request whose
caller cancelled ``submit()`` while it waited is dropped from the queue
uninferred and counted ``cancelled``.  That invariant — ``submitted ==
answered + shed + failed + cancelled`` — is what the chaos property
tests pin.

Determinism notes:

- With ``coalesce_window_s=0`` the drain loop takes exactly what the
  single-threaded event loop has queued at wake time, so batch
  composition is a deterministic function of submission order — the mode
  the worker-sweep property tests run in.
- With a positive window the gateway waits out the deadline for more
  work first (lower per-request overhead, wall-clock-dependent batching).
- Latency histograms carry wall-clock readings;
  :data:`VOLATILE_METRIC_PREFIXES` names them so determinism tests can
  pass them to :func:`~repro.runtime.parallel.deterministic_dump`.

Inference runs inline on the event loop (NumPy holds the CPU either
way); submissions landing mid-batch simply queue and ride the next
coalescing window.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.nn.models.earlyexit import BatchExitDecisions
from repro.runtime import get_runtime
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

    ``coalesce_window_s`` bounds how long the first request of a batch
    waits for company; ``max_batch_rows`` bounds how much company it can
    get.  ``max_queue_rows`` is the admission bound (see
    :class:`~repro.serving.admission.AdmissionController`);
    ``tenant_rate``/``tenant_burst`` enable per-tenant token buckets.
    ``batch_size`` is forwarded to ``serve_batched`` as the inner
    micro-batch size (None = one chunk per coalesced batch).
    """

    coalesce_window_s: float = 0.002
    max_batch_rows: int = 64
    max_queue_rows: int = 1024
    batch_size: Optional[int] = None
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
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {self.batch_size}")


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
    that fall inside its slice, re-based to part-local indices.
    """
    total = sum(row_counts)
    if total != len(decisions):
        raise ValueError(f"row_counts sum to {total}, "
                         f"decisions hold {len(decisions)} rows")
    parts, start = [], 0
    for rows in row_counts:
        parts.append(_slice_decisions(decisions, start, start + rows))
        start += rows
    return parts


def _slice_decisions(dec: BatchExitDecisions, start: int,
                     stop: int) -> BatchExitDecisions:
    remote_rows = np.zeros(0, dtype=int)
    remote_logits = None
    if dec.remote_logits is not None and dec.remote_rows.size:
        mask = (dec.remote_rows >= start) & (dec.remote_rows < stop)
        if mask.any():
            remote_rows = (dec.remote_rows[mask] - start).astype(int)
            remote_logits = dec.remote_logits[mask]
    return BatchExitDecisions(
        predictions=dec.predictions[start:stop],
        exit_index=dec.exit_index[start:stop],
        confidence=dec.confidence[start:stop],
        local_logits=dec.local_logits[start:stop],
        remote_logits=remote_logits,
        remote_rows=remote_rows)


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
            help="wall seconds from admission to answer")
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
        self.submitted += 1
        self._m_submitted.inc(1, tenant=tenant)
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
        self._m_admitted.inc(1, tenant=tenant)
        self._update_queue_gauges()
        self._wakeup.set()
        return await pending.future

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
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            await self._await_coalescing_deadline()
            batch = self._take_batch()
            if batch:
                self._serve_batch(batch)

    async def _await_coalescing_deadline(self) -> None:
        """Hold the first request up to ``coalesce_window_s`` for company."""
        window = self.config.coalesce_window_s
        if window <= 0:
            return
        deadline = self.runtime.now() + window
        while not self._closed and self._queued_rows < self.config.max_batch_rows:
            remaining = deadline - self.runtime.now()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(self._wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                break
            self._wakeup.clear()

    def _take_batch(self) -> List[_Pending]:
        """Pop whole requests until the next one would overflow the batch.

        A request whose future is already done was cancelled by its caller
        while it waited: it leaves the queue here, uninferred, and its
        rows stop counting against admission.
        """
        batch: List[_Pending] = []
        rows = 0
        while self._queue:
            head = self._queue[0]
            if head.future.done():
                self._queue.popleft()
                self._queued_rows -= head.rows
                self.cancelled += 1
                self._m_cancelled.inc(1, tenant=head.tenant)
                continue
            if batch and rows + head.rows > self.config.max_batch_rows:
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
                        stacked, self.policy,
                        batch_size=self.config.batch_size)
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
            self._m_answered.inc(1, tenant=pending.tenant)
            self._m_latency.observe(now - pending.enqueued_at,
                                    tenant=pending.tenant)
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
