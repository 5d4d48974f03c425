"""Deterministic process-pool execution engine with shared-memory transport.

The paper's fog nodes serve hundreds of camera streams concurrently,
while a plain Python reproduction runs on one core.
:class:`ParallelExecutor` lets the caller that owns a pool fan whole
units of work (one camera stream or micro-batch per task) across cores
without giving up the one property everything else in this repo is
built on: a run's ``runtime.dump()`` must not depend on how many workers
executed it.

Three design decisions make that work:

**Fork-per-call pools.**  ``map_ordered(fn, items)`` creates a fresh
``fork``-context pool for each call, *after* stashing ``fn`` in a module
global.  Forked children inherit the function — closures, lambdas, bound
methods and captured models all cross for free, with zero pickling of
code or weights.  Only the per-task payloads and results cross the
boundary explicitly.  On platforms without ``fork`` (or when
``workers <= 1``, or inside a worker) the same call degrades to an
in-process loop that emits the *same* spans and counters, so the serial
and parallel paths are observationally identical.

**Shared-memory ndarray transport.**  Arrays at or above
``shm_min_bytes`` are copied once into a ``multiprocessing.shared_memory``
segment; the worker attaches a read-only view instead of receiving a
pickled copy.  The parent owns the segment lifecycle: create + copy-in
before the pool starts, unlink after results are collected.  Workers
attach and close, never unlink.  Workers pickle their own results
*before* closing their segments, so a result that aliases the shared
buffer is materialized while the mapping is still valid.

**Snapshot-diff telemetry merge.**  A worker inherits the parent runtime
(registry object identity and all) through the fork, snapshots it before
running the task, and returns the *delta* — counter increments, gauge
writes, new histogram observations, spans and events recorded while the
task ran.  The parent merges deltas in submission order, which is exactly
the order the serial loop would have emitted them in.  The result: for a
task function that follows the determinism contract (below), the
runtime's dump is byte-identical for any worker count.

Determinism contract (what ``fn`` must do)
------------------------------------------
- derive randomness from ``runtime.rng.child(scope, *key)`` with a key
  based on the *item*, never from a shared stateful generator;
- avoid ``runtime.gensym`` (per-process counters diverge across workers);
- emit metrics/spans/events only through the executor's runtime.

Under that contract, :func:`deterministic_dump` — the full dump minus
the engine's own transport telemetry and the documented wall-clock
fields — is byte-for-byte identical across ``workers`` in ``{1, 2, 4,
...}``, which the worker-sweep property tests assert.
"""

from __future__ import annotations

import multiprocessing
import operator
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.core import Runtime, get_runtime
from repro.runtime.events import EventRecord
from repro.runtime.metrics import series_key
from repro.runtime.tracing import Span

#: arrays at or above this size ship via shared memory instead of pickle
DEFAULT_SHM_MIN_BYTES = 64 * 1024

#: engine metric names (all under one prefix so dump normalization can
#: drop the whole family at once)
ENGINE_METRIC_PREFIX = "runtime.parallel."
#: plan-cache telemetry is per-process by design (each pool worker
#: captures its own plans), so it is dropped alongside the engine's own
#: transport metrics; see ``repro.nn.plan``.
PLAN_METRIC_PREFIX = "nn.plan."
TASKS_METRIC = "runtime.parallel.tasks"
BYTES_METRIC = "runtime.parallel.bytes_shipped"
BUSY_METRIC = "runtime.parallel.worker_busy_s"
TASK_SPAN = "runtime.parallel.task"
MAP_SPAN = "runtime.parallel.map"

#: metrics that carry wall-clock readings by design (documented in their
#: help strings); :func:`deterministic_dump` excludes them
WALL_CLOCK_METRICS = frozenset({
    "nn.infer.latency_s",
    "nn.infer.throughput_items_s",
    "streaming.broker.produce_latency_s",
    "streaming.broker.fetch_latency_s",
})

_TASKS_HELP = "tasks executed through ParallelExecutor.map_ordered"
_BYTES_HELP = "ndarray bytes shipped to workers via shared memory"
_BUSY_HELP = ("runtime-clock seconds spent inside task functions "
              "(wall time outside a DES run)")


class ParallelError(Exception):
    """Raised for invalid executor configuration or worker failures."""


# -- shared-memory ndarray transport ------------------------------------------

@dataclass(frozen=True)
class _ShmRef:
    """Pickled in place of a large ndarray: (segment name, shape, dtype)."""

    segment: str
    shape: Tuple[int, ...]
    dtype: str


def _encode_item(item: Any, min_bytes: int
                 ) -> Tuple[Any, int, List[shared_memory.SharedMemory]]:
    """Replace large ndarrays in ``item`` with shared-memory references.

    Recurses through tuples/lists/dicts.  Returns the encoded payload,
    the number of bytes staged in shared memory, and the created
    segments — which the *parent* must unlink once results are back.
    """
    segments: List[shared_memory.SharedMemory] = []
    staged = 0

    def encode(obj: Any) -> Any:
        nonlocal staged
        if isinstance(obj, np.ndarray) and obj.nbytes >= min_bytes:
            array = np.ascontiguousarray(obj)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes))
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf)
            view[...] = array
            segments.append(segment)
            staged += array.nbytes
            return _ShmRef(segment.name, array.shape, array.dtype.str)
        if isinstance(obj, tuple):
            return tuple(encode(value) for value in obj)
        if isinstance(obj, list):
            return [encode(value) for value in obj]
        if isinstance(obj, dict):
            return {key: encode(value) for key, value in obj.items()}
        return obj

    return encode(item), staged, segments


#: public name for the shared-memory array reference other transports
#: (notably the streaming broker's zero-copy handoff) pattern-match on
SharedArrayRef = _ShmRef


def share_ndarrays(value: Any, min_bytes: int = DEFAULT_SHM_MIN_BYTES
                   ) -> Tuple[Any, int, List[shared_memory.SharedMemory]]:
    """Stage large ndarrays inside ``value`` into shared memory.

    Public wrapper over the executor's transport encoding: returns the
    encoded value (large arrays replaced by :class:`SharedArrayRef`), the
    bytes staged, and the created segments.  The caller owns the
    segments — close and unlink them when the last reader is done.
    """
    return _encode_item(value, min_bytes)


def stages_nothing(values: Sequence[Any], min_bytes: int) -> bool:
    """True when every value is a plain ndarray below ``min_bytes``, which
    :func:`share_ndarrays` hands back as is; checked at C speed."""
    return (set(map(type, values)) == {np.ndarray}
            and max(map(operator.attrgetter("nbytes"), values)) < min_bytes)


def _decode_payload(payload: Any,
                    attached: List[shared_memory.SharedMemory]) -> Any:
    """Resolve shared-memory references into read-only ndarray views.

    Attached segments are appended to ``attached``; the caller closes
    them once the views are no longer needed (after the result has been
    serialized).  Views are read-only: the segment is the parent's copy
    and a worker-side write would be silently lost anyway.
    """

    def decode(obj: Any) -> Any:
        if isinstance(obj, _ShmRef):
            segment = shared_memory.SharedMemory(name=obj.segment)
            attached.append(segment)
            view = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype),
                              buffer=segment.buf)
            view.flags.writeable = False
            return view
        if isinstance(obj, tuple):
            return tuple(decode(value) for value in obj)
        if isinstance(obj, list):
            return [decode(value) for value in obj]
        if isinstance(obj, dict):
            return {key: decode(value) for key, value in obj.items()}
        return obj

    return decode(payload)


# -- worker-side telemetry capture ---------------------------------------------

def _registry_snapshot(registry) -> Dict[str, Dict]:
    """Per-metric series state: values (counter/gauge) or lengths (histogram)."""
    snapshot: Dict[str, Dict] = {}
    for name in registry.names():
        metric = registry.get(name)
        if metric.kind == "histogram":
            snapshot[name] = metric.observation_counts()
        else:
            snapshot[name] = metric.series()
    return snapshot


def _capture_delta(runtime: Runtime, registry_before: Dict[str, Dict],
                   span_base: int, event_base: int,
                   span_id_base: int = 0) -> Dict:
    """Everything emitted into ``runtime`` since the snapshot was taken.

    ``span_base`` / ``event_base`` are the tracer's and the event log's
    ``recorded_total`` at snapshot time: both stores are rings, so a
    worker forked with a full one sees no growth in length.
    """
    delta: Dict[str, List] = {
        "counters": [], "gauges": [], "histograms": [],
        "spans": [], "events": [],
    }
    registry = runtime.registry
    for name in registry.names():
        metric = registry.get(name)
        before = registry_before.get(name, {})
        series: List[Tuple[Dict[str, str], Any]] = []
        if metric.kind == "histogram":
            counts = metric.observation_counts()
            for labels, values in metric.labeled_series():
                key = series_key(labels)
                seen = before.get(key, 0)
                if counts.get(key, 0) > seen or key not in before:
                    if metric.max_samples is not None:
                        # A bounded reservoir forgets observations, so the
                        # since-snapshot slice is unrecoverable and a merge
                        # could not reproduce the serial run.  Sample-bound
                        # serving metrics belong in the main process.
                        raise ParallelError(
                            f"bounded histogram {name!r} was written inside "
                            "a parallel worker; reservoir deltas cannot be "
                            "merged deterministically — observe it from the "
                            "main process or drop max_samples")
                    series.append((labels, values[seen:]))
        else:
            for labels, value in metric.labeled_series():
                key = series_key(labels)
                if metric.kind == "counter":
                    changed = key not in before or value != before[key]
                    if changed:
                        series.append((labels, value - before.get(key, 0.0)))
                elif key not in before or value != before[key]:
                    series.append((labels, value))
        if series:
            delta[metric.kind + "s"].append((name, metric.help, series))
    delta["spans"] = [(s.name, dict(s.labels), s.start, s.clock, s.end,
                       s.span_id, s.parent_id)
                      for s in runtime.tracer.spans_since(span_base)]
    # Worker-local span-id accounting: ids in [span_id_base, base+consumed)
    # were drawn by this task; the merge shifts them onto the parent's
    # counter so numbering matches what a serial run would have assigned.
    delta["span_id_base"] = span_id_base
    delta["span_ids_consumed"] = runtime.tracer.next_span_id - span_id_base
    delta["events"] = [(r.kind, r.time, r.clock, dict(r.data))
                       for r in runtime.events.records_since(event_base)]
    return delta


def _merge_delta(runtime: Runtime, delta: Dict) -> None:
    """Apply a worker's telemetry delta to the main-process runtime.

    Counters add, gauges last-write-wins, histograms append the new
    observations, spans and events append in worker emission order —
    exactly what the serial loop would have produced, because deltas are
    merged in submission order.
    """
    registry = runtime.registry
    for name, help_text, series in delta["counters"]:
        counter = registry.counter(name, help_text)
        for labels, amount in series:
            counter.inc(amount, **labels)
    for name, help_text, series in delta["gauges"]:
        gauge = registry.gauge(name, help_text)
        for labels, value in series:
            gauge.set(value, **labels)
    for name, help_text, series in delta["histograms"]:
        histogram = registry.histogram(name, help_text)
        for labels, values in series:
            for value in values:
                histogram.observe(value, **labels)
    id_base = delta.get("span_id_base", 0)
    offset = runtime.tracer.next_span_id - id_base
    for name, labels, start, clock, end, span_id, parent_id in delta["spans"]:
        # Ids at or above the fork-time base are worker-local: shift them
        # onto the parent counter (preserving start order).  Ids below the
        # base were assigned pre-fork (e.g. the enclosing map span) and
        # are already correct in the parent.
        if span_id is not None and span_id >= id_base:
            span_id += offset
        if parent_id is not None and parent_id >= id_base:
            parent_id += offset
        runtime.tracer.record(
            Span(name=name, labels=labels, start=start, clock=clock, end=end,
                 span_id=span_id, parent_id=parent_id))
    runtime.tracer.advance_span_ids(delta.get("span_ids_consumed", 0))
    for kind, when, clock, data in delta["events"]:
        runtime.events.record(
            EventRecord(kind=kind, time=when, clock=clock, data=data))


# -- the worker entry point ----------------------------------------------------

#: (fn, runtime, label) handed to forked children by inheritance; set
#: immediately before pool creation, cleared after the map completes.
_WORKER_STATE: Optional[Dict[str, Any]] = None

#: True inside a pool worker; nested executors detect it and go serial.
_IN_WORKER = False


def _worker_bootstrap() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _worker_run(task: Tuple[int, Any]) -> bytes:
    """Run one task in a forked worker; returns pickled (result, delta).

    The result is pickled *here*, while any shared-memory views it might
    alias are still mapped; the parent unpickles after the pool joins.
    """
    index, payload = task
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive; fork guarantees state
        raise ParallelError("worker started without inherited task state")
    fn: Callable = state["fn"]
    runtime: Runtime = state["runtime"]
    label: str = state["label"]

    registry_before = _registry_snapshot(runtime.registry)
    span_base = runtime.tracer.recorded_total
    span_id_base = runtime.tracer.next_span_id
    event_base = runtime.events.recorded_total
    attached: List[shared_memory.SharedMemory] = []
    started = runtime.now()
    try:
        item = _decode_payload(payload, attached)
        with runtime.tracer.span(TASK_SPAN, label=label, task=index):
            result = fn(item)
        runtime.registry.counter(BUSY_METRIC, help=_BUSY_HELP).inc(
            runtime.now() - started, label=label)
        delta = _capture_delta(runtime, registry_before, span_base, event_base,
                               span_id_base=span_id_base)
        return pickle.dumps((result, delta), protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for segment in attached:
            segment.close()


# -- the executor --------------------------------------------------------------

def fork_available() -> bool:
    """True when this process can fan work out to forked workers."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and not _IN_WORKER)


class ParallelExecutor:
    """Ordered fan-out of tasks over a process pool, dump-deterministic.

    Parameters
    ----------
    workers:
        Pool width; ``None`` means one per available core.  ``1`` (or a
        platform without ``fork``) selects the serial path, which emits
        the identical span/counter structure so dumps stay comparable
        across worker counts.
    shm_min_bytes:
        Arrays at or above this many bytes ship via shared memory; the
        rest travel inside the pickled payload.

    Engine telemetry and merged worker deltas go to the process-default
    runtime at construction time.
    """

    def __init__(self, workers: Optional[int] = None,
                 shm_min_bytes: int = DEFAULT_SHM_MIN_BYTES):
        if workers is None:
            workers = multiprocessing.cpu_count()
        if workers < 1:
            raise ParallelError(f"workers must be >= 1: {workers}")
        if shm_min_bytes < 0:
            raise ParallelError(f"shm_min_bytes must be >= 0: {shm_min_bytes}")
        self.workers = int(workers)
        self.runtime = get_runtime()
        self.shm_min_bytes = int(shm_min_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ParallelExecutor(workers={self.workers}, "
                f"shm_min_bytes={self.shm_min_bytes})")

    @property
    def is_parallel(self) -> bool:
        """Whether ``map_ordered`` will actually fork for multi-item maps."""
        return self.workers > 1 and fork_available()

    def map_ordered(self, fn: Callable[[Any], Any], items: Iterable[Any],
                    label: str = "task") -> List[Any]:
        """Apply ``fn`` to every item; results in submission order.

        ``fn`` may be any callable — closures and lambdas included —
        because workers inherit it through ``fork`` rather than pickle.
        Worker-side telemetry is merged back in submission order, so for
        contract-following task functions the runtime dump is identical
        to a serial run.  ``label`` names the tasks in spans and metrics
        (it must not contain ``=`` or ``,``).
        """
        items = list(items)
        with self.runtime.tracer.span(MAP_SPAN, label=label,
                                      tasks=len(items)):
            if not items:
                return []
            if len(items) == 1 or not self.is_parallel:
                return self._run_serial(fn, items, label)
            return self._run_parallel(fn, items, label)

    # -- serial path ----------------------------------------------------------
    def _run_serial(self, fn: Callable, items: Sequence[Any],
                    label: str) -> List[Any]:
        runtime = self.runtime
        tasks = runtime.registry.counter(TASKS_METRIC, help=_TASKS_HELP)
        busy = runtime.registry.counter(BUSY_METRIC, help=_BUSY_HELP)
        results = []
        for index, item in enumerate(items):
            started = runtime.now()
            with runtime.tracer.span(TASK_SPAN, label=label, task=index):
                results.append(fn(item))
            busy.inc(runtime.now() - started, label=label)
            tasks.inc(label=label)
        return results

    # -- parallel path --------------------------------------------------------
    def _run_parallel(self, fn: Callable, items: Sequence[Any],
                      label: str) -> List[Any]:
        global _WORKER_STATE
        runtime = self.runtime
        tasks = runtime.registry.counter(TASKS_METRIC, help=_TASKS_HELP)
        shipped = runtime.registry.counter(BYTES_METRIC, help=_BYTES_HELP)

        segments: List[shared_memory.SharedMemory] = []
        payloads: List[Any] = []
        try:
            for item in items:
                payload, staged, item_segments = _encode_item(
                    item, self.shm_min_bytes)
                segments.extend(item_segments)
                payloads.append(payload)
                if staged:
                    shipped.inc(staged, label=label)

            # Stash the task state where forked children will inherit it,
            # then fork the pool.  chunksize=1 keeps scheduling greedy so
            # uneven tasks load-balance; result order is positional either
            # way.
            _WORKER_STATE = {"fn": fn, "runtime": runtime, "label": label}
            pool = multiprocessing.get_context("fork").Pool(
                processes=min(self.workers, len(items)),
                initializer=_worker_bootstrap)
            try:
                blobs = pool.map(_worker_run, list(enumerate(payloads)),
                                 chunksize=1)
                pool.close()
                pool.join()
            except BaseException:
                pool.terminate()
                pool.join()
                raise
        finally:
            _WORKER_STATE = None
            for segment in segments:
                segment.close()
                segment.unlink()

        results = []
        for blob in blobs:
            result, delta = pickle.loads(blob)
            _merge_delta(runtime, delta)
            tasks.inc(label=label)
            results.append(result)
        return results


# -- the determinism-contract view of a dump -----------------------------------

def deterministic_dump(runtime: Optional[Runtime] = None,
                       drop_metric_prefixes: Iterable[str] = (),
                       drop_span_prefixes: Iterable[str] = ()) -> Dict:
    """``runtime.dump()`` restricted to the parallel determinism contract.

    Drops the engine's own transport telemetry (``runtime.parallel.*`` —
    busy-seconds and bytes-shipped legitimately vary with worker count),
    the per-process plan-cache counters (``nn.plan.*`` — capture counts
    depend on worker placement) and the documented wall-clock metrics,
    and zeroes wall-clock span and
    event timestamps (span *names, labels and order* are preserved — the
    contract covers structure, not wall time).  Everything that remains
    must be byte-identical across any worker count; the worker-sweep
    property tests serialize this and compare bytes.

    ``drop_metric_prefixes`` / ``drop_span_prefixes`` let callers exclude
    whole telemetry families whose *attempt counts* legitimately vary
    with deployment shape — e.g. ``streaming.broker.*`` fetch/lag series
    vary with consumer-group size even though the committed output does
    not (see :data:`repro.streaming.broker.VOLATILE_METRIC_PREFIXES`).
    """
    rt = runtime or get_runtime()
    payload = rt.dump()
    metric_prefixes = (ENGINE_METRIC_PREFIX, PLAN_METRIC_PREFIX,
                       *drop_metric_prefixes)
    span_prefixes = tuple(drop_span_prefixes)
    for kind, metrics in payload["metrics"].items():
        payload["metrics"][kind] = {
            name: series for name, series in metrics.items()
            if name not in WALL_CLOCK_METRICS
            and not name.startswith(metric_prefixes)}
    if span_prefixes:
        payload["spans"] = [span for span in payload["spans"]
                            if not span["name"].startswith(span_prefixes)]
    for span in payload["spans"]:
        if span["clock"] == "wall":
            span["start"] = span["end"] = span["duration"] = 0.0
    for event in payload["events"]:
        if event["clock"] == "wall":
            event["time"] = 0.0
    return payload
