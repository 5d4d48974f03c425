"""Shared-memory ndarray staging and the deterministic view of a dump.

Two pieces live here:

**Shared-memory ndarray transport.**  :func:`share_ndarrays` copies every
ndarray at or above ``min_bytes`` inside a (possibly nested) tuple, list
or dict into its own ``multiprocessing.shared_memory`` segment and
replaces it with a :class:`SharedArrayRef` — (segment name, shape,
dtype).  The caller owns the returned segments: close and unlink them
once the last reader is done.  The streaming broker stages camera frames
on ``share_ndarrays=True`` topics this way; :func:`stages_nothing` is
its C-speed check that a batch holds nothing to stage.

**The deterministic dump.**  :func:`deterministic_dump` is
``runtime.dump()`` minus everything that legitimately differs between
two identically-seeded runs: the per-process plan-cache counters
(``nn.plan.*``), the documented wall-clock metrics and wall-clock span
and event timestamps.  Tests serialize it and compare bytes.

This module is also the one place a process or thread pool may be built
(lint rule ``PERF402``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.core import Runtime, get_runtime

#: arrays at or above this size are staged in shared memory
DEFAULT_SHM_MIN_BYTES = 64 * 1024

#: plan-cache telemetry counts captures, which depend on what a process
#: ran before (see ``repro.nn.plan``), so the deterministic dump drops it
PLAN_METRIC_PREFIX = "nn.plan."

#: metrics that carry wall-clock readings by design (documented in their
#: help strings); :func:`deterministic_dump` excludes them
WALL_CLOCK_METRICS = frozenset({
    "nn.infer.latency_s",
    "nn.infer.throughput_items_s",
    "streaming.broker.produce_latency_s",
    "streaming.broker.fetch_latency_s",
})


# -- shared-memory ndarray transport ------------------------------------------

@dataclass(frozen=True)
class SharedArrayRef:
    """Stored in place of a staged ndarray: (segment name, shape, dtype)."""

    segment: str
    shape: Tuple[int, ...]
    dtype: str


def share_ndarrays(value: Any, min_bytes: int = DEFAULT_SHM_MIN_BYTES
                   ) -> Tuple[Any, int, List[shared_memory.SharedMemory]]:
    """Stage large ndarrays inside ``value`` into shared memory.

    Recurses through tuples/lists/dicts.  Returns the encoded value
    (arrays of ``min_bytes`` or more replaced by :class:`SharedArrayRef`),
    the bytes staged, and the created segments.  The caller owns the
    segments — close and unlink them when the last reader is done.
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
            return SharedArrayRef(segment.name, array.shape, array.dtype.str)
        if isinstance(obj, tuple):
            return tuple(encode(item) for item in obj)
        if isinstance(obj, list):
            return [encode(item) for item in obj]
        if isinstance(obj, dict):
            return {key: encode(item) for key, item in obj.items()}
        return obj

    return encode(value), staged, segments


def stages_nothing(values: Sequence[Any], min_bytes: int) -> bool:
    """True when every value is a plain ndarray below ``min_bytes``, which
    :func:`share_ndarrays` hands back as is; checked at C speed."""
    return (set(map(type, values)) == {np.ndarray}
            and max(map(operator.attrgetter("nbytes"), values)) < min_bytes)


# -- the determinism-contract view of a dump -----------------------------------

def deterministic_dump(runtime: Optional[Runtime] = None,
                       drop_metric_prefixes: Iterable[str] = (),
                       drop_span_prefixes: Iterable[str] = ()) -> Dict:
    """``runtime.dump()`` restricted to what a seeded run determines.

    Drops the plan-cache counters (``nn.plan.*`` — capture counts depend
    on what the process ran before) and the documented wall-clock
    metrics, and zeroes wall-clock span and event timestamps (span
    *names, labels and order* are preserved — the contract covers
    structure, not wall time).  Everything that remains must be
    byte-identical between two identically-seeded runs.

    ``drop_metric_prefixes`` / ``drop_span_prefixes`` let callers exclude
    whole telemetry families whose *attempt counts* legitimately vary
    with deployment shape — e.g. ``streaming.broker.*`` fetch/lag series
    vary with consumer-group size even though the committed output does
    not (see :data:`repro.streaming.broker.VOLATILE_METRIC_PREFIXES`).
    """
    rt = runtime or get_runtime()
    payload = rt.dump()
    metric_prefixes = (PLAN_METRIC_PREFIX, *drop_metric_prefixes)
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
