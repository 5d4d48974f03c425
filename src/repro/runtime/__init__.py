"""Unified observability core: metrics, tracing, events, seeded RNG.

The paper's cyberinfrastructure is four-layer (data / hardware / software
/ application); this package is the one substrate all four layers emit
through, replacing each layer's private counters.  See DESIGN.md
("Runtime observability layer") for metric naming and span conventions,
and :func:`repro.viz.exporters.registry_to_json` for turning any run's
runtime into a BENCH-style JSON artifact.
"""

from repro.runtime.core import (
    Runtime,
    get_runtime,
    set_runtime,
    using_runtime,
)
from repro.runtime.events import EventLog, EventRecord
from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    series_key,
)
from repro.runtime.parallel import deterministic_dump
from repro.runtime.rng import RngContext, derive_seed, resolve_rng
from repro.runtime.tracing import Span, Tracer

__all__ = [
    "Runtime", "get_runtime", "set_runtime", "using_runtime",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "MetricsError",
    "series_key",
    "Tracer", "Span",
    "EventLog", "EventRecord",
    "RngContext", "derive_seed", "resolve_rng",
    "deterministic_dump",
]
