"""The runtime object: one observability substrate for the whole stack.

A :class:`Runtime` bundles the four cross-layer services every module
shares:

- ``registry`` — the :class:`~repro.runtime.metrics.MetricsRegistry`;
- ``tracer`` — span tracing on the runtime clock;
- ``events`` — the structured :class:`~repro.runtime.events.EventLog`;
- ``rng`` — the seeded :class:`~repro.runtime.rng.RngContext`.

The runtime clock is wall time until a DES
:class:`~repro.cluster.sim.Environment` binds itself (see
:meth:`Runtime.sim_clock`); while bound, every span and event carries
virtual-clock timestamps, so a simulated run's dump is a deterministic
function of its seed.

Modules resolve their runtime with :func:`get_runtime`, which returns the
process-wide default unless a different runtime has been installed with
:func:`set_runtime` / :func:`using_runtime`.  Experiments that need an
isolated, reproducible dump do::

    with using_runtime(Runtime(seed=7)) as rt:
        ...build and run the stack...
        payload = rt.dump()
"""

from __future__ import annotations

from contextlib import contextmanager
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.runtime.events import EventLog
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.rng import RngContext
from repro.runtime.tracing import Tracer


class Runtime:
    """Metrics + tracing + events + seeded RNG behind one clock."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self._clock)
        self.events = EventLog(self._clock)
        self.rng = RngContext(seed)
        self._clock_stack: List = []   # bound DES environments, innermost last
        self._gensym_counts: Dict[str, int] = {}

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Virtual time of the innermost bound simulation, else wall time."""
        if self._clock_stack:
            return self._clock_stack[-1].now
        return time.perf_counter()

    @property
    def clock_kind(self) -> str:
        return "sim" if self._clock_stack else "wall"

    def _clock(self) -> Tuple[float, str]:
        return self.now(), self.clock_kind

    @contextmanager
    def sim_clock(self, env) -> Iterator:
        """Bind a DES environment as the time source for the block."""
        self._clock_stack.append(env)
        try:
            yield env
        finally:
            self._clock_stack.pop()

    # -- naming ---------------------------------------------------------------
    def gensym(self, prefix: str) -> str:
        """A per-runtime unique name (``flume-agent-0``, ``fog-stream-1``...).

        Counters restart with each fresh runtime, so two identically-seeded
        runs in fresh runtimes generate identical label values — a
        requirement for byte-identical dumps.
        """
        n = self._gensym_counts.get(prefix, 0)
        self._gensym_counts[prefix] = n + 1
        return f"{prefix}-{n}"

    # -- export ----------------------------------------------------------------
    def dump(self) -> Dict:
        """The full observability state as one JSON-ready dict."""
        return {
            "seed": self.seed,
            "metrics": self.registry.dump(),
            "spans": self.tracer.dump(),
            "events": self.events.dump(),
        }


_default_runtime: Optional[Runtime] = None


def get_runtime() -> Runtime:
    """The currently-installed runtime (created on first use)."""
    global _default_runtime
    if _default_runtime is None:
        _default_runtime = Runtime()
    return _default_runtime


def set_runtime(runtime: Runtime) -> Runtime:
    """Install ``runtime`` as the process default; returns it."""
    global _default_runtime
    _default_runtime = runtime
    return runtime


@contextmanager
def using_runtime(runtime: Runtime) -> Iterator[Runtime]:
    """Temporarily install ``runtime`` as the default for a block."""
    global _default_runtime
    previous = _default_runtime
    _default_runtime = runtime
    try:
        yield runtime
    finally:
        _default_runtime = previous
