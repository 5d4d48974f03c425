"""In-memory span recorder for the traced run, kept outside the program.

Spans are recorded around calls *into* each layer's public functions:

- objects the harness hands to the program (broker -> consumer -> record
  batch, deployment) are wrapped in :class:`Proxy`, a duck-typed stand-in
  that forwards everything and times the named methods;
- objects the program builds itself are reached by :meth:`Recorder.patch`,
  which sets a timed wrapper on a **public** attribute (of an instance, a
  class or a module) and puts the original back in :meth:`restore`.

No underscore name is read or patched.

The untraced run passes :class:`NoTrace` wherever the traced run passes a
:class:`Recorder`, so each workload is written once.

Everything runs on one thread and one event loop, so spans nest on one
stack: a layer call is synchronous and closes before the coroutine that
made it yields, and the only spans held open across an ``await`` are the
pass root and the pump span, which the pump coroutine opens and closes
while no layer call is in flight.  Self time is a span's duration minus
its direct children's.
"""

from __future__ import annotations

import asyncio
import functools
import json
import selectors
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_MISSING = object()

#: span name of event-loop idle time (the loop's ``select`` call)
IDLE = "harness.idle"


class Recorder:
    """Spans as ``[name, start, end, parent, request, weight]`` rows."""

    def __init__(self):
        self.spans: List[list] = []
        #: (workload, pass) — stamped on every span opened under it
        self.request: Optional[Tuple] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack
        index = len(self.spans)
        row = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, 1]
        self.spans.append(row)
        stack.append(index)
        row[1] = time.perf_counter()
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def timed(self, name: str, fn: Callable, every: int = 1) -> Callable:
        """``fn`` wrapped so that every ``every``-th call is a ``name`` span.

        The span carries ``every`` as its weight: a per-record call made
        ten thousand times a pass is timed one time in ``every`` and
        counted ``every``-fold, so tracing does not cost more than the
        call.  Written out rather than built on :meth:`span`: this wraps
        the hot calls, and a generator context manager per call would
        double their price.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            # Outside a pass root (set-up, the harness's own checks)
            # nothing is recorded.
            if calls % every or not stack:
                return fn(*args, **kwargs)
            row = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self.request, every]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
        return wrapper

    # -- patches on program-built objects -----------------------------------
    def patch(self, owner: Any, attr: str, name: str, every: int = 1) -> None:
        """Time ``owner.attr`` (instance, class or module attribute)."""
        if attr.startswith("_"):
            raise ValueError(f"refusing to patch private name {attr!r}")
        saved = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.timed(name, getattr(owner, attr), every))
        self._patched.append((owner, attr, saved))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, saved = self._patched.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- what the harness hands to the program ------------------------------
    def broker(self, broker) -> "Proxy":
        """broker -> consumer -> record batch -> per-camera group."""
        def group(sub_batch):
            return Proxy(sub_batch, self,
                         {"stacked_values": ("streaming.regroup", None)})

        def batch(record_batch):
            return Proxy(record_batch, self, {
                "groups": ("streaming.regroup",
                           lambda groups: [(key, group(sub))
                                           for key, sub in groups])})

        def consumer(member):
            return Proxy(member, self, {
                "poll_batch": ("streaming.poll_batch", batch),
                "position_snapshot": ("streaming.commit", None),
                "commit": ("streaming.commit", None),
                "close": ("streaming.membership", None)})

        return Proxy(broker, self, {
            "consumer": ("streaming.membership", consumer),
            "produce_batch": ("streaming.produce_batch", None)})

    def deployment(self, deployment) -> "Proxy":
        return Proxy(deployment, self,
                     {"serve_batched": ("fog.serve_batched", None)})

    def event_loop(self) -> asyncio.AbstractEventLoop:
        """A loop whose time blocked in ``select`` is :data:`IDLE` spans."""
        return asyncio.SelectorEventLoop(IdleSelector(self))

    # -- summaries -----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus its direct children's (weighted)."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, weight in self.spans:
            if parent is not None:
                own[parent] -= (end - start) * weight
        return own

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, busy_s, self_s}}`` over all recorded spans."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _, weight), own in zip(self.spans,
                                                         self.self_times()):
            row = out.setdefault(name,
                                 {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += weight
            row["busy_s"] += (end - start) * weight
            row["self_s"] += own * weight
        return out

    def dump(self, path: str) -> None:
        """Write every span once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": index, "name": name, "start": start,
                        "end": end, "parent": parent, "request": request,
                        "weight": weight}
                       for index, (name, start, end, parent, request, weight)
                       in enumerate(self.spans)], handle)


class NoTrace:
    """The untraced run's recorder: every hook hands back what it was given."""

    request: Optional[Tuple] = None
    _span = nullcontext()

    def span(self, name: str):
        return self._span

    def patch(self, owner: Any, attr: str, name: str, every: int = 1) -> None:
        pass

    def restore(self) -> None:
        pass

    def broker(self, broker):
        return broker

    def deployment(self, deployment):
        return deployment

    def event_loop(self) -> asyncio.AbstractEventLoop:
        return asyncio.new_event_loop()


class Proxy:
    """Forward everything to ``target``; time the methods in ``spans``.

    ``spans`` maps a method name to ``(span name, wrap)``: ``wrap`` (or
    None) turns the method's result into the next proxy down the chain.
    """

    def __init__(self, target: Any, recorder: Recorder,
                 spans: Dict[str, Tuple[str, Optional[Callable]]]):
        self._target = target
        self._recorder = recorder
        self._spans = spans

    def __getattr__(self, attr: str):
        value = getattr(self._target, attr)
        spec = self._spans.get(attr)
        if spec is None:
            return value
        name, wrap = spec
        timed = self._recorder.timed(name, value)
        call = timed if wrap is None else (
            lambda *args, **kwargs: wrap(timed(*args, **kwargs)))
        # Next time the attribute is found without coming through here.
        vars(self)[attr] = call
        return call

    def __len__(self) -> int:
        return len(self._target)


class IdleSelector(selectors.DefaultSelector):
    """The event loop's selector; time blocked in ``select`` is idle time.

    Handed to the public ``asyncio.SelectorEventLoop(selector)``
    constructor, so the loop's waiting shows up as :data:`IDLE` spans and
    the rest of a pump span is the serving layer's own work.
    """

    def __init__(self, recorder: Recorder):
        super().__init__()
        self._recorder = recorder

    def select(self, timeout=None):
        if timeout is not None and timeout <= 0:
            return super().select(timeout)
        with self._recorder.span(IDLE):
            return super().select(timeout)
