"""A small simpy-style discrete-event simulation kernel.

The kernel supports generator-based processes, timeouts, generic events
and ``Resource`` (counted capacity with a FIFO queue) — enough to model
the paper's four-tier fog pipeline, network transfers, and failure
injection without any external dependency.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name):
...     yield env.timeout(1.0)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a"))
>>> _ = env.process(worker(env, "b"))
>>> env.run()
>>> log
[(1.0, 'a'), (1.0, 'b')]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* with either :meth:`succeed` or :meth:`fail`.
    Processes waiting on it are resumed (or have the failure raised into
    them) at the current simulation time.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None  # None = untriggered

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, resuming any waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` raised."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires automatically after a delay."""

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        super().__init__(env)
        self.delay = delay
        env._schedule(self, delay=delay)


class AnyOf(Event):
    """Fires when the first child event succeeds.

    An empty event list is rejected with :class:`SimulationError`: a
    disjunction over nothing can never trigger, so yielding it would
    silently deadlock the waiting process.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        events = list(events)
        if not events:
            raise SimulationError(
                "AnyOf over an empty event list can never trigger")
        for event in events:
            if event.triggered:
                if event.ok:
                    self.succeed(event.value)
                else:
                    self.fail(event.value)
                return
        for event in events:
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)


class Process(Event):
    """Wraps a generator as a schedulable process.

    The generator yields :class:`Event` objects; the process resumes when the
    yielded event triggers.  The process itself is an event that triggers
    with the generator's return value, so processes can wait on each other.
    """

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        If the process was blocked on a pending :class:`Request`, the
        request is withdrawn from its resource's wait queue (interrupt-aware
        waiter pruning): a later ``release()`` can then never hand the slot
        to a process that is no longer listening, which would leak capacity.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        if isinstance(target, Request) and not target.triggered:
            target.resource.cancel(target)
        self._waiting_on = None
        wakeup = Event(self.env)
        wakeup.callbacks.append(lambda ev: self._step(ev, Interrupt(cause)))
        wakeup.succeed()

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event.ok:
            self._step(event, None)
        else:
            self._step(event, event.value)

    def _step(self, event: Event, error: Optional[BaseException]) -> None:
        try:
            if error is None:
                target = self._generator.send(event.value if event.triggered else None)
            else:
                target = self._generator.throw(error)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An uncaught interrupt terminates the process quietly.
            self.succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target.triggered:
            # Re-schedule immediately so already-fired events don't stall.
            relay = Event(self.env)
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                relay._ok = False
                relay._value = target.value
                self.env._schedule(relay)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class Environment:
    """The event loop: tracks simulated time and runs scheduled events.

    When constructed with a :class:`repro.runtime.Runtime`, :meth:`run`
    binds this environment as the runtime's clock source for its whole
    duration, so any span or event recorded by code running *inside* the
    simulation carries virtual-clock timestamps — with no change at the
    call sites — and dispatch totals land in the shared metrics registry
    (``cluster.sim.events_dispatched``, ``cluster.sim.now``).
    """

    def __init__(self, runtime=None):
        self._now = 0.0
        self._queue: List = []
        self._counter = itertools.count()
        self._runtime = runtime
        self._dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ---------------------------------------------------
    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), event))

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the final simulation time.
        """
        if self._runtime is None:
            return self._run(until)
        with self._runtime.sim_clock(self):
            dispatched_before = self._dispatched
            try:
                return self._run(until)
            finally:
                registry = self._runtime.registry
                registry.counter("cluster.sim.events_dispatched").inc(
                    self._dispatched - dispatched_before)
                registry.gauge("cluster.sim.now").set(self._now)

    def _run(self, until: Optional[float] = None) -> float:
        while self._queue:
            time, _, event = self._queue[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = time
            self._dispatched += 1
            if event._ok is None:
                # Timeouts are scheduled untriggered and fire when popped.
                event._ok = True
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
            if event._ok is False and not callbacks:
                raise event.value  # unhandled failure
        if until is not None:
            self._now = max(self._now, until)
        return self._now


class Request(Event):
    """A claim on one :class:`Resource` slot: pending, granted, or cancelled.

    Returned by :meth:`Resource.request`.  The lifecycle flags let the
    resource validate ``release()`` calls (a never-granted or already
    released request is a caller bug, not a silent capacity change) and
    let :meth:`Resource.cancel` withdraw a claim safely from either side
    of the grant.
    """

    def __init__(self, env: "Environment", resource: "Resource"):
        super().__init__(env)
        self.resource = resource
        self.granted = False
        self.cancelled = False
        self.released = False


class Resource:
    """Counted capacity with a FIFO wait queue (e.g. GPU slots on a server).

    Usage::

        def job(env, gpu):
            req = gpu.request()
            yield req
            try:
                yield env.timeout(1.0)
            finally:
                gpu.release(req)

    A process interrupted while *waiting* in ``request()`` has its claim
    pruned from the queue automatically (see :meth:`Process.interrupt`);
    code that abandons a request by other means (e.g. after an
    ``AnyOf``-based timeout) must withdraw it with :meth:`cancel`, which
    is safe to call in any state.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[Request] = []

    def request(self) -> Request:
        request = Request(self.env, self)
        if self._in_use < self.capacity:
            self._grant(request)
        else:
            self._waiters.append(request)
        return request

    def _grant(self, request: Request) -> None:
        self._in_use += 1
        request.granted = True
        request.succeed()

    def release(self, request: Request) -> None:
        """Return a granted slot; hands it to the next live waiter."""
        if not isinstance(request, Request) or request.resource is not self:
            raise SimulationError(
                "release() with a request not issued by this resource")
        if not request.granted:
            raise SimulationError("releasing a never-granted request")
        if request.released:
            raise SimulationError("request already released")
        request.released = True
        while self._waiters:
            waiter = self._waiters.pop(0)
            if waiter.cancelled:
                continue
            waiter.granted = True
            waiter.succeed()
            return
        self._in_use -= 1

    def cancel(self, request: Request) -> bool:
        """Withdraw a request: dequeue if pending, release if held.

        Idempotent — cancelling an already cancelled or released request
        is a no-op returning False, so cleanup paths (``finally`` blocks,
        interrupt handlers) can call it unconditionally.
        """
        if not isinstance(request, Request) or request.resource is not self:
            raise SimulationError(
                "cancel() with a request not issued by this resource")
        if request.cancelled or request.released:
            return False
        if request.granted:
            self.release(request)
            return True
        request.cancelled = True
        try:
            self._waiters.remove(request)
        except ValueError:
            pass
        return True

