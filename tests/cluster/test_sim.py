"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.cluster import (
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    assert env.run() == 2.5


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, name):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, 3.0, "late"))
    env.process(proc(env, 1.0, "early"))
    env.process(proc(env, 2.0, "middle"))
    env.run()
    assert order == ["early", "middle", "late"]


def test_simultaneous_events_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_early():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    assert env.run(until=10.0) == 10.0
    assert env.now == 10.0


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [42]


def test_process_waits_on_manual_event():
    env = Environment()
    gate = Event(env)
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(5.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(5.0, "open")]


def test_event_failure_raises_in_waiter():
    env = Environment()
    gate = Event(env)
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    event = Event(env)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_yield_already_triggered_event():
    env = Environment()
    done = []

    def proc(env):
        event = Event(env)
        event.succeed("fast")
        value = yield event
        done.append(value)

    env.process(proc(env))
    env.run()
    assert done == ["fast"]


def test_interrupt_raises_in_process():
    env = Environment()
    outcomes = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            outcomes.append("slept")
        except Interrupt as intr:
            outcomes.append(("interrupted", intr.cause, env.now))

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert outcomes == [("interrupted", "wake up", 2.0)]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(0.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc(env):
        yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0]


class TestResource:
    def test_serializes_access(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        spans = []

        def job(env, name):
            request = resource.request()
            yield request
            start = env.now
            yield env.timeout(2.0)
            resource.release(request)
            spans.append((name, start, env.now))

        env.process(job(env, "a"))
        env.process(job(env, "b"))
        env.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]

    def test_capacity_allows_parallelism(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        ends = []

        def job(env):
            request = resource.request()
            yield request
            yield env.timeout(2.0)
            resource.release(request)
            ends.append(env.now)

        for _ in range(2):
            env.process(job(env))
        env.run()
        assert ends == [2.0, 2.0]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)


def test_any_of_empty_list_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


class TestResourceFaultSemantics:
    """Request lifecycle: pruned waiters, validated release, cancel."""

    def test_interrupted_waiter_does_not_leak_capacity(self):
        # Regression: an interrupted waiter used to leave its dead event
        # in the queue; a later release() would grant the slot to it and
        # the capacity was lost for every subsequent arrival.
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = []

        def holder(env):
            request = resource.request()
            yield request
            yield env.timeout(5.0)
            resource.release(request)

        def doomed_waiter(env):
            request = resource.request()
            try:
                yield request
            except Interrupt:
                return None
            resource.release(request)
            return None

        def late_arrival(env):
            yield env.timeout(6.0)
            request = resource.request()
            yield request
            granted.append(env.now)
            resource.release(request)

        def killer(env, victim):
            yield env.timeout(1.0)
            victim.interrupt("crash")

        env.process(holder(env))
        victim = env.process(doomed_waiter(env))
        env.process(killer(env, victim))
        env.process(late_arrival(env))
        env.run()
        assert granted == [6.0]
        assert resource.request().triggered  # every slot came back

    def test_release_never_granted_request_raises(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.request()              # takes the only slot
        queued = resource.request()     # still waiting
        with pytest.raises(SimulationError):
            resource.release(queued)

    def test_double_release_raises(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        request = resource.request()
        resource.release(request)
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_release_foreign_request_raises(self):
        env = Environment()
        mine = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        request = other.request()
        with pytest.raises(SimulationError):
            mine.release(request)

    def test_cancel_pending_request_dequeues(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        held = resource.request()
        queued = resource.request()
        assert resource.cancel(queued) is True
        resource.release(held)
        assert not queued.triggered      # the slot skipped the cancelled claim
        assert resource.request().triggered  # slot immediately available

    def test_cancel_granted_request_hands_slot_to_next_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        held = resource.request()
        queued = resource.request()
        assert resource.cancel(held) is True
        assert queued.triggered and queued.granted

    def test_cancel_is_idempotent(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        held = resource.request()
        queued = resource.request()
        assert resource.cancel(queued) is True
        assert resource.cancel(queued) is False
        resource.release(held)
        assert resource.cancel(held) is False

    def test_cancel_foreign_request_raises(self):
        env = Environment()
        mine = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        request = other.request()
        with pytest.raises(SimulationError):
            mine.cancel(request)
