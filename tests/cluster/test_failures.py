"""Tests for failure injection."""

import pytest

from repro.cluster import (
    Environment,
    FailureInjector,
    FailureProcess,
    Machine,
    Tier,
)
from repro.runtime import Runtime, using_runtime


def make_machines(count=5):
    return [Machine(f"m{i}", Tier.FOG) for i in range(count)]


def test_fail_one_marks_dead():
    machines = make_machines()
    injector = FailureInjector(machines, seed=1)
    victim = injector.fail_one()
    assert victim is not None
    assert not victim.alive
    assert injector.live_count == 4


def test_deterministic_given_seed():
    first = FailureInjector(make_machines(), seed=7)
    second = FailureInjector(make_machines(), seed=7)
    assert first.fail_one().name == second.fail_one().name


def test_different_seeds_can_differ():
    names = {
        FailureInjector(make_machines(20), seed=s).fail_one().name
        for s in range(10)
    }
    assert len(names) > 1


def test_fail_fraction():
    machines = make_machines(10)
    injector = FailureInjector(machines, seed=0)
    victims = injector.fail_fraction(0.3)
    assert len(victims) == 3
    assert injector.live_count == 7


def test_fail_fraction_validates():
    injector = FailureInjector(make_machines(), seed=0)
    with pytest.raises(ValueError):
        injector.fail_fraction(1.5)


def test_fail_all_then_none_left():
    machines = make_machines(2)
    injector = FailureInjector(machines, seed=0)
    injector.fail_one()
    injector.fail_one()
    assert injector.fail_one() is None


def test_recover_restores_fifo():
    machines = make_machines()
    injector = FailureInjector(machines, seed=3)
    first = injector.fail_one()
    injector.fail_one()
    recovered = injector.recover_one()
    assert recovered is first
    assert recovered.alive


def test_recover_all():
    machines = make_machines(6)
    injector = FailureInjector(machines, seed=2)
    injector.fail_fraction(0.5)
    assert injector.recover_all() == 3
    assert injector.live_count == 6


def test_callbacks_invoked():
    machines = make_machines()
    failed = []
    injector = FailureInjector(machines, seed=0, on_fail=failed.append)
    victim = injector.fail_one()
    assert failed == [victim]
    assert injector.recover_one() is victim
    assert failed == [victim]       # a recovery is not a failure


def test_requires_targets():
    with pytest.raises(ValueError):
        FailureInjector([], seed=0)


def test_event_history_recorded():
    injector = FailureInjector(make_machines(), seed=0)
    victim = injector.fail_one()
    injector.recover_one()
    assert injector.events == [("fail", victim), ("recover", victim)]


class TestRecoverSpecificTarget:
    def test_recover_specific_target(self):
        machines = make_machines()
        injector = FailureInjector(machines, seed=0)
        first = injector.fail_one()
        second = injector.fail_one()
        assert injector.recover(second) is second
        assert second.alive
        assert injector.failed == [first]

    def test_recover_live_target_raises(self):
        machines = make_machines()
        injector = FailureInjector(machines, seed=0)
        with pytest.raises(ValueError):
            injector.recover(machines[0])


class TestFailureProcess:
    """Crash/recover scheduling as first-class simulation events."""

    def _run(self, seed=0, **kwargs):
        runtime = Runtime(seed=0)
        env = Environment(runtime=runtime)
        machines = make_machines()
        kwargs.setdefault("mean_time_to_failure_s", 0.2)
        with using_runtime(runtime):
            process = FailureProcess(env, machines, seed=seed, **kwargs)
        env.run()
        return runtime, machines, process

    def test_injects_up_to_max_failures(self):
        runtime, machines, process = self._run(max_failures=3)
        assert len(process.injector.failed) == 3
        assert sum(1 for m in machines if not m.alive) == 3

    def test_events_carry_sim_timestamps(self):
        runtime, _, _ = self._run(max_failures=3)
        records = runtime.events.records("cluster.failure")
        assert len(records) == 3
        assert all(record.clock == "sim" for record in records)
        times = [record.time for record in records]
        assert times == sorted(times)
        assert all(time > 0 for time in times)

    def test_same_seed_same_schedule(self):
        first, _, _ = self._run(seed=5, max_failures=4)
        second, _, _ = self._run(seed=5, max_failures=4)
        key = lambda runtime: [(r.kind, r.time, r.data["target"])
                               for r in runtime.events.records()]
        assert key(first) == key(second)

    def test_repair_brings_victims_back(self):
        runtime, machines, process = self._run(
            max_failures=4, mean_time_to_repair_s=0.1)
        # env.run() drains everything, including all repair processes.
        assert process.injector.failed == []
        assert all(m.alive for m in machines)
        assert len(runtime.events.records("cluster.recovery")) == 4

    def test_nonpositive_means_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FailureProcess(env, make_machines(), mean_time_to_failure_s=0.0)
        with pytest.raises(ValueError):
            FailureProcess(env, make_machines(), mean_time_to_failure_s=1.0,
                           mean_time_to_repair_s=-1.0)

    def test_stop_cancels_pending_crashes(self):
        runtime = Runtime(seed=0)
        env = Environment(runtime=runtime)
        machines = make_machines()
        with using_runtime(runtime):
            process = FailureProcess(env, machines, seed=0,
                                     mean_time_to_failure_s=10.0,
                                     max_failures=50)

        def stopper(env):
            yield env.timeout(0.5)
            process.stop()

        env.process(stopper(env))
        env.run()
        killed = len(process.injector.failed)
        assert killed < 50  # the stop cut the schedule short

    def test_on_fail_callback_sees_each_victim(self):
        victims = []
        runtime, _, process = self._run(max_failures=3, on_fail=victims.append)
        assert victims == process.injector.failed
