"""Tests for failure injection."""

import pytest

from repro.cluster import (
    Environment,
    FailureProcess,
    Machine,
    Tier,
)
from repro.runtime import Runtime, using_runtime


def make_machines(count=5):
    return [Machine(f"m{i}", Tier.FOG) for i in range(count)]


def crash(machines, seed=0, **kwargs):
    """Run a crash schedule to completion; return its process."""
    runtime = Runtime(seed=0)
    env = Environment(runtime=runtime)
    kwargs.setdefault("max_failures", 1)
    with using_runtime(runtime):
        process = FailureProcess(env, machines, seed=seed, **kwargs)
    env.run()
    return process


def test_fail_one_marks_dead():
    machines = make_machines()
    [victim] = crash(machines, seed=1).failed
    assert not victim.alive
    assert sum(1 for m in machines if m.alive) == 4


def test_deterministic_given_seed():
    first = crash(make_machines(), seed=7).failed
    second = crash(make_machines(), seed=7).failed
    assert [m.name for m in first] == [m.name for m in second]


def test_different_seeds_can_differ():
    names = {crash(make_machines(20), seed=s).failed[0].name
             for s in range(10)}
    assert len(names) > 1


def test_fail_all_then_none_left():
    machines = make_machines(2)
    process = crash(machines, max_failures=3)
    assert len(process.failed) == 2
    assert not any(m.alive for m in machines)
    # the third draw found no live target and crashed nothing
    assert len(process.runtime.events.records("cluster.failure")) == 2


def test_callbacks_invoked():
    victims = []
    process = crash(make_machines(), on_fail=victims.append,
                    mean_time_to_repair_s=0.1)
    [victim] = victims            # a recovery is not a failure
    assert victim.alive and process.failed == []


def test_requires_targets():
    with pytest.raises(ValueError):
        FailureProcess(Environment(), [], seed=0)


class TestFailureProcess:
    """Crash/recover scheduling as first-class simulation events."""

    def _run(self, seed=0, **kwargs):
        machines = make_machines()
        kwargs.setdefault("mean_time_to_failure_s", 0.2)
        process = crash(machines, seed=seed, **kwargs)
        return process.runtime, machines, process

    def test_injects_up_to_max_failures(self):
        runtime, machines, process = self._run(max_failures=3)
        assert len(process.failed) == 3
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
        assert process.failed == []
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
        killed = len(process.failed)
        assert killed < 50  # the stop cut the schedule short

    def test_on_fail_callback_sees_each_victim(self):
        victims = []
        runtime, _, process = self._run(max_failures=3, on_fail=victims.append)
        assert victims == process.failed
