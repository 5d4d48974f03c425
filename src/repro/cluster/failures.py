"""Failure injection for simulated machines.

City-scale deployments lose edge devices and datanodes constantly; the
paper's storage layer (HDFS-style replication, Sec. II-B-2) exists to
tolerate exactly that.  :class:`FailureProcess` drives deterministic,
seedable crash/repair schedules on the simulation clock against any
collection of objects that expose an ``alive`` flag (e.g.
:class:`repro.cluster.machines.Machine` or a DFS datanode).  Every crash
and repair lands in the shared runtime as a structured event
(``cluster.failure`` / ``cluster.recovery``), so experiments can correlate
failures with latency spikes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.runtime import get_runtime


def _target_name(target) -> str:
    return getattr(target, "name", type(target).__name__)


class FailureProcess:
    """Seeded crash/recover scheduling on the simulation clock.

    Machine failure is a first-class *event inside the DES*: crash and
    recovery times are drawn from exponential distributions on a
    runtime-derived stream and executed as simulation events, so the
    ``cluster.failure`` / ``cluster.recovery`` records carry sim-clock
    timestamps and identically-seeded runs replay the same schedule byte
    for byte.  Each crash takes a uniformly-chosen live target; a crash
    drawn when none is live does nothing.

    Parameters
    ----------
    env:
        The :class:`~repro.cluster.sim.Environment` to schedule on.
    targets:
        Objects with a mutable ``alive`` attribute (machines, datanodes).
    seed:
        Drives both the victim choice (scope ``("cluster.failures",
        seed)``) and the crash/repair timing (scope
        ``("cluster.failures.process", seed)``) of the runtime's
        :class:`~repro.runtime.RngContext`.
    mean_time_to_failure_s:
        Mean of the exponential delay between consecutive crash draws.
    mean_time_to_repair_s:
        Mean exponential downtime before a victim recovers; ``None``
        means victims stay dead.
    max_failures:
        How many crashes the schedule draws; the bound is what lets
        ``env.run()`` drain.
    on_fail:
        Optional callback invoked with each crashed target (the fog
        fabric uses it to interrupt in-flight work).

    Events land in the runtime installed at construction.
    """

    def __init__(self, env, targets: Sequence, seed: int = 0,
                 mean_time_to_failure_s: float = 1.0,
                 mean_time_to_repair_s: Optional[float] = None,
                 max_failures: int = 4,
                 on_fail: Optional[Callable] = None):
        if mean_time_to_failure_s <= 0:
            raise ValueError(
                f"mean_time_to_failure_s must be > 0: {mean_time_to_failure_s}")
        if mean_time_to_repair_s is not None and mean_time_to_repair_s <= 0:
            raise ValueError(
                f"mean_time_to_repair_s must be > 0: {mean_time_to_repair_s}")
        if not targets:
            raise ValueError("need at least one failure target")
        self.env = env
        self.targets = list(targets)
        self.runtime = get_runtime()
        self._victim_rng = self.runtime.rng.child("cluster.failures", seed)
        self.on_fail = on_fail
        #: crashed targets not yet repaired, oldest first
        self.failed: List = []
        self.mean_time_to_failure_s = float(mean_time_to_failure_s)
        self.mean_time_to_repair_s = (
            None if mean_time_to_repair_s is None
            else float(mean_time_to_repair_s))
        self.max_failures = max_failures
        self._rng = self.runtime.rng.child("cluster.failures.process", seed)
        self.process = env.process(self._drive())

    def _drive(self):
        for _ in range(self.max_failures):
            delay = self._rng.expovariate(1.0 / self.mean_time_to_failure_s)
            yield self.env.timeout(delay)
            live = [t for t in self.targets if t.alive]
            if not live:
                continue
            victim = self._victim_rng.choice(live)
            victim.alive = False
            self.failed.append(victim)
            self.runtime.events.emit("cluster.failure",
                                     target=_target_name(victim))
            if self.on_fail is not None:
                self.on_fail(victim)
            if self.mean_time_to_repair_s is not None:
                downtime = self._rng.expovariate(
                    1.0 / self.mean_time_to_repair_s)
                self.env.process(self._repair(victim, downtime))
        return None

    def _repair(self, target, downtime: float):
        yield self.env.timeout(downtime)
        self.failed.remove(target)
        target.alive = True
        self.runtime.events.emit("cluster.recovery",
                                 target=_target_name(target))
        return None

    def stop(self) -> None:
        """Cancel any crashes not yet injected (repairs still complete)."""
        if self.process.is_alive:
            self.process.interrupt("stop")
