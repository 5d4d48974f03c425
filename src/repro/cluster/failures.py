"""Failure injection for simulated machines.

City-scale deployments lose edge devices and datanodes constantly; the
paper's storage layer (HDFS-style replication, Sec. II-B-2) exists to
tolerate exactly that.  :class:`FailureInjector` drives deterministic,
seedable crash/recover schedules against any collection of objects that
expose an ``alive`` flag (e.g. :class:`repro.cluster.machines.Machine` or a
DFS datanode).  Every injection lands in the shared runtime as a
structured event (``cluster.failure`` / ``cluster.recovery``), so
experiments can correlate failures with latency spikes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.runtime import get_runtime


def _target_name(target) -> str:
    return getattr(target, "name", type(target).__name__)


class FailureInjector:
    """Deterministic, seedable crash and recovery scheduling.

    Parameters
    ----------
    targets:
        Objects with a mutable ``alive`` attribute.
    seed:
        RNG seed; the same seed (under the same runtime seed) reproduces
        the same failure schedule.  The stream is derived from the
        runtime's :class:`~repro.runtime.RngContext` under the scope
        ``("cluster.failures", seed)``.
    on_fail:
        Optional callback invoked with each crashed target, used by e.g.
        the DFS namenode to trigger re-replication.

    Events land in the runtime installed at construction.
    """

    def __init__(self, targets: Sequence, seed: int = 0,
                 on_fail: Optional[Callable] = None):
        if not targets:
            raise ValueError("need at least one failure target")
        self.targets = list(targets)
        self.runtime = get_runtime()
        self._rng = self.runtime.rng.child("cluster.failures", seed)
        self.on_fail = on_fail
        self.failed: List = []
        self.events: List[tuple] = []  # (kind, target) history

    def fail_one(self):
        """Crash one uniformly-chosen live target; returns it (or None)."""
        live = [t for t in self.targets if t.alive]
        if not live:
            return None
        victim = self._rng.choice(live)
        victim.alive = False
        self.failed.append(victim)
        self.events.append(("fail", victim))
        self.runtime.events.emit("cluster.failure",
                                 target=_target_name(victim))
        if self.on_fail is not None:
            self.on_fail(victim)
        return victim

    def fail_fraction(self, fraction: float) -> List:
        """Crash ``fraction`` of currently-live targets (rounded down)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        live = [t for t in self.targets if t.alive]
        count = int(len(live) * fraction)
        return [victim for victim in (self.fail_one() for _ in range(count))
                if victim is not None]

    def recover(self, target):
        """Bring a *specific* failed target back; returns it.

        Raises :class:`ValueError` when the target is not currently
        failed — recovering a live machine would silently desynchronize
        the ``failed`` ledger from the targets' ``alive`` flags.
        """
        if target not in self.failed:
            raise ValueError(
                f"{_target_name(target)} is not currently failed")
        self.failed.remove(target)
        target.alive = True
        self.events.append(("recover", target))
        self.runtime.events.emit("cluster.recovery",
                                 target=_target_name(target))
        return target

    def recover_one(self):
        """Bring the oldest failed target back; returns it (or None)."""
        if not self.failed:
            return None
        return self.recover(self.failed[0])

    def recover_all(self) -> int:
        count = 0
        while self.failed:
            self.recover_one()
            count += 1
        return count

    @property
    def live_count(self) -> int:
        return sum(1 for t in self.targets if t.alive)


class FailureProcess:
    """Seeded crash/recover scheduling on the simulation clock.

    Where :class:`FailureInjector` flips liveness instantly (wall-clock
    tests, DFS re-replication drills), ``FailureProcess`` makes machine
    failure a first-class *event inside the DES*: crash and recovery
    times are drawn from exponential distributions on a runtime-derived
    stream and executed as simulation events, so the injector's
    ``cluster.failure`` / ``cluster.recovery`` records carry sim-clock
    timestamps and identically-seeded runs replay the same schedule
    byte for byte.

    Parameters
    ----------
    env:
        The :class:`~repro.cluster.sim.Environment` to schedule on.
    targets:
        Objects with a mutable ``alive`` attribute (machines, datanodes).
    seed:
        Drives both the victim choice (via the wrapped injector, scope
        ``("cluster.failures", seed)``) and the crash/repair timing
        (scope ``("cluster.failures.process", seed)``).
    mean_time_to_failure_s:
        Mean of the exponential delay between consecutive crash draws.
    mean_time_to_repair_s:
        Mean exponential downtime before a victim recovers; ``None``
        means victims stay dead.
    max_failures:
        How many crashes the schedule draws; the bound is what lets
        ``env.run()`` drain.
    on_fail:
        Forwarded to the wrapped :class:`FailureInjector` (the fog fabric
        uses it to interrupt in-flight work).
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
        self.env = env
        self.injector = FailureInjector(targets, seed=seed, on_fail=on_fail)
        self.runtime = self.injector.runtime
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
            victim = self.injector.fail_one()
            if victim is not None and self.mean_time_to_repair_s is not None:
                downtime = self._rng.expovariate(
                    1.0 / self.mean_time_to_repair_s)
                self.env.process(self._repair(victim, downtime))
        return None

    def _repair(self, target, downtime: float):
        yield self.env.timeout(downtime)
        # The target may have been recovered by other means meanwhile.
        if target in self.injector.failed:
            self.injector.recover(target)
        return None

    def stop(self) -> None:
        """Cancel any crashes not yet injected (repairs still complete)."""
        if self.process.is_alive:
            self.process.interrupt("stop")
