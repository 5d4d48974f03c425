"""End-to-end fog pipeline costing: analytic per-item and DES streaming.

Two complementary views of the Fig. 3 pipeline:

- :meth:`FogPipeline.item_cost` prices a single item analytically given the
  stage at which it resolves — compute time per tier plus transfer time per
  hop.  Used for threshold sweeps where per-item exit outcomes come from a
  real trained model.
- :meth:`FogPipeline.simulate_stream` runs a discrete-event simulation:
  items arrive at a configurable rate, every machine is a unit-capacity
  queueing resource, and exits are drawn per item.  This exposes queueing
  effects — an overloaded analysis server grows a backlog exactly as the
  paper's offloading rationale predicts.

Since the runtime refactor, the simulation emits everything through the
shared :mod:`repro.runtime` substrate instead of hand-rolled accumulators:

- ``fog.pipeline.stage`` spans (queue wait + service per stage,
  virtual-clock timestamps) and ``fog.pipeline.hop`` spans (transfer per
  hop);
- counters ``fog.pipeline.resolved``, ``fog.pipeline.bytes_shipped`` and
  ``fog.pipeline.machine_busy_s``;
- histogram ``fog.pipeline.item_latency_s`` (one observation per
  completed item).

Failure model
-------------
The paper's offloading rationale (Sec. II-B-2) assumes edge and fog nodes
die constantly, so machine failure is a first-class simulation event here:
pass a :class:`FailureSpec` to :meth:`FogPipeline.simulate_stream` and a
:class:`~repro.cluster.failures.FailureProcess` drives seeded crash and
recovery events on the simulation clock.  Each item then walks its stages
fault-tolerantly:

- a crash *interrupts* in-flight work on the dead machine (both waiters in
  the queue and the item being serviced);
- each stage attempt may bound its queue wait with
  :attr:`FaultPolicy.stage_timeout_s`;
- failed attempts retry up to :data:`MAX_ATTEMPTS` times in all with
  deterministic exponential backoff, *failing over* to a live sibling
  machine of the same tier when the placed machine is dead (re-shipping
  the activation from the machine that last completed a stage);
- when an entire tier is dead or attempts are exhausted, the item
  *degrades*: it resolves at the deepest already-completed stage with an
  exit head (the paper's graceful-degradation-by-early-exit design), or is
  *dropped* when no exit was reached.

Outcomes are counted in ``fog.pipeline.item_latency_s`` /
``fog.pipeline.degraded`` / ``fog.pipeline.dropped`` (every arrival lands
in exactly one) plus ``fog.pipeline.retries`` and
``fog.pipeline.failovers``; crash/recovery records appear as
``cluster.failure`` / ``cluster.recovery`` events with sim timestamps.

:class:`StreamStats` is a thin view assembled from those registry series
after the run, so the existing benchmark/test API is unchanged while any
other layer's telemetry recorded during the same run shares one dump.
Exit draws come from the runtime's seeded :class:`~repro.runtime.RngContext`
(scope ``("fog.pipeline.exits", seed)``), and the failure schedule from
``("cluster.failures*", spec.seed)``, which makes identically-seeded runs
byte-identical end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.failures import FailureProcess
from repro.cluster.machines import Machine, NetworkTopology, failover_transfer_time
from repro.cluster.sim import Environment, Interrupt, Process, Resource
from repro.fog.split import Stage, TierPlacement
from repro.runtime import get_runtime


@dataclass
class ItemCost:
    """Cost breakdown for one item."""

    resolved_stage: int
    compute_s: float
    network_s: float
    bytes_shipped: int
    per_stage_compute: List[float] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.compute_s + self.network_s


#: attempts per stage (including the first) before an item gives up and
#: degrades or drops
MAX_ATTEMPTS = 3
#: retry ``n`` (1-based) sleeps ``BACKOFF_BASE_S * 2**(n-1)`` before
#: re-attempting — deterministic, so seeded runs replay exactly
BACKOFF_BASE_S = 0.01


@dataclass(frozen=True)
class FaultPolicy:
    """How an in-flight item reacts to crashes and stalls, per stage.

    ``stage_timeout_s`` bounds the queue wait for a machine grant per
    attempt; ``None`` (the default) waits indefinitely, which reproduces
    the pre-failure-model behaviour for healthy runs — crashes still
    interrupt the wait.  An item makes at most :data:`MAX_ATTEMPTS`
    attempts per stage, backing off between them (:meth:`backoff_s`).
    """

    stage_timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.stage_timeout_s is not None and self.stage_timeout_s <= 0:
            raise ValueError(
                f"stage_timeout_s must be > 0: {self.stage_timeout_s}")

    def backoff_s(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based)."""
        return BACKOFF_BASE_S * (2 ** retry_index)


@dataclass(frozen=True)
class FailureSpec:
    """Configuration for the in-sim failure schedule of one run.

    ``simulate_stream`` turns this into a
    :class:`~repro.cluster.failures.FailureProcess` wired to the run's
    machine fabric, so crashes interrupt in-flight work and recoveries
    restore the placed machines.

    Parameters
    ----------
    seed:
        Drives victim choice and crash/repair timing (under the runtime's
        root seed); same spec + same runtime seed replays byte-identically.
    mean_time_to_failure_s / mean_time_to_repair_s:
        Exponential means; ``mean_time_to_repair_s=None`` leaves victims
        dead for the rest of the run.
    max_failures:
        How many crashes the schedule draws.
    targets:
        Names of machines of the run's topology eligible to crash;
        ``None`` targets every placed machine.
    """

    seed: int = 0
    mean_time_to_failure_s: float = 0.5
    mean_time_to_repair_s: Optional[float] = None
    max_failures: int = 4
    targets: Optional[Sequence[str]] = None


@dataclass
class StreamStats:
    """Aggregate results of a simulated stream (a view over the registry).

    ``completed`` counts items that resolved at their intended stage;
    ``degraded`` items resolved early at the deepest completed exit after
    failures; ``dropped`` items never reached an exit.  Every arrival is
    exactly one of the three (see :attr:`accounted`).
    """

    completed: int
    mean_latency_s: float
    p95_latency_s: float
    max_latency_s: float
    resolved_per_stage: Dict[int, int]
    bytes_per_hop: Dict[str, int]
    machine_busy_s: Dict[str, float]
    degraded: int = 0
    dropped: int = 0
    retries: int = 0
    failovers: int = 0

    @property
    def accounted(self) -> int:
        """Total arrivals this stream accounted for, any outcome."""
        return self.completed + self.degraded + self.dropped

    def resolved_fraction(self, stage_index: int) -> float:
        if self.completed == 0:
            return 0.0
        return self.resolved_per_stage.get(stage_index, 0) / self.completed


def _draw_resolved_stages(stages: Sequence[Stage], num_items: int,
                          probabilities: Dict[int, float], rng) -> List[int]:
    """Per-item resolution stages under {stage: P(exit | reached)}."""
    last_stage = len(stages) - 1
    resolved_at = []
    for _ in range(num_items):
        stage = last_stage
        for index, spec in enumerate(stages):
            if spec.has_exit and probabilities:
                if rng.random() < probabilities.get(index, 0.0):
                    stage = index
                    break
        resolved_at.append(stage)
    return resolved_at


class _Fabric:
    """Shared machine state for one simulation run.

    One unit-capacity :class:`Resource` per machine (shared across every
    stream of the run), liveness-aware failover candidate selection, and
    the registry of in-flight processes that lets a crash interrupt the
    work queued or running on the dead machine.
    """

    def __init__(self, env: Environment, runtime, busy_id: str):
        self.env = env
        self.runtime = runtime
        self.busy_id = busy_id
        self._resources: Dict[str, Resource] = {}
        self._machines: Dict[str, Machine] = {}
        self._topology_of: Dict[str, NetworkTopology] = {}
        self._inflight: Dict[str, Dict[Process, None]] = {}

    def add_machine(self, name: str, topology: NetworkTopology) -> str:
        if name not in self._resources:
            self._machines[name] = topology.machine(name)
            self._topology_of[name] = topology
            self._resources[name] = Resource(self.env, capacity=1)
            self.runtime.registry.counter("fog.pipeline.machine_busy_s").inc(
                0.0, sim=self.busy_id, machine=name)
        return name

    def machine(self, name: str) -> Machine:
        return self._machines[name]

    def resource(self, name: str) -> Resource:
        return self._resources[name]

    def topology(self, name: str) -> NetworkTopology:
        return self._topology_of[name]

    def machine_names(self) -> List[str]:
        return sorted(self._resources)

    def pick_machine(self, placed: str) -> Optional[str]:
        """``placed`` if alive, else the first live same-tier machine by name.

        Returns None when the whole tier is dead — the caller degrades.
        """
        machine = self._machines[placed]
        if machine.alive:
            return placed
        topology = self._topology_of[placed]
        candidates = sorted(topology.machines(machine.tier),
                            key=lambda m: m.name)
        for candidate in candidates:
            if candidate.alive:
                return self.add_machine(candidate.name, topology)
        return None

    def enter(self, name: str, process: Process) -> None:
        self._inflight.setdefault(name, {})[process] = None

    def leave(self, name: str, process: Process) -> None:
        self._inflight.get(name, {}).pop(process, None)

    def on_machine_fail(self, machine: Machine) -> None:
        """``FailureProcess.on_fail`` hook: interrupt everything in flight there."""
        for process in list(self._inflight.get(machine.name, {})):
            if process.is_alive:
                process.interrupt(("machine-crash", machine.name))


class _ItemHandle:
    """Lets an item generator learn its own Process for fabric registration."""

    __slots__ = ("process",)


def _spawn_item(env, runtime, pipeline: "FogPipeline", fabric: _Fabric,
                resolve_stage: int, run_id: str,
                policy: FaultPolicy) -> Process:
    handle = _ItemHandle()
    handle.process = env.process(_item_process(
        env, runtime, pipeline, fabric, resolve_stage, run_id, policy,
        handle))
    return handle.process


def _attempt_stage(env, runtime, fabric: _Fabric, index: int,
                   machine_name: str, data_at: Optional[str],
                   stage_flops: float, hop_bytes: int, run_id: str,
                   handle: _ItemHandle, policy: FaultPolicy):
    """One attempt at one stage on one machine; returns True on success.

    Pays the activation hop when the item's data lives on another machine
    (re-shipping after a failover), then queues for the machine — bounded
    by ``policy.stage_timeout_s`` when set — and runs the service time.
    A crash of ``machine_name`` interrupts the hop, the wait, or the
    service; partial service time still counts as machine busy time.
    """
    machine = fabric.machine(machine_name)
    resource = fabric.resource(machine_name)
    registry = runtime.registry
    busy = registry.counter("fog.pipeline.machine_busy_s")
    service = stage_flops / machine.flops
    request = None
    service_start = None
    fabric.enter(machine_name, handle.process)
    try:
        if data_at is not None and data_at != machine_name:
            hop_time = failover_transfer_time(
                fabric.topology(machine_name), data_at, machine_name,
                hop_bytes)
            registry.counter("fog.pipeline.bytes_shipped").inc(
                hop_bytes, run=run_id, hop=f"{data_at}->{machine_name}")
            if hop_time > 0:
                with runtime.tracer.span("fog.pipeline.hop", run=run_id,
                                         machine=data_at):
                    yield env.timeout(hop_time)
        with runtime.tracer.span("fog.pipeline.stage", run=run_id,
                                 stage=index, machine=machine_name):
            request = resource.request()
            if not request.triggered:
                if policy.stage_timeout_s is None:
                    yield request
                else:
                    yield env.any_of(
                        [request, env.timeout(policy.stage_timeout_s)])
                    if not request.triggered:
                        return False  # grant timed out; finally withdraws
            service_start = env.now
            if service > 0:
                yield env.timeout(service)
            busy.inc(env.now - service_start, sim=fabric.busy_id,
                     machine=machine_name)
        return True
    except Interrupt:
        if service_start is not None and env.now > service_start:
            busy.inc(env.now - service_start, sim=fabric.busy_id,
                     machine=machine_name)
        return False
    finally:
        fabric.leave(machine_name, handle.process)
        if request is not None:
            resource.cancel(request)


def _resolve_disrupted(registry, run_id: str,
                       deepest_exit: Optional[int]) -> None:
    """Degrade to the deepest completed exit head, or drop the item."""
    if deepest_exit is not None:
        registry.counter("fog.pipeline.degraded").inc(
            run=run_id, stage=deepest_exit)
    else:
        registry.counter("fog.pipeline.dropped").inc(run=run_id)


def _item_process(env, runtime, pipeline: "FogPipeline", fabric: _Fabric,
                  resolve_stage: int, run_id: str, policy: FaultPolicy,
                  handle: _ItemHandle):
    """One item walking the placed stages fault-tolerantly.

    Every arrival terminates in exactly one of three outcomes —
    completed at its intended stage, degraded to the deepest completed
    exit, or dropped — regardless of the failure schedule; the module
    docstring describes the retry/failover/degradation rules.
    """
    registry = runtime.registry
    retries = registry.counter("fog.pipeline.retries")
    failovers = registry.counter("fog.pipeline.failovers")
    start = env.now
    data_at: Optional[str] = None     # machine holding the latest activation
    deepest_exit: Optional[int] = None
    try:
        for index in range(resolve_stage + 1):
            stage = pipeline.stages[index]
            placed = pipeline.placement.machines[index]
            stage_flops = stage.flops
            if stage.has_exit or index == resolve_stage:
                stage_flops += stage.exit_head_flops
            hop_bytes = (pipeline.stages[index - 1].output_bytes
                         if index > 0 else 0)
            attempts = 0
            chosen: Optional[str] = None
            while True:
                previous = chosen if chosen is not None else placed
                candidate = fabric.pick_machine(placed)
                if candidate is None:
                    _resolve_disrupted(registry, run_id, deepest_exit)
                    return None
                if candidate != previous:
                    failovers.inc(run=run_id, stage=index)
                chosen = candidate
                attempts += 1
                done = yield from _attempt_stage(
                    env, runtime, fabric, index, chosen, data_at,
                    stage_flops, hop_bytes, run_id, handle, policy)
                if done:
                    break
                if attempts >= MAX_ATTEMPTS:
                    _resolve_disrupted(registry, run_id, deepest_exit)
                    return None
                retries.inc(run=run_id, stage=index)
                backoff = policy.backoff_s(attempts - 1)
                if backoff > 0:
                    yield env.timeout(backoff)
            data_at = chosen
            if stage.has_exit:
                deepest_exit = index
    except Interrupt:
        # A stray interrupt outside an attempt (e.g. racing crash events)
        # must not lose the item from the accounting.
        _resolve_disrupted(registry, run_id, deepest_exit)
        return None
    registry.histogram("fog.pipeline.item_latency_s").observe(
        env.now - start, run=run_id)
    registry.counter("fog.pipeline.resolved").inc(run=run_id,
                                                  stage=resolve_stage)
    return None


def _sum_for_run(counter, run_id: str) -> float:
    """Sum of a counter's series belonging to one stream's run label."""
    return sum(value for labels, value in counter.labeled_series()
               if labels.get("run") == run_id)


def _stream_stats(runtime, pipeline: "FogPipeline", run_id: str,
                  busy_id: str) -> StreamStats:
    """Assemble a :class:`StreamStats` view from this run's registry series."""
    registry = runtime.registry
    latency = registry.histogram("fog.pipeline.item_latency_s").summary(
        run=run_id)

    resolved_counter: Dict[int, int] = {}
    resolved = registry.counter("fog.pipeline.resolved")
    for index in range(len(pipeline.stages)):
        count = resolved.value(run=run_id, stage=index)
        if count:
            resolved_counter[index] = int(count)

    bytes_per_hop: Dict[str, int] = {}
    shipped = registry.counter("fog.pipeline.bytes_shipped")
    for labels, value in shipped.labeled_series():
        if labels.get("run") == run_id and value:
            bytes_per_hop[labels["hop"]] = int(value)

    busy = registry.counter("fog.pipeline.machine_busy_s")
    machines = sorted(set(pipeline.placement.machines))
    machine_busy = {name: busy.value(sim=busy_id, machine=name)
                    for name in machines}

    return StreamStats(
        completed=latency["count"],
        mean_latency_s=latency["mean"] or 0.0,
        p95_latency_s=latency["p95"] or 0.0,
        max_latency_s=latency["max"] or 0.0,
        resolved_per_stage=resolved_counter,
        bytes_per_hop=bytes_per_hop,
        machine_busy_s=machine_busy,
        degraded=int(_sum_for_run(
            registry.counter("fog.pipeline.degraded"), run_id)),
        dropped=int(_sum_for_run(
            registry.counter("fog.pipeline.dropped"), run_id)),
        retries=int(_sum_for_run(
            registry.counter("fog.pipeline.retries"), run_id)),
        failovers=int(_sum_for_run(
            registry.counter("fog.pipeline.failovers"), run_id)))


def _start_failures(env: Environment, fabric: _Fabric, spec: FailureSpec,
                    topology: NetworkTopology) -> FailureProcess:
    """Wire a :class:`FailureProcess` to this run's fabric."""
    targets = ([topology.machine(name) for name in spec.targets]
               if spec.targets is not None
               else [fabric.machine(name) for name in fabric.machine_names()])
    return FailureProcess(
        env, targets, seed=spec.seed,
        mean_time_to_failure_s=spec.mean_time_to_failure_s,
        mean_time_to_repair_s=spec.mean_time_to_repair_s,
        max_failures=spec.max_failures,
        on_fail=fabric.on_machine_fail)


def _simulate(runtime, stream_states: List[dict],
              failures: Optional[FailureSpec],
              fault_policy: Optional[FaultPolicy]) -> List[StreamStats]:
    """Run prepared streams (with per-item outcomes drawn) to completion."""
    policy = fault_policy or FaultPolicy()
    env = Environment(runtime=runtime)
    busy_id = runtime.gensym("fog-sim")
    fabric = _Fabric(env, runtime, busy_id)
    registry = runtime.registry
    for state in stream_states:
        pipeline: "FogPipeline" = state["pipeline"]
        for name in pipeline.placement.machines:
            fabric.add_machine(name, pipeline.placement.topology)
        state["run_id"] = runtime.gensym("fog-stream")
        # Pre-create the outcome series so dumps carry them even when a
        # run sees no disruption at all (the documented inc(0.0) idiom).
        for metric in ("retries", "failovers", "degraded", "dropped"):
            registry.counter(f"fog.pipeline.{metric}").inc(
                0.0, run=state["run_id"])

    if failures is not None:
        # only simulate_stream injects failures, and it runs one stream
        _start_failures(env, fabric, failures,
                        stream_states[0]["pipeline"].placement.topology)

    def arrival_process(env, state):
        for item, stage in enumerate(state["resolved_at"]):
            _spawn_item(env, runtime, state["pipeline"], fabric, stage,
                        state["run_id"], policy)
            if state["interval"] > 0 and item < len(state["resolved_at"]) - 1:
                yield env.timeout(state["interval"])
        return None

    for state in stream_states:
        env.process(arrival_process(env, state))
    env.run()

    return [_stream_stats(runtime, state["pipeline"], state["run_id"],
                          busy_id)
            for state in stream_states]


def simulate_shared_streams(streams: Sequence[dict], seed: int = 0
                            ) -> List[StreamStats]:
    """Run several pipelines' streams against *shared* machine queues.

    This models the paper's deployment reality: many edge devices feed a
    handful of fog nodes and one analysis server, so one camera's offloads
    queue behind another's.  Each entry of ``streams`` is a dict with keys
    ``pipeline`` (:class:`FogPipeline`), ``num_items``,
    ``arrival_interval_s`` and optionally ``exit_probabilities``.
    Machines with the same name share a single unit-capacity resource
    across all streams; per-stream
    :class:`StreamStats` are returned in input order.  Each stream's
    ``machine_busy_s`` reports the *combined* busy time of its machines
    across all streams, matching the shared queues.  Every machine stays
    up; :meth:`FogPipeline.simulate_stream` is where failures are injected.
    """
    if not streams:
        raise ValueError("need at least one stream")
    runtime = get_runtime()
    rng = runtime.rng.child("fog.pipeline.exits", seed)
    stream_states: List[dict] = []
    for spec in streams:
        pipeline: "FogPipeline" = spec["pipeline"]
        num_items = spec["num_items"]
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1: {num_items}")
        stream_states.append({
            "pipeline": pipeline,
            "interval": spec["arrival_interval_s"],
            "resolved_at": _draw_resolved_stages(
                pipeline.stages, num_items,
                spec.get("exit_probabilities") or {}, rng),
        })
    return _simulate(runtime, stream_states, None, None)


class FogPipeline:
    """A placed stage chain ready for costing and simulation."""

    def __init__(self, placement: TierPlacement):
        self.placement = placement
        self.stages: Sequence[Stage] = placement.stages

    # -- analytic ------------------------------------------------------------
    def item_cost(self, resolved_stage: int) -> ItemCost:
        """Cost of one item that resolves at ``resolved_stage``.

        The item runs every stage up to and including ``resolved_stage``
        (paying each stage's main FLOPs plus its exit head where present)
        and ships each intermediate activation across its hop.
        """
        if not 0 <= resolved_stage < len(self.stages):
            raise ValueError(
                f"resolved_stage {resolved_stage} out of range "
                f"0..{len(self.stages) - 1}")
        compute = 0.0
        network = 0.0
        shipped = 0
        per_stage = []
        for index in range(resolved_stage + 1):
            stage = self.stages[index]
            machine = self.placement.machine_for(index)
            stage_flops = stage.flops
            if stage.has_exit or index == resolved_stage:
                stage_flops += stage.exit_head_flops
            seconds = stage_flops / machine.flops
            per_stage.append(seconds)
            compute += seconds
            if index < resolved_stage:
                network += self.placement.hop_transfer_time(
                    index, stage.output_bytes)
                if self.placement.machines[index] != self.placement.machines[index + 1]:
                    shipped += stage.output_bytes
        return ItemCost(resolved_stage=resolved_stage, compute_s=compute,
                        network_s=network, bytes_shipped=shipped,
                        per_stage_compute=per_stage)

    # -- discrete-event stream --------------------------------------------------
    def simulate_stream(self, num_items: int, arrival_interval_s: float,
                        exit_probabilities: Optional[Dict[int, float]] = None,
                        seed: int = 0,
                        failures: Optional[FailureSpec] = None,
                        fault_policy: Optional[FaultPolicy] = None
                        ) -> StreamStats:
        """Queueing simulation of a stream of items.

        Parameters
        ----------
        num_items / arrival_interval_s:
            Deterministic arrivals every ``arrival_interval_s`` seconds.
        exit_probabilities:
            {stage_index: P(exit at stage | reached stage)} for stages with
            exits; drawn per item from the runtime's seeded RNG context.
        failures:
            Optional :class:`FailureSpec`; when given, a seeded
            :class:`~repro.cluster.failures.FailureProcess` crashes and
            recovers machines on the simulation clock while items retry,
            fail over, and degrade per ``fault_policy``.
        fault_policy:
            Optional :class:`FaultPolicy`; defaults to unbounded queue
            waits.

        Spans and metrics land in the installed runtime.
        """
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1: {num_items}")
        if arrival_interval_s < 0:
            raise ValueError("arrival_interval_s must be >= 0")
        runtime = get_runtime()
        rng = runtime.rng.child("fog.pipeline.exits", seed)
        resolved_at = _draw_resolved_stages(
            self.stages, num_items, exit_probabilities or {}, rng)
        stats = _simulate(runtime, [{
            "pipeline": self,
            "interval": arrival_interval_s,
            "resolved_at": resolved_at,
        }], failures, fault_policy)
        return stats[0]
