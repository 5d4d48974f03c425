"""Model stage descriptions and tier placement.

A deployed model is a chain of :class:`Stage` objects.  Each stage has a
compute cost (FLOPs per item), the size of the activation it ships to the
next stage, and optionally an *exit head*: a cheap classifier whose
confident predictions terminate processing at that stage (the paper's
Fig. 5/7 pattern).  A :class:`TierPlacement` maps stages to machines of a
:class:`~repro.cluster.machines.NetworkTopology`; placements must ascend
the uplink chain, mirroring the paper's edge -> fog -> server -> cloud flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.machines import Machine, NetworkTopology, Tier


class PlacementError(Exception):
    """Raised when a placement violates the uplink ordering."""


@dataclass(frozen=True)
class Stage:
    """One segment of a split model."""

    name: str
    flops: float
    output_bytes: int          # activation shipped upstream if not exiting
    exit_head_flops: float = 0.0
    has_exit: bool = False

    def __post_init__(self):
        if self.flops < 0 or self.exit_head_flops < 0:
            raise ValueError(f"stage {self.name}: negative FLOPs")
        if self.output_bytes < 0:
            raise ValueError(f"stage {self.name}: negative output size")


@dataclass
class TierPlacement:
    """Assignment of each stage to a machine, in chain order."""

    topology: NetworkTopology
    stages: Sequence[Stage]
    machines: Sequence[str]    # machine name per stage, same length

    def __post_init__(self):
        if len(self.stages) != len(self.machines):
            raise PlacementError(
                f"{len(self.stages)} stages but {len(self.machines)} machines")
        if not self.stages:
            raise PlacementError("a placement needs at least one stage")
        for name in self.machines:
            self.topology.machine(name)  # validates existence
        # Consecutive distinct machines must be connected by the uplink chain.
        for current, following in zip(self.machines, self.machines[1:]):
            if current == following:
                continue
            if not self._upstream_of(current, following):
                raise PlacementError(
                    f"{following} is not upstream of {current}")

    def _upstream_of(self, lower: str, upper: str) -> bool:
        current = lower
        while True:
            parent = self.topology.parent_of(current)
            if parent is None:
                return False
            if parent == upper:
                return True
            current = parent

    def machine_for(self, stage_index: int) -> Machine:
        return self.topology.machine(self.machines[stage_index])

    def hop_transfer_time(self, stage_index: int, size_bytes: float) -> float:
        """Time to ship ``size_bytes`` from stage i's machine to stage i+1's."""
        src = self.machines[stage_index]
        dst = self.machines[stage_index + 1]
        if src == dst:
            return 0.0
        return self.topology.uplink_transfer_time(src, dst, size_bytes)

    def with_failures(self, failed_machines: Iterable[str]) -> "TierPlacement":
        """Degraded placement: stages on failed machines migrate upstream.

        The paper's hierarchy is supervisory — "each analysis server
        handles a set of fog nodes" — so when a fog node dies, its stages
        run on the machine one tier up (recursively, if that one is dead
        too).  Raises :class:`PlacementError` when no live ancestor exists.
        """
        failed = set(failed_machines)
        for name in failed:
            self.topology.machine(name)  # validate
        migrated = []
        for machine_name in self.machines:
            current = machine_name
            while current in failed:
                parent = self.topology.parent_of(current)
                if parent is None:
                    raise PlacementError(
                        f"no live ancestor for failed machine {machine_name}")
                current = parent
            migrated.append(current)
        return TierPlacement(self.topology, list(self.stages), migrated)

    def describe(self) -> List[Dict]:
        """Human-readable placement rows (used by benches and examples)."""
        rows = []
        for stage, machine_name in zip(self.stages, self.machines):
            machine = self.topology.machine(machine_name)
            rows.append({
                "stage": stage.name,
                "machine": machine_name,
                "tier": machine.tier.value,
                "gflops": stage.flops / 1e9,
                "compute_ms": 1000.0 * stage.flops / machine.flops,
            })
        return rows


def model_split_from_early_exit(local_flops: float, remote_flops: float,
                                feature_bytes: int, input_bytes: int,
                                local_exit_flops: float = 0.0) -> List[Stage]:
    """The canonical two-stage split of Figs. 5 and 7.

    Stage 0 ("local") runs the shared stem plus the cheap exit head; stage 1
    ("server") consumes the stem's feature map, its head's FLOPs counted in
    ``remote_flops``.  ``input_bytes`` is recorded
    on a zero-cost ingest stage so the raw-frame hop from the camera to the
    local device is also priced.
    """
    return [
        Stage("ingest", flops=0.0, output_bytes=input_bytes),
        Stage("local", flops=local_flops, output_bytes=feature_bytes,
              exit_head_flops=local_exit_flops, has_exit=True),
        Stage("server", flops=remote_flops, output_bytes=0),
    ]


def materialize_stages(named_modules: Sequence[Tuple[str, object]],
                       input_shape: Tuple[int, ...],
                       fuse: bool = False,
                       exit_heads: Optional[Dict[str, object]] = None
                       ) -> List[Stage]:
    """Build :class:`Stage` rows from actual modules instead of hand costs.

    ``named_modules`` is the chain as ``(name, module)`` pairs; FLOPs and
    activation sizes come from :func:`repro.nn.flops.estimate_flops` on the
    given per-sample ``input_shape``.  With ``fuse`` set, each module is
    costed *after* :func:`repro.nn.fuse.fuse_for_inference` — BatchNorm
    layers fold to :class:`~repro.nn.modules.Identity`, so the stage FLOPs
    reflect what the deployed fast-path graph actually executes.

    ``exit_heads`` maps a stage name to its exit-head module; the head's
    FLOPs are estimated on that stage's output shape and the stage is
    marked ``has_exit``.  The last stage ships nothing upstream.
    """
    from repro.nn.flops import activation_size_bytes, estimate_flops
    from repro.nn.fuse import fuse_for_inference

    exit_heads = exit_heads or {}
    stages: List[Stage] = []
    shape = input_shape
    costed = [(name, fuse_for_inference(module) if fuse else module)
              for name, module in named_modules]
    for index, (name, module) in enumerate(costed):
        flops, shape = estimate_flops(module, shape)
        head = exit_heads.get(name)
        head_flops = estimate_flops(head, shape)[0] if head is not None else 0.0
        last = index == len(costed) - 1
        stages.append(Stage(
            name=name,
            flops=flops,
            output_bytes=0 if last else activation_size_bytes(shape),
            exit_head_flops=head_flops,
            has_exit=head is not None))
    return stages


def place_bottom_up(topology: NetworkTopology, stages: Sequence[Stage],
                    start: str) -> TierPlacement:
    """One stage per tier, ascending from ``start`` along its uplinks.

    The default Fig. 3 placement: stage 0 on the edge device, each later
    stage one tier up.  Extra stages beyond the chain length pile onto the
    last machine.
    """
    chain = [start]
    current = start
    while True:
        parent = topology.parent_of(current)
        if parent is None:
            break
        chain.append(parent)
        current = parent
    machines = [chain[min(i, len(chain) - 1)] for i in range(len(stages))]
    return TierPlacement(topology, list(stages), machines)


def place_all_on(topology: NetworkTopology, stages: Sequence[Stage],
                 machine: str, ingest_from: Optional[str] = None
                 ) -> TierPlacement:
    """Every compute stage on one machine (the all-server baseline).

    When ``ingest_from`` is given, stage 0 stays on that machine so the raw
    input still pays the network hop to ``machine``.
    """
    machines = [machine] * len(stages)
    if ingest_from is not None and stages:
        machines[0] = ingest_from
    return TierPlacement(topology, list(stages), machines)


def bottleneck_latency(placement: TierPlacement) -> float:
    """The slowest per-item stage cost — the pipeline's throughput bound."""
    costs = []
    for index, stage in enumerate(placement.stages):
        machine = placement.machine_for(index)
        compute = (stage.flops + stage.exit_head_flops) / machine.flops
        transfer = 0.0
        if index + 1 < len(placement.stages):
            transfer = placement.hop_transfer_time(index, stage.output_bytes)
        costs.append(compute + transfer)
    return max(costs)
