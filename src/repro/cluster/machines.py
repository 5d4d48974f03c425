"""Machines, tiers and network links for the simulated hardware layer.

Models Sec. II-B of the paper: four tiers of compute (edge devices, fog
nodes, analysis servers, federated cloud) interconnected by regional and
national links.  Compute is modelled as a FLOP rate, so a model layer with a
known FLOP count has a deterministic service time per tier; network transfers
cost ``latency + size / bandwidth``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


class Tier(enum.Enum):
    """The four tiers of the paper's fog-computing model (Fig. 3)."""

    EDGE = "edge"          # smartphones, Raspberry Pis
    FOG = "fog"            # NVIDIA Jetson class embedded devices
    SERVER = "server"      # GPU analysis servers
    CLOUD = "cloud"        # federated public cloud / HPC


#: Per-tier compute rate in FLOP/s.  Values are order-of-magnitude figures
#: for the device classes the paper names (Raspberry Pi, Jetson, GPU
#: server, cloud instance) — the ratios between tiers are what matter.
TIER_FLOPS: Dict[Tier, float] = {
    Tier.EDGE: 5e8,
    Tier.FOG: 5e9,
    Tier.SERVER: 1e11,
    Tier.CLOUD: 1e12,
}

#: Default uplink characteristics from each tier towards the next tier up.
#: Edge->fog is a local wireless hop; fog->server rides a regional network
#: (LONI); server->cloud rides Internet2.
UPLINK_DEFAULTS: Dict[Tier, Dict[str, float]] = {
    Tier.EDGE: {"bandwidth": 2e6, "latency": 0.010},     # ~16 Mbit/s wifi
    Tier.FOG: {"bandwidth": 50e6, "latency": 0.005},     # regional fibre
    Tier.SERVER: {"bandwidth": 1e9, "latency": 0.020},   # Internet2 backbone
}

_TIER_ORDER = [Tier.EDGE, Tier.FOG, Tier.SERVER, Tier.CLOUD]


@dataclass
class Machine:
    """A simulated machine that computes at its tier's FLOP rate."""

    name: str
    tier: Tier
    alive: bool = True

    @property
    def flops(self) -> float:
        return TIER_FLOPS[self.tier]


@dataclass(frozen=True)
class Link:
    """A directed network link with fixed bandwidth and propagation latency."""

    src: str
    dst: str
    bandwidth_bytes_per_s: float
    latency_s: float

    def transfer_time(self, size_bytes: float) -> float:
        """Seconds to move ``size_bytes`` across this link."""
        return transfer_time(size_bytes, self.bandwidth_bytes_per_s, self.latency_s)


def transfer_time(size_bytes: float, bandwidth_bytes_per_s: float, latency_s: float) -> float:
    """latency + serialization delay for a payload of ``size_bytes``."""
    if size_bytes < 0:
        raise ValueError(f"negative payload size: {size_bytes}")
    if bandwidth_bytes_per_s <= 0:
        raise ValueError(f"bandwidth must be positive: {bandwidth_bytes_per_s}")
    return latency_s + size_bytes / bandwidth_bytes_per_s


def failover_transfer_time(topology: "NetworkTopology", src: str, dst: str,
                           size_bytes: float) -> float:
    """Transfer time from ``src`` to ``dst`` allowing sibling reroutes.

    The topology only materializes *uplinks*, so a failover target that is
    not on ``src``'s uplink chain — a sibling fog node under a different
    parent, say — has no explicit path.  When the exact chain exists it is
    priced exactly; otherwise the climb from ``src``'s tier toward
    ``dst``'s tier is approximated with each intermediate tier's default
    uplink, and a lateral hop (same tier) is priced as one uplink at that
    tier — the detour through the shared parent that a real deployment's
    supervisor would broker.
    """
    if src == dst:
        return 0.0
    try:
        return topology.uplink_transfer_time(src, dst, size_bytes)
    except KeyError:
        pass
    src_index = _TIER_ORDER.index(topology.machine(src).tier)
    dst_index = _TIER_ORDER.index(topology.machine(dst).tier)
    hops = max(1, dst_index - src_index)
    total = 0.0
    for step in range(hops):
        tier = _TIER_ORDER[min(src_index + step, len(_TIER_ORDER) - 2)]
        defaults = UPLINK_DEFAULTS.get(tier, {"bandwidth": 1e9, "latency": 0.001})
        total += transfer_time(size_bytes, defaults["bandwidth"],
                               defaults["latency"])
    return total


class NetworkTopology:
    """A set of machines plus directed links; routes along tier uplinks.

    ``build_fog_hierarchy`` constructs the paper's tree: many edge devices
    per fog node, several fog nodes per analysis server, all servers feeding
    one cloud, with per-hop default link characteristics.
    """

    def __init__(self):
        self._machines: Dict[str, Machine] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._parent: Dict[str, str] = {}

    # -- construction -------------------------------------------------------
    def add_machine(self, machine: Machine) -> Machine:
        if machine.name in self._machines:
            raise ValueError(f"duplicate machine name: {machine.name}")
        self._machines[machine.name] = machine
        return machine

    def add_link(self, link: Link) -> Link:
        for endpoint in (link.src, link.dst):
            if endpoint not in self._machines:
                raise KeyError(f"unknown machine: {endpoint}")
        self._links[(link.src, link.dst)] = link
        return link

    def connect_up(self, child: str, parent: str) -> Link:
        """Add an uplink from ``child`` to ``parent`` with tier defaults."""
        tier = self.machine(child).tier
        defaults = UPLINK_DEFAULTS.get(tier, {"bandwidth": 1e9, "latency": 0.001})
        link = Link(
            src=child,
            dst=parent,
            bandwidth_bytes_per_s=defaults["bandwidth"],
            latency_s=defaults["latency"],
        )
        self.add_link(link)
        self._parent[child] = parent
        return link

    @classmethod
    def build_fog_hierarchy(cls, edges_per_fog: int = 4, fogs_per_server: int = 4,
                            servers: int = 2) -> "NetworkTopology":
        """Construct the four-tier tree of Sec. II-B with default hardware."""
        if min(edges_per_fog, fogs_per_server, servers) < 1:
            raise ValueError("hierarchy fan-outs must be >= 1")
        topo = cls()
        cloud = topo.add_machine(Machine("cloud-0", Tier.CLOUD))
        for s in range(servers):
            server = topo.add_machine(Machine(f"server-{s}", Tier.SERVER))
            topo.connect_up(server.name, cloud.name)
            for f in range(fogs_per_server):
                fog = topo.add_machine(Machine(f"fog-{s}-{f}", Tier.FOG))
                topo.connect_up(fog.name, server.name)
                for e in range(edges_per_fog):
                    edge = topo.add_machine(Machine(f"edge-{s}-{f}-{e}", Tier.EDGE))
                    topo.connect_up(edge.name, fog.name)
        return topo

    # -- queries -------------------------------------------------------------
    def machine(self, name: str) -> Machine:
        try:
            return self._machines[name]
        except KeyError:
            raise KeyError(f"unknown machine: {name}") from None

    def machines(self, tier: Optional[Tier] = None) -> List[Machine]:
        if tier is None:
            return list(self._machines.values())
        return [m for m in self._machines.values() if m.tier == tier]

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst}") from None

    def parent_of(self, name: str) -> Optional[str]:
        return self._parent.get(name)

    def uplink_path(self, src: str) -> Iterator[Link]:
        """Yield the chain of uplinks from ``src`` to the root of its tree."""
        current = src
        seen = {current}
        while True:
            parent = self._parent.get(current)
            if parent is None:
                return
            if parent in seen:
                raise ValueError(f"uplink cycle at {parent}")
            seen.add(parent)
            yield self.link(current, parent)
            current = parent

    def uplink_transfer_time(self, src: str, dst: str, size_bytes: float) -> float:
        """Total transfer time along uplinks from ``src`` until ``dst``."""
        if src == dst:
            return 0.0
        total = 0.0
        current = src
        for link in self.uplink_path(src):
            total += link.transfer_time(size_bytes)
            current = link.dst
            if current == dst:
                return total
        raise KeyError(f"{dst} is not upstream of {src}")
