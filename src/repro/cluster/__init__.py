"""Simulated cluster substrate: discrete-event kernel, machines, links, tiers.

The paper's hardware layer (Sec. II-B) spans Raspberry-Pi edge devices,
NVIDIA-Jetson fog nodes, GPU analysis servers, and a federated cloud,
interconnected by regional (LONI) and national (Internet2) networks.  None of
that hardware is available here, so this package provides a discrete-event
simulation of it: :class:`~repro.cluster.sim.Environment` is a small
simpy-style event kernel, and :mod:`repro.cluster.machines` models nodes with
per-tier compute rates and links with bandwidth/latency.  Latency and
throughput *shapes* across tiers — the quantity Fig. 3 of the paper argues
about — are preserved by construction.
"""

from repro.cluster.sim import (
    Environment,
    Event,
    Interrupt,
    Process,
    Request,
    Resource,
    SimulationError,
    Timeout,
)
from repro.cluster.machines import (
    TIER_FLOPS,
    Link,
    Machine,
    NetworkTopology,
    Tier,
    failover_transfer_time,
    transfer_time,
)
from repro.cluster.failures import FailureProcess

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Timeout",
    "Tier",
    "Machine",
    "Link",
    "NetworkTopology",
    "TIER_FLOPS",
    "failover_transfer_time",
    "transfer_time",
    "FailureProcess",
]
