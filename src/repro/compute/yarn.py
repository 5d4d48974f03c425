"""YARN-style cluster resource management.

A :class:`ResourceManager` owns a set of :class:`NodeManager` machines and
grants :class:`Container` leases against their vcore/memory capacity.
Requests that cannot be placed are queued; releasing capacity re-drives the
queue.  Two scheduling policies from the Hadoop ecosystem:

- ``fifo`` — strict arrival order;
- ``capacity`` — named queues with guaranteed cluster fractions; a queue
  using less than its guarantee gets priority.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class YarnError(Exception):
    """Raised for invalid scheduling requests."""


@dataclass
class ResourceRequest:
    """A pending container request."""

    app_id: str
    vcores: int
    memory_mb: int
    queue: str = "default"
    on_grant: Optional[Callable[["Container"], None]] = None


@dataclass
class Container:
    """A granted lease of vcores/memory on one node."""

    container_id: int
    node: "NodeManager"
    app_id: str
    vcores: int
    memory_mb: int
    queue: str = "default"


class NodeManager:
    """One worker machine's resource accounting."""

    def __init__(self, name: str, vcores: int, memory_mb: int):
        if vcores < 1 or memory_mb < 1:
            raise YarnError(f"node {name} needs positive capacity")
        self.name = name
        self.vcores = vcores
        self.memory_mb = memory_mb
        self.used_vcores = 0
        self.used_memory_mb = 0
        self.alive = True

    @property
    def free_vcores(self) -> int:
        return self.vcores - self.used_vcores

    @property
    def free_memory_mb(self) -> int:
        return self.memory_mb - self.used_memory_mb

    def fits(self, request: ResourceRequest) -> bool:
        return (self.alive
                and self.free_vcores >= request.vcores
                and self.free_memory_mb >= request.memory_mb)

    def _allocate(self, request: ResourceRequest) -> None:
        self.used_vcores += request.vcores
        self.used_memory_mb += request.memory_mb

    def _release(self, container: Container) -> None:
        self.used_vcores -= container.vcores
        self.used_memory_mb -= container.memory_mb
        if self.used_vcores < 0 or self.used_memory_mb < 0:
            raise YarnError(f"double release on node {self.name}")


class ResourceManager:
    """Grants containers; queues what does not fit.

    Parameters
    ----------
    scheduler:
        ``"fifo"`` or ``"capacity"``.
    queue_capacity:
        For the capacity scheduler: {queue_name: fraction}; fractions should
        sum to ~1.0.
    """

    def __init__(self, scheduler: str = "fifo",
                 queue_capacity: Optional[Dict[str, float]] = None):
        if scheduler not in ("fifo", "capacity"):
            raise YarnError(f"unknown scheduler: {scheduler}")
        if scheduler == "capacity" and not queue_capacity:
            raise YarnError("capacity scheduler needs queue_capacity")
        self.scheduler = scheduler
        self.queue_capacity = dict(queue_capacity or {"default": 1.0})
        self._nodes: Dict[str, NodeManager] = {}
        self._pending: List[ResourceRequest] = []
        self._containers: Dict[int, Container] = {}
        self._ids = itertools.count(1)

    # -- membership ----------------------------------------------------------
    def register_node(self, node: NodeManager) -> None:
        if node.name in self._nodes:
            raise YarnError(f"duplicate node: {node.name}")
        self._nodes[node.name] = node

    def nodes(self) -> List[NodeManager]:
        return list(self._nodes.values())

    # -- capacity accounting --------------------------------------------------
    @property
    def total_vcores(self) -> int:
        return sum(n.vcores for n in self._nodes.values() if n.alive)

    def vcores_used_by_queue(self, queue: str) -> int:
        return sum(c.vcores for c in self._containers.values()
                   if c.queue == queue)

    def utilization(self) -> float:
        total = self.total_vcores
        if total == 0:
            return 0.0
        used = sum(n.used_vcores for n in self._nodes.values() if n.alive)
        return used / total

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def running_containers(self) -> List[Container]:
        return list(self._containers.values())

    # -- scheduling -----------------------------------------------------------
    def submit(self, request: ResourceRequest) -> Optional[Container]:
        """Try to place a request; queue it otherwise.

        Returns the granted container or None if queued.
        """
        if request.vcores < 1 or request.memory_mb < 1:
            raise YarnError("requests need positive resources")
        if (self.scheduler == "capacity"
                and request.queue not in self.queue_capacity):
            raise YarnError(f"unknown queue: {request.queue}")
        self._pending.append(request)
        granted = self._drive()
        for container in granted:
            if container.app_id == request.app_id and request not in self._pending:
                return container
        return None

    def release(self, container: Container) -> List[Container]:
        """Free a container and re-drive the queue; returns new grants."""
        if container.container_id not in self._containers:
            raise YarnError(f"unknown container: {container.container_id}")
        del self._containers[container.container_id]
        container.node._release(container)
        return self._drive()

    def _ordered_pending(self) -> List[ResourceRequest]:
        if self.scheduler == "fifo":
            return list(self._pending)

        # Capacity: sort by how far each queue is below its guarantee.
        def headroom(request: ResourceRequest) -> float:
            guaranteed = self.queue_capacity[request.queue] * self.total_vcores
            used = self.vcores_used_by_queue(request.queue)
            return used - guaranteed  # more negative = more underserved

        return sorted(self._pending, key=headroom)

    def _drive(self) -> List[Container]:
        granted: List[Container] = []
        progress = True
        while progress:
            progress = False
            for request in self._ordered_pending():
                node = self._pick_node(request)
                if node is None:
                    if self.scheduler == "fifo":
                        break  # strict ordering: head of line blocks
                    continue
                node._allocate(request)
                container = Container(
                    container_id=next(self._ids), node=node,
                    app_id=request.app_id, vcores=request.vcores,
                    memory_mb=request.memory_mb, queue=request.queue)
                self._containers[container.container_id] = container
                self._pending.remove(request)
                granted.append(container)
                if request.on_grant is not None:
                    request.on_grant(container)
                progress = True
                break
        return granted

    def _pick_node(self, request: ResourceRequest) -> Optional[NodeManager]:
        candidates = [n for n in self._nodes.values() if n.fits(request)]
        if not candidates:
            return None
        # Most-free-first keeps load balanced.
        candidates.sort(key=lambda n: (-n.free_vcores, n.name))
        return candidates[0]
