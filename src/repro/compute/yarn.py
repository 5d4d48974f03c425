"""YARN-style cluster resource management.

A :class:`ResourceManager` owns a set of :class:`NodeManager` machines and
grants :class:`Container` leases against their vcore/memory capacity.
Requests that cannot be placed are queued; releasing capacity re-drives the
queue in strict arrival order (Hadoop's FIFO scheduler): a request that
does not fit blocks the ones behind it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class YarnError(Exception):
    """Raised for invalid scheduling requests."""


@dataclass
class ResourceRequest:
    """A pending container request."""

    app_id: str
    vcores: int
    memory_mb: int


@dataclass
class Container:
    """A granted lease of vcores/memory on one node."""

    container_id: int
    node: "NodeManager"
    app_id: str
    vcores: int
    memory_mb: int


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
    """Grants containers; queues what does not fit, first in first out."""

    def __init__(self):
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

        Returns the container granted to *this* request, or None if it is
        queued.  Requests queued ahead of it may be granted by the same
        call (a node joined since they queued).
        """
        if request.vcores < 1 or request.memory_mb < 1:
            raise YarnError("requests need positive resources")
        self._pending.append(request)
        for granted_request, container in self._drive():
            if granted_request is request:
                return container
        return None

    def release(self, container: Container) -> List[Container]:
        """Free a container and re-drive the queue; returns new grants."""
        if container.container_id not in self._containers:
            raise YarnError(f"unknown container: {container.container_id}")
        del self._containers[container.container_id]
        container.node._release(container)
        return [granted for _, granted in self._drive()]

    def _drive(self) -> List[Tuple[ResourceRequest, Container]]:
        """Grant queued requests in arrival order until the head does not fit."""
        granted: List[Tuple[ResourceRequest, Container]] = []
        while self._pending:
            request = self._pending[0]
            node = self._pick_node(request)
            if node is None:
                break  # strict ordering: head of line blocks
            node._allocate(request)
            container = Container(
                container_id=next(self._ids), node=node,
                app_id=request.app_id, vcores=request.vcores,
                memory_mb=request.memory_mb)
            self._containers[container.container_id] = container
            del self._pending[0]
            granted.append((request, container))
        return granted

    def _pick_node(self, request: ResourceRequest) -> Optional[NodeManager]:
        candidates = [n for n in self._nodes.values() if n.fits(request)]
        if not candidates:
            return None
        # Most-free-first keeps load balanced.
        candidates.sort(key=lambda n: (-n.free_vcores, n.name))
        return candidates[0]
