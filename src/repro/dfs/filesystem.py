"""NameNode / DataNode block storage with replication and recovery.

Datanode crash/recover transitions land in the structured event log
(``dfs.datanode_failed`` / ``dfs.datanode_recovered``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.runtime import get_runtime


class DFSError(Exception):
    """Base error for the distributed file system."""


class FileNotFound(DFSError):
    """Raised when a path does not exist in the namespace."""


class FileAlreadyExists(DFSError):
    """Raised when creating a path that already exists."""


class NotEnoughReplicas(DFSError):
    """Raised when fewer live datanodes exist than the replication factor
    requires, or when every replica of a block is dead."""


@dataclass
class FileStatus:
    """Metadata for one file."""

    path: str
    size: int
    block_ids: List[int]
    replication: int


@dataclass
class BlockReport:
    """Replication health of one block."""

    block_id: int
    live_replicas: int
    expected_replicas: int

    @property
    def under_replicated(self) -> bool:
        return self.live_replicas < self.expected_replicas

    @property
    def lost(self) -> bool:
        return self.live_replicas == 0


class DataNode:
    """Stores block payloads in memory; ``alive`` models crashes."""

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        self._blocks: Dict[int, bytes] = {}

    @property
    def used_bytes(self) -> int:
        return sum(len(data) for data in self._blocks.values())

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def store(self, block_id: int, data: bytes) -> None:
        if not self.alive:
            raise DFSError(f"datanode {self.name} is down")
        self._blocks[block_id] = data

    def read(self, block_id: int) -> bytes:
        if not self.alive:
            raise DFSError(f"datanode {self.name} is down")
        try:
            return self._blocks[block_id]
        except KeyError:
            raise DFSError(
                f"datanode {self.name} has no block {block_id}") from None

    def drop(self, block_id: int) -> None:
        self._blocks.pop(block_id, None)


class NameNode:
    """Namespace plus block-location map; picks replication targets."""

    def __init__(self, replication: int = 3, block_size: int = 64 * 1024):
        if replication < 1:
            raise ValueError(f"replication must be >= 1: {replication}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1: {block_size}")
        self.replication = replication
        self.block_size = block_size
        self._files: Dict[str, FileStatus] = {}
        self._locations: Dict[int, Set[str]] = {}
        self._datanodes: Dict[str, DataNode] = {}
        self._block_counter = itertools.count()

    # -- membership ---------------------------------------------------------
    def register_datanode(self, node: DataNode) -> None:
        if node.name in self._datanodes:
            raise ValueError(f"duplicate datanode: {node.name}")
        self._datanodes[node.name] = node

    def datanode(self, name: str) -> DataNode:
        try:
            return self._datanodes[name]
        except KeyError:
            raise KeyError(f"unknown datanode: {name}") from None

    def live_datanodes(self) -> List[DataNode]:
        return [n for n in self._datanodes.values() if n.alive]

    # -- namespace ------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def stat(self, path: str) -> FileStatus:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def listdir(self, prefix: str = "/") -> List[str]:
        if not prefix.endswith("/"):
            prefix = prefix + "/"
        return sorted(p for p in self._files
                      if p.startswith(prefix) or p == prefix.rstrip("/"))

    def allocate_block(self) -> int:
        return next(self._block_counter)

    def choose_targets(self, count: int,
                       exclude: Sequence[str] = ()) -> List[DataNode]:
        """Least-loaded live datanodes, excluding ``exclude``."""
        candidates = [n for n in self.live_datanodes() if n.name not in exclude]
        if len(candidates) < count:
            raise NotEnoughReplicas(
                f"need {count} datanodes, only {len(candidates)} live")
        candidates.sort(key=lambda n: (n.used_bytes, n.name))
        return candidates[:count]

    def record_file(self, status: FileStatus) -> None:
        self._files[status.path] = status

    def record_replica(self, block_id: int, datanode_name: str) -> None:
        self._locations.setdefault(block_id, set()).add(datanode_name)

    def forget_replica(self, block_id: int, datanode_name: str) -> None:
        self._locations.get(block_id, set()).discard(datanode_name)

    def replicas(self, block_id: int) -> Set[str]:
        return set(self._locations.get(block_id, set()))

    def live_replicas(self, block_id: int) -> List[DataNode]:
        return [self._datanodes[name] for name in self.replicas(block_id)
                if self._datanodes[name].alive]

    def remove_file(self, path: str) -> FileStatus:
        status = self.stat(path)
        del self._files[path]
        return status

    def block_reports(self) -> List[BlockReport]:
        reports = []
        for status in self._files.values():
            for block_id in status.block_ids:
                reports.append(BlockReport(
                    block_id=block_id,
                    live_replicas=len(self.live_replicas(block_id)),
                    expected_replicas=status.replication))
        return reports


class DistributedFileSystem:
    """Client facade: create / read / append / delete plus recovery.

    Example
    -------
    >>> dfs = DistributedFileSystem.with_datanodes(4, replication=2)
    >>> dfs.create("/videos/cam0.dat", b"frame-bytes" * 100)
    >>> dfs.read("/videos/cam0.dat")[:11]
    b'frame-bytes'
    """

    def __init__(self, namenode: NameNode):
        self.namenode = namenode
        self.runtime = get_runtime()

    @classmethod
    def with_datanodes(cls, count: int, replication: int = 3,
                       block_size: int = 64 * 1024
                       ) -> "DistributedFileSystem":
        if count < replication:
            raise ValueError(
                f"{count} datanodes cannot satisfy replication {replication}")
        namenode = NameNode(replication=replication, block_size=block_size)
        for index in range(count):
            namenode.register_datanode(
                DataNode(f"datanode-{index}"))
        return cls(namenode)

    @property
    def datanodes(self) -> List[DataNode]:
        return list(self.namenode._datanodes.values())

    # -- file operations ---------------------------------------------------------
    def create(self, path: str, data: bytes) -> FileStatus:
        if self.namenode.exists(path):
            raise FileAlreadyExists(path)
        replication = self.namenode.replication
        block_ids = []
        for start in range(0, max(len(data), 1), self.namenode.block_size):
            chunk = data[start:start + self.namenode.block_size]
            block_id = self.namenode.allocate_block()
            targets = self.namenode.choose_targets(replication)
            for node in targets:
                node.store(block_id, chunk)
                self.namenode.record_replica(block_id, node.name)
            block_ids.append(block_id)
        status = FileStatus(path=path, size=len(data),
                            block_ids=block_ids, replication=replication)
        self.namenode.record_file(status)
        return status

    def read(self, path: str) -> bytes:
        status = self.namenode.stat(path)
        parts = []
        for block_id in status.block_ids:
            live = self.namenode.live_replicas(block_id)
            if not live:
                raise NotEnoughReplicas(
                    f"all replicas of block {block_id} ({path}) are dead")
            parts.append(live[0].read(block_id))
        return b"".join(parts)

    def append(self, path: str, data: bytes) -> FileStatus:
        """Append by writing new blocks (no partial-block fill, like HDFS v1)."""
        status = self.namenode.stat(path)
        for start in range(0, len(data), self.namenode.block_size):
            chunk = data[start:start + self.namenode.block_size]
            block_id = self.namenode.allocate_block()
            targets = self.namenode.choose_targets(status.replication)
            for node in targets:
                node.store(block_id, chunk)
                self.namenode.record_replica(block_id, node.name)
            status.block_ids.append(block_id)
        status.size += len(data)
        return status

    def delete(self, path: str) -> None:
        status = self.namenode.remove_file(path)
        for block_id in status.block_ids:
            for name in self.namenode.replicas(block_id):
                self.namenode.datanode(name).drop(block_id)
                self.namenode.forget_replica(block_id, name)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def stat(self, path: str) -> FileStatus:
        return self.namenode.stat(path)

    def listdir(self, prefix: str = "/") -> List[str]:
        return self.namenode.listdir(prefix)

    # -- failure handling -----------------------------------------------------------
    def fail_datanode(self, name: str) -> None:
        self.namenode.datanode(name).alive = False
        self.runtime.events.emit("dfs.datanode_failed", node=name)

    def recover_datanode(self, name: str) -> None:
        self.namenode.datanode(name).alive = True
        self.runtime.events.emit("dfs.datanode_recovered", node=name)

    def under_replicated(self) -> List[BlockReport]:
        return [r for r in self.namenode.block_reports() if r.under_replicated]

    def re_replicate(self) -> int:
        """Copy every under-replicated block to fresh datanodes.

        Returns the number of new replicas created.  Blocks with zero live
        replicas are unrecoverable and skipped (surfaced by
        :meth:`under_replicated`).
        """
        created = 0
        for report in self.under_replicated():
            live = self.namenode.live_replicas(report.block_id)
            if not live:
                continue
            source = live[0]
            data = source.read(report.block_id)
            existing = {n.name for n in live}
            missing = report.expected_replicas - len(live)
            try:
                targets = self.namenode.choose_targets(missing, exclude=existing)
            except NotEnoughReplicas:
                continue
            for node in targets:
                node.store(report.block_id, data)
                self.namenode.record_replica(report.block_id, node.name)
                created += 1
        return created

    def total_bytes_stored(self) -> int:
        return sum(node.used_bytes for node in self.datanodes)
