"""HBase-style wide-column store over the distributed file system.

Data model: ``table[row_key][(family, qualifier)] -> (value, timestamp)``.
Writes land in a sorted in-memory *memstore*; when it exceeds a threshold it
is flushed as an immutable, sorted *HFile* into :mod:`repro.dfs`.  Reads
merge the memstore with HFiles newest-first.  Deletes write tombstones;
*compaction* merges all HFiles, keeping only the newest version per cell and
dropping tombstoned cells.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dfs import DistributedFileSystem
from repro.runtime import get_runtime


class HBaseError(Exception):
    """Raised for invalid table operations."""


@dataclass(frozen=True)
class Cell:
    """One versioned cell."""

    row: str
    family: str
    qualifier: str
    value: bytes
    timestamp: int
    tombstone: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.row, self.family, self.qualifier)


def _encode_cells(cells: Sequence[Cell]) -> bytes:
    """Length-prefixed binary encoding of a sorted cell run."""
    parts = [struct.pack(">I", len(cells))]
    for cell in cells:
        row = cell.row.encode()
        family = cell.family.encode()
        qualifier = cell.qualifier.encode()
        parts.append(struct.pack(">HHHIQB", len(row), len(family),
                                 len(qualifier), len(cell.value),
                                 cell.timestamp, int(cell.tombstone)))
        parts.extend([row, family, qualifier, cell.value])
    return b"".join(parts)


def _decode_cells(data: bytes) -> List[Cell]:
    (count,) = struct.unpack_from(">I", data, 0)
    offset = 4
    cells = []
    for _ in range(count):
        row_len, fam_len, qual_len, val_len, timestamp, tombstone = \
            struct.unpack_from(">HHHIQB", data, offset)
        offset += struct.calcsize(">HHHIQB")
        row = data[offset:offset + row_len].decode()
        offset += row_len
        family = data[offset:offset + fam_len].decode()
        offset += fam_len
        qualifier = data[offset:offset + qual_len].decode()
        offset += qual_len
        value = data[offset:offset + val_len]
        offset += val_len
        cells.append(Cell(row, family, qualifier, value, timestamp,
                          bool(tombstone)))
    return cells


class HTable:
    """One wide-column table with declared column families.

    Example
    -------
    >>> dfs = DistributedFileSystem.with_datanodes(3, replication=2)
    >>> table = HTable("crimes", dfs, families=("info", "geo"))
    >>> table.put("incident-001", "info", "type", b"robbery")
    >>> table.get("incident-001")[("info", "type")]
    b'robbery'
    """

    def __init__(self, name: str, dfs: DistributedFileSystem,
                 families: Sequence[str],
                 memstore_flush_cells: int = 1000):
        if not families:
            raise HBaseError("a table needs at least one column family")
        if memstore_flush_cells < 1:
            raise HBaseError("memstore_flush_cells must be >= 1")
        self.name = name
        self.dfs = dfs
        self.families = tuple(families)
        self.memstore_flush_cells = memstore_flush_cells
        self._memstore: Dict[Tuple[str, str, str], Cell] = {}
        self._hfile_paths: List[str] = []   # oldest first
        self._hfile_cache: Dict[str, List[Cell]] = {}
        self._clock = 0
        self._flush_count = 0
        self.runtime = get_runtime()

    # -- write path -----------------------------------------------------------
    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _check_family(self, family: str) -> None:
        if family not in self.families:
            raise HBaseError(
                f"unknown column family {family!r}; declared: {self.families}")

    def put(self, row: str, family: str, qualifier: str, value: bytes) -> None:
        self._check_family(family)
        if not isinstance(value, bytes):
            raise HBaseError(f"values must be bytes, got {type(value).__name__}")
        cell = Cell(row, family, qualifier, value, self._tick())
        self._memstore[cell.key] = cell
        if len(self._memstore) >= self.memstore_flush_cells:
            self.flush()

    def delete(self, row: str, family: str, qualifier: str) -> None:
        self._check_family(family)
        cell = Cell(row, family, qualifier, b"", self._tick(), tombstone=True)
        self._memstore[cell.key] = cell
        if len(self._memstore) >= self.memstore_flush_cells:
            self.flush()

    def flush(self) -> Optional[str]:
        """Write the memstore to a new HFile in the DFS; returns its path."""
        if not self._memstore:
            return None
        with self.runtime.tracer.span("nosql.hbase.flush", table=self.name):
            cells = sorted(self._memstore.values(), key=lambda c: c.key)
            path = f"/hbase/{self.name}/hfile-{self._flush_count:06d}"
            self._flush_count += 1
            self.dfs.create(path, _encode_cells(cells))
            self._hfile_paths.append(path)
            self._hfile_cache[path] = cells
            self._memstore.clear()
        return path

    # -- read path --------------------------------------------------------------
    def _hfile_cells(self, path: str) -> List[Cell]:
        if path not in self._hfile_cache:
            self._hfile_cache[path] = _decode_cells(self.dfs.read(path))
        return self._hfile_cache[path]

    def _latest_cells_for_row(self, row: str) -> Dict[Tuple[str, str], Cell]:
        """Newest non-tombstone version per (family, qualifier) for ``row``."""
        winners: Dict[Tuple[str, str], Cell] = {}

        def consider(cell: Cell):
            key = (cell.family, cell.qualifier)
            current = winners.get(key)
            if current is None or cell.timestamp > current.timestamp:
                winners[key] = cell

        for path in self._hfile_paths:
            for cell in self._hfile_cells(path):
                if cell.row == row:
                    consider(cell)
        for cell in self._memstore.values():
            if cell.row == row:
                consider(cell)
        return {key: cell for key, cell in winners.items() if not cell.tombstone}

    def get(self, row: str, family: Optional[str] = None
            ) -> Dict[Tuple[str, str], bytes]:
        """Latest values for a row: {(family, qualifier): value}."""
        if family is not None:
            self._check_family(family)
        cells = self._latest_cells_for_row(row)
        return {key: cell.value for key, cell in cells.items()
                if family is None or key[0] == family}

    def get_value(self, row: str, family: str, qualifier: str
                  ) -> Optional[bytes]:
        return self.get(row, family).get((family, qualifier))

    def scan(self, start_row: str = "", stop_row: Optional[str] = None
             ) -> Iterator[Tuple[str, Dict[Tuple[str, str], bytes]]]:
        """Rows in key order within [start_row, stop_row)."""
        rows = set()
        for path in self._hfile_paths:
            rows.update(c.row for c in self._hfile_cells(path))
        rows.update(c.row for c in self._memstore.values())
        for row in sorted(rows):
            if row < start_row:
                continue
            if stop_row is not None and row >= stop_row:
                break
            values = self.get(row)
            if values:
                yield row, values

    def row_count(self) -> int:
        return sum(1 for _ in self.scan())

    # -- maintenance ---------------------------------------------------------------
    @property
    def hfile_count(self) -> int:
        return len(self._hfile_paths)

    @property
    def memstore_size(self) -> int:
        return len(self._memstore)

    def compact(self) -> Optional[str]:
        """Major compaction: merge all HFiles, dropping stale versions and
        tombstones; returns the new file's path (None if nothing to do)."""
        if not self._hfile_paths:
            return None
        with self.runtime.tracer.span("nosql.hbase.compact", table=self.name):
            winners: Dict[Tuple[str, str, str], Cell] = {}
            for path in self._hfile_paths:
                for cell in self._hfile_cells(path):
                    current = winners.get(cell.key)
                    if current is None or cell.timestamp > current.timestamp:
                        winners[cell.key] = cell
            survivors = sorted(
                (c for c in winners.values() if not c.tombstone),
                key=lambda c: c.key)
            for path in self._hfile_paths:
                self.dfs.delete(path)
                self._hfile_cache.pop(path, None)
            self._hfile_paths.clear()
            path = f"/hbase/{self.name}/hfile-{self._flush_count:06d}"
            self._flush_count += 1
            self.dfs.create(path, _encode_cells(survivors))
            self._hfile_paths.append(path)
            self._hfile_cache[path] = survivors
        return path
