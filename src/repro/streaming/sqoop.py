"""Bulk import from the relational store into the DFS or a document store.

Mirrors Apache Sqoop's shape: a table import splits the source by primary-key
range into N "mapper" chunks, each written as a ``part-mNNNNN`` CSV file
under a target DFS directory (or inserted into a document collection).

Since the broker refactor the mapper output travels *through the broker*:
each import job produces its splits onto a private per-job topic (rows
keyed by mapper id, so per-mapper order is the broker's per-key order
guarantee) and a manual-commit consumer group drains the topic into the
DFS or collection, committing offsets only after each write lands — the
same at-least-once contract as every other ingestion path in the tree.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List

from repro.dfs import DistributedFileSystem
from repro.runtime import get_runtime
from repro.streaming.broker import Broker
from repro.streaming.rdbms import RelationalDatabase


@dataclass
class ImportReport:
    """Summary of one import job."""

    table: str
    rows: int
    mappers: int
    files: List[str]


def _rows_to_csv(columns, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buffer.getvalue().encode()


def csv_to_rows(payload: bytes) -> List[dict]:
    """Inverse of the import encoding (used by downstream Spark jobs)."""
    reader = csv.reader(io.StringIO(payload.decode()))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


class SqoopImporter:
    """Imports relational tables in parallel key-range chunks.

    Each job runs under a ``streaming.sqoop.import`` span.

    Each importer's private :class:`~repro.streaming.broker.Broker` is the
    transport between the mapper (table-scan) side and the writer side.
    Topics are per-job (``sqoop.<table>-N`` via ``gensym``), so repeated
    imports never collide.
    """

    def __init__(self, database: RelationalDatabase):
        self.database = database
        self.runtime = get_runtime()
        self.broker = Broker()

    def _produce_splits(self, table, table_name: str,
                        num_mappers: int) -> str:
        """Scan the table and produce every split onto a per-job topic.

        Rows are keyed ``mNNNNN`` by mapper, so the broker's per-key
        ordering preserves each mapper's key-range order end to end.
        """
        topic = self.runtime.gensym(f"sqoop.{table_name}")
        self.broker.create_topic(topic, partitions=max(1, num_mappers))
        for mapper, split in enumerate(table.split_ranges(num_mappers)):
            if not split:
                continue
            self.broker.produce_batch(
                topic, [dict(row) for row in split],
                key_fn=lambda row, m=mapper: f"m{m:05d}")
        return topic

    def _drain_by_mapper(self, topic: str,
                         table_name: str) -> Dict[str, List[dict]]:
        """Consume the job topic back, grouped and ordered by mapper key."""
        consumer = self.broker.consumer(
            f"sqoop-writer-{table_name}", topic, auto_commit=False)
        grouped: Dict[str, List[dict]] = {}
        try:
            while True:
                batch = consumer.poll_batch(500)
                if not batch:
                    break
                for key, rows in batch.groups():
                    grouped.setdefault(key, []).extend(rows.values)
                consumer.commit()
        finally:
            consumer.close()
        return grouped

    def import_table(self, dfs: DistributedFileSystem, table_name: str,
                     target_dir: str, num_mappers: int = 4) -> ImportReport:
        """Table -> ``dfs`` directory of ``part-mNNNNN`` CSV files."""
        table = self.database.table(table_name)
        with self.runtime.tracer.span("streaming.sqoop.import", table=table_name,
                                      target="dfs"):
            topic = self._produce_splits(table, table_name, num_mappers)
            grouped = self._drain_by_mapper(topic, table_name)
            files = []
            rows = 0
            for key in sorted(grouped):
                split = grouped[key]
                path = f"{target_dir}/part-{key}"
                dfs.create(path, _rows_to_csv(table.columns, split))
                files.append(path)
                rows += len(split)
        return ImportReport(table=table_name, rows=rows,
                            mappers=num_mappers, files=files)

    def import_to_collection(self, table_name: str, collection,
                             num_mappers: int = 4) -> ImportReport:
        """Table -> document-store collection (one bulk insert per poll)."""
        table = self.database.table(table_name)
        with self.runtime.tracer.span("streaming.sqoop.import", table=table_name,
                                      target="collection"):
            topic = self._produce_splits(table, table_name, num_mappers)
            consumer = self.broker.consumer(
                f"sqoop-writer-{table_name}", topic, auto_commit=False)
            rows = 0
            try:
                while True:
                    batch = consumer.poll_batch(500)
                    if not batch:
                        break
                    collection.insert_many(batch.values)
                    rows += len(batch)
                    consumer.commit()
            finally:
                consumer.close()
        return ImportReport(table=table_name, rows=rows,
                            mappers=num_mappers, files=[])
