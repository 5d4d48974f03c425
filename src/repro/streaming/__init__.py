"""Data ingestion substrates (Sec. II-C-2).

- :mod:`repro.streaming.rdbms` — a minimal relational table store standing
  in for the "legacy database systems" the paper imports from.
- :mod:`repro.streaming.sqoop` — bulk RDBMS -> DFS/document-store import
  with parallel mappers (the Apache Sqoop role).
- :mod:`repro.streaming.flume` — source -> channel -> sink agents with
  transactional batches and at-least-once delivery (the Apache Flume role).
- :mod:`repro.streaming.broker` — the Kafka-class pub/sub backbone:
  partitioned topics, consumer groups with committed offsets and
  rebalancing, retention/compaction, backpressure, zero-copy handoff.
"""

from repro.streaming.rdbms import RelationalDatabase, Table, RDBMSError
from repro.streaming.broker import (
    BACKPRESSURE_POLICIES,
    BackpressureError,
    BackpressureStall,
    Broker,
    BrokerError,
    Consumer,
    RebalanceError,
    Record,
    RecordBatch,
    TopicConfig,
)
from repro.streaming.flume import (
    Channel,
    ChannelFullError,
    ConsumerChannel,
    FlumeAgent,
    FunctionSource,
    SinkError,
    broker_sink,
    collection_sink,
    dfs_sink,
    topic_sink,
)
from repro.streaming.sqoop import SqoopImporter

__all__ = [
    "RelationalDatabase", "Table", "RDBMSError",
    "Broker", "Consumer", "Record", "RecordBatch",
    "TopicConfig",
    "BrokerError", "BackpressureError", "BackpressureStall",
    "RebalanceError", "BACKPRESSURE_POLICIES",
    "FlumeAgent", "FunctionSource", "Channel", "ChannelFullError",
    "ConsumerChannel", "SinkError",
    "dfs_sink", "collection_sink", "topic_sink", "broker_sink",
    "SqoopImporter",
]
