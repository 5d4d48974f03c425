"""The four-layer cyberinfrastructure of Fig. 1, assembled end-to-end.

:class:`CyberInfrastructure` wires every substrate this repository builds
into the architecture the paper describes:

- **data layer** — synthetic feeds (cameras, tweets, Waze, open city data,
  law-enforcement transfers) registered as sources;
- **hardware layer** — the simulated four-tier fog topology plus the YARN
  cluster behind the analysis servers;
- **software layer** — DFS + HBase + document store for storage, Flume
  agents and the message bus for ingestion, the Spark-like engine for
  mining, ``repro.nn`` for deep learning, and the viz exporters;
- **application layer** — deploy hooks for the Sec. IV applications.
  Camera frames reach a fog deployment through
  :func:`repro.serving.pump_topic` over a topic the caller builds, not
  through this class.

``run_collection_pipeline`` executes the Fig. 4 flow for a batch of feeds:
sources -> at-least-once ingestion -> NoSQL -> a Spark aggregation -> a
visualization payload, returning per-stage record counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.cluster.machines import NetworkTopology, Tier
from repro.compute.rdd import SparkContext
from repro.compute.yarn import NodeManager, ResourceManager
from repro.dfs import DistributedFileSystem
from repro.nosql import DocumentStore
from repro.streaming import (
    BackpressureError,
    Broker,
    Channel,
    FlumeAgent,
    FunctionSource,
    broker_sink,
)
from repro.viz.exporters import bar_chart_svg


#: bytes per DFS block
DFS_BLOCK_SIZE = 64 * 1024
#: partitions per source topic
BUS_PARTITIONS = 4
#: capacity each analysis server offers YARN
YARN_VCORES_PER_SERVER = 8
YARN_MEMORY_MB_PER_SERVER = 32_768


@dataclass
class InfraConfig:
    """Sizing knobs for the simulated deployment."""

    edges_per_fog: int = 4
    fogs_per_server: int = 2
    servers: int = 2
    datanodes: int = 4
    dfs_replication: int = 2

    def __post_init__(self):
        if self.datanodes < self.dfs_replication:
            raise ValueError(
                f"{self.datanodes} datanodes cannot hold "
                f"{self.dfs_replication} replicas")


@dataclass
class PipelineRunReport:
    """Per-stage accounting of one Fig. 4 collection pass."""

    records_ingested: Dict[str, int] = field(default_factory=dict)
    records_stored: Dict[str, int] = field(default_factory=dict)
    analysis_rows: int = 0
    viz_bytes: int = 0

    @property
    def total_ingested(self) -> int:
        return sum(self.records_ingested.values())


class CyberInfrastructure:
    """All four layers, ready for ingestion, analysis, and deployment."""

    def __init__(self, config: Optional[InfraConfig] = None):
        self.config = config or InfraConfig()
        cfg = self.config
        # Hardware layer.
        self.topology = NetworkTopology.build_fog_hierarchy(
            edges_per_fog=cfg.edges_per_fog,
            fogs_per_server=cfg.fogs_per_server,
            servers=cfg.servers)
        self.yarn = ResourceManager()
        for server in self.topology.machines(Tier.SERVER):
            self.yarn.register_node(NodeManager(
                server.name, vcores=YARN_VCORES_PER_SERVER,
                memory_mb=YARN_MEMORY_MB_PER_SERVER))
        # Software layer: storage.
        self.dfs = DistributedFileSystem.with_datanodes(
            cfg.datanodes, replication=cfg.dfs_replication,
            block_size=DFS_BLOCK_SIZE)
        self.documents = DocumentStore("smartcity")
        # Software layer: streaming + compute.
        self.bus = Broker()
        self.spark = SparkContext(default_parallelism=4)
        self._sources: Dict[str, Callable[[], Iterable[Dict]]] = {}

    # -- storage helpers ---------------------------------------------------------
    def collection(self, name: str):
        return self.documents.collection(name)

    # -- data layer registration ---------------------------------------------------
    def register_source(self, name: str,
                        records: Callable[[], Iterable[Dict]]) -> None:
        """Register a feed; ``records`` is called at collection time.

        The feed's topic is created unbounded, so late-joining consumer
        groups can always replay a full feed; a topic of that name that
        already exists is kept as it is.
        """
        if name in self._sources:
            raise ValueError(f"source already registered: {name}")
        self._sources[name] = records
        if name not in self.bus.topic_names():
            self.bus.create_topic(name, partitions=BUS_PARTITIONS)

    def source_names(self) -> List[str]:
        return sorted(self._sources)

    # -- the Fig. 4 pipeline -----------------------------------------------------------
    def run_collection_pipeline(self,
                                analysis_field: str = "district"
                                ) -> PipelineRunReport:
        """Collect every registered source, store, analyze, visualize.

        Each source flows through a Flume agent *onto its broker topic*; a
        manual-commit ``storage`` consumer group drains the topic into the
        document collection, committing offsets only after the inserts
        land: each cycle one Flume batch, sized from the topic's bounds,
        goes onto the topic and one poll, insert and commit drain it.  A
        Spark job then aggregates all stored records by
        ``analysis_field``, read from the stored documents in place, and
        renders a bar-chart SVG (the web layer's input).
        """
        if not self._sources:
            raise RuntimeError("no sources registered")
        report = PipelineRunReport()
        for name, fetch in self._sources.items():
            records = list(fetch())
            coll = self.collection(name)
            before = len(coll)
            report.records_ingested[name] = self._ingest_source(
                name, records, coll)
            report.records_stored[name] = len(coll) - before
        # Analysis: district-level counts across all stored collections.
        rows = [(value, 1) for name in self._sources
                for document in self.collection(name)
                if (value := document.get(analysis_field)) is not None]
        counts = dict(
            self.spark.parallelize(rows).reduceByKey(lambda a, b: a + b)
            .collect()) if rows else {}
        report.analysis_rows = len(counts)
        svg = bar_chart_svg(
            {str(k): float(v) for k, v in sorted(counts.items())},
            title=f"records by {analysis_field}") if counts else ""
        report.viz_bytes = len(svg.encode())
        self._last_viz = svg
        return report

    def _ingest_source(self, name: str, records: List[Dict], coll) -> int:
        """Source -> Flume -> broker topic -> storage group -> collection.

        Returns the number of events the agent delivered to the broker.
        Each cycle delivers one Flume batch (the unit of atomic delivery:
        it leaves the channel only once the broker has it), then makes one
        storage ``poll_batch``, one all-or-nothing ``insert_many`` and one
        offset commit, so offsets commit only after the insert lands.  The
        ``storage`` group reads each feed's topic through its own member,
        one feed after another.  A batch is the whole channel (the feed),
        capped at ``max_partition_records * partitions`` on a bounded
        topic, and the poll takes the same size:
        round-robin puts at most ``ceil(k / partitions)`` of k rows on a
        partition, so it fits once the committed head is evicted and never
        stalls.  A cycle that
        moves nothing while the channel holds records would repeat forever
        (another group's commits pin the head), so it raises
        :class:`BackpressureError`.
        """
        config = self.bus.topic_config(name)
        bound = config.max_partition_records
        channel = Channel(capacity=max(len(records), 1))
        size = channel.capacity if bound is None else min(
            channel.capacity, bound * config.partitions)
        agent = FlumeAgent(FunctionSource(records),
                           broker_sink(self.bus, name),
                           channel=channel, batch_size=size)
        storage = self.bus.consumer("storage", name, auto_commit=False)
        try:
            while True:
                agent.pump_source(size)
                delivered = agent.pump_sink()
                batch = storage.poll_batch(size)
                if batch:
                    coll.insert_many(batch.values)
                    storage.commit()
                elif not delivered:
                    if len(agent.channel):
                        undelivered = (len(records)
                                       - agent.metrics.events_delivered)
                        raise BackpressureError(
                            f"topic {name}: {undelivered} records "
                            f"undelivered and no room will free up")
                    break
        finally:
            storage.close()
        return agent.metrics.events_delivered

    @property
    def last_visualization(self) -> str:
        return getattr(self, "_last_viz", "")

    # -- introspection --------------------------------------------------------------
    def describe_layers(self) -> Dict[str, Dict]:
        """The Fig. 1 inventory: what lives in each layer."""
        return {
            "data": {
                "sources": self.source_names(),
            },
            "hardware": {
                "edge_devices": len(self.topology.machines(Tier.EDGE)),
                "fog_nodes": len(self.topology.machines(Tier.FOG)),
                "analysis_servers": len(self.topology.machines(Tier.SERVER)),
                "cloud_nodes": len(self.topology.machines(Tier.CLOUD)),
                "yarn_vcores": self.yarn.total_vcores,
            },
            "software": {
                "dfs_datanodes": len(self.dfs.datanodes),
                "dfs_replication": self.dfs.namenode.replication,
                # an ``HTable`` is built on ``self.dfs`` by its user; no
                # pipeline stage here owns one
                "htables": [],
                "collections": self.documents.collection_names(),
                "bus_topics": self.bus.topic_names(),
            },
            "application": {
                "supported": ["vehicle-detection", "action-recognition",
                              "social-network-analysis", "multimodal-fusion",
                              "drl-camera-control"],
            },
        }
