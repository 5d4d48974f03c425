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

``run_collection_pipeline`` executes the Fig. 4 flow for a batch of feeds:
sources -> transactional ingestion -> NoSQL -> a Spark aggregation -> a
visualization payload, returning per-stage record counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.cluster.machines import NetworkTopology, Tier
from repro.compute.rdd import SparkContext
from repro.compute.yarn import NodeManager, ResourceManager
from repro.dfs import DistributedFileSystem
from repro.nosql import DocumentStore, HTable
from repro.streaming import (
    BACKPRESSURE_POLICIES,
    Broker,
    Channel,
    FlumeAgent,
    FunctionSource,
    broker_sink,
)
from repro.viz.exporters import bar_chart_svg, timeseries_json


@dataclass
class InfraConfig:
    """Sizing knobs for the simulated deployment."""

    edges_per_fog: int = 4
    fogs_per_server: int = 2
    servers: int = 2
    datanodes: int = 4
    dfs_replication: int = 2
    dfs_block_size: int = 64 * 1024
    bus_partitions: int = 4
    #: bound per source-topic partition; None = unbounded (the default,
    #: so late-joining consumer groups can always replay a full feed)
    bus_partition_capacity: Optional[int] = None
    #: broker policy when a bounded partition fills: block | drop | error
    bus_backpressure: str = "block"
    #: bound per camera-frame partition (frames are large; keep it tight)
    camera_partition_capacity: int = 256
    yarn_vcores_per_server: int = 8
    yarn_memory_mb_per_server: int = 32_768

    def __post_init__(self):
        if self.datanodes < self.dfs_replication:
            raise ValueError(
                f"{self.datanodes} datanodes cannot hold "
                f"{self.dfs_replication} replicas")
        if self.bus_backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown bus_backpressure {self.bus_backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}")
        if self.bus_partition_capacity is not None \
                and self.bus_partition_capacity < 1:
            raise ValueError(
                f"bus_partition_capacity must be >= 1: "
                f"{self.bus_partition_capacity}")
        if self.camera_partition_capacity < 1:
            raise ValueError(
                f"camera_partition_capacity must be >= 1: "
                f"{self.camera_partition_capacity}")


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
                server.name, vcores=cfg.yarn_vcores_per_server,
                memory_mb=cfg.yarn_memory_mb_per_server))
        # Software layer: storage.
        self.dfs = DistributedFileSystem.with_datanodes(
            cfg.datanodes, replication=cfg.dfs_replication,
            block_size=cfg.dfs_block_size)
        self.documents = DocumentStore("smartcity")
        self._htables: Dict[str, HTable] = {}
        # Software layer: streaming + compute.
        self.bus = Broker()
        self.spark = SparkContext(default_parallelism=4)
        self._sources: Dict[str, Callable[[], Iterable[Dict]]] = {}

    # -- storage helpers ---------------------------------------------------------
    def htable(self, name: str, families: Sequence[str] = ("d",)) -> HTable:
        """Get or create a wide-column table backed by the DFS."""
        if name not in self._htables:
            self._htables[name] = HTable(name, self.dfs, families=families)
        return self._htables[name]

    def collection(self, name: str):
        return self.documents.collection(name)

    # -- data layer registration ---------------------------------------------------
    def register_source(self, name: str,
                        records: Callable[[], Iterable[Dict]]) -> None:
        """Register a feed; ``records`` is called at collection time."""
        if name in self._sources:
            raise ValueError(f"source already registered: {name}")
        self._sources[name] = records
        if name not in self.bus.topic_names():
            self.bus.create_topic(
                name, partitions=self.config.bus_partitions,
                max_partition_records=self.config.bus_partition_capacity,
                backpressure=self.config.bus_backpressure)

    def source_names(self) -> List[str]:
        return sorted(self._sources)

    # -- the Fig. 4 pipeline -----------------------------------------------------------
    def run_collection_pipeline(self,
                                analysis_field: str = "district"
                                ) -> PipelineRunReport:
        """Collect every registered source, store, analyze, visualize.

        Each source flows through a transactional Flume agent *onto its
        broker topic*; a manual-commit ``storage`` consumer group drains
        the topic into the document collection, committing offsets only
        after the inserts land.  Producer and storage consumer are pumped
        in lockstep, so bounded topics backpressure the Flume channel
        (and through it the source) instead of overflowing.  A Spark job
        then aggregates all stored records by ``analysis_field``; the
        result is rendered to a bar-chart SVG (the web layer's input).
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
        rows = []
        for name in self._sources:
            for document in self.collection(name).find({}):
                value = document.get(analysis_field)
                if value is not None:
                    rows.append((value, 1))
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

    def _ingest_source(self, name: str, records: List[Dict], coll,
                       max_cycles: int = 10_000) -> int:
        """Source -> Flume -> broker topic -> storage group -> collection.

        Returns the number of events the agent delivered to the broker.
        The storage consumer is pumped inside the same loop so a bounded
        topic drains as fast as it fills.  Every hop moves a batch: the
        agent produces each transaction as one column append, the group
        polls a :class:`~repro.streaming.RecordBatch`, and its value
        column goes to one all-or-nothing ``insert_many``; offsets commit
        only after that insert lands (at-least-once into storage — an
        insert that raises leaves them where they were).
        """
        agent = FlumeAgent(
            FunctionSource(records),
            broker_sink(self.bus, name),
            channel=Channel(capacity=max(len(records), 1)),
            batch_size=25)
        storage = self.bus.consumer("storage", [name], auto_commit=False)
        try:
            for _ in range(max_cycles):
                agent.pump_source(agent.batch_size)
                agent.pump_sink()
                batch = storage.poll_batch(4 * agent.batch_size)
                if batch:
                    coll.insert_many(batch.values)
                    storage.commit()
                if (agent.source_exhausted
                        and len(agent.channel) == 0 and not batch):
                    break
        finally:
            storage.close()
        return agent.metrics.events_delivered

    # -- camera -> fog glue ---------------------------------------------------------
    CAMERA_TOPIC = "camera.frames"

    def attach_camera_feed(self) -> str:
        """Ensure the bounded, shared-memory camera-frame topic exists.

        Frames of ``shm_min_bytes`` (64 KiB) or more are staged in shared
        memory (consumers get zero-copy read-only views); a 16x16 frame
        is 1 KiB and is stored as is.  Each partition is bounded at
        ``camera_partition_capacity`` so a stalled fog tier backpressures
        the cameras instead of buffering frames without limit.
        """
        if self.CAMERA_TOPIC not in self.bus.topic_names():
            self.bus.create_topic(
                self.CAMERA_TOPIC, partitions=self.config.bus_partitions,
                max_partition_records=self.config.camera_partition_capacity,
                backpressure=self.config.bus_backpressure,
                share_ndarrays=True)
        return self.CAMERA_TOPIC

    def publish_camera_frames(self, camera_id: str, frames) -> int:
        """Produce a camera's frames, keyed by camera (per-camera order)."""
        topic = self.attach_camera_feed()
        produced = self.bus.produce_batch(
            topic, list(frames), key_fn=lambda frame: camera_id)
        return len(produced)

    def serve_camera_streams(self, deployment, policy,
                             group: str = "fog-serving",
                             poll_size: int = 256,
                             gateway_config=None) -> Dict[str, List]:
        """Drain camera frames through a two-tier fog deployment.

        Routes ``camera.frames`` through the serving gateway
        (:func:`repro.serving.serve_camera_topic`): each poll is
        regrouped per camera (sorted, so results are deterministic),
        submitted per camera with the camera id as the tenant, coalesced
        into micro-batches, and served; offsets commit only after every
        camera in the poll resolved.  Returns
        {camera_id: [BatchExitDecisions, ...]}.  ``gateway_config`` (a
        :class:`repro.serving.GatewayConfig`) turns on admission control
        and rate limits; the default never sheds.
        """
        from repro.serving import serve_camera_topic

        topic = self.attach_camera_feed()
        return serve_camera_topic(deployment, policy, self.bus, topic,
                                  group=group, poll_size=poll_size,
                                  config=gateway_config)

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
                "htables": sorted(self._htables),
                "collections": self.documents.collection_names(),
                "bus_topics": self.bus.topic_names(),
            },
            "application": {
                "supported": ["vehicle-detection", "action-recognition",
                              "social-network-analysis", "multimodal-fusion",
                              "drl-camera-control"],
            },
        }
