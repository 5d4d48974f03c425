"""Behaviour ledger, tier-1 half: dumps and decisions of fixed-seed runs.

Two short runs, each under its own seeded :class:`Runtime`:

- a Fig. 4 collection pass (three feeds through Flume, the broker, the
  document store, the Spark aggregation and the chart);
- a camera path: three cameras publish 32x32 frames to a broker topic,
  ``pump_topic`` drains it through a ``ServingGateway`` into a two-tier
  early-exit deployment (a third of the rows escalate).  The frames are
  large enough that the inference conv works in several bands
  (``nn.functional.conv_bands``).

Each run contributes ``deterministic_dump()`` (serving's volatile
families dropped) and, for the camera path, the per-row decisions.  See
:mod:`tests.ledger` for the rendering and how to update the ledger.
"""

import asyncio

import numpy as np

from repro import nn
from repro.core import CyberInfrastructure, InfraConfig
from repro.data import OpenCityData, TweetGenerator, WazeGenerator
from repro.fog import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import Runtime, deterministic_dump, using_runtime
from repro.serving import (
    VOLATILE_METRIC_PREFIXES,
    GatewayConfig,
    ServingGateway,
    pump_topic,
)
from repro.streaming import Broker

from tests import ledger

CAMERAS = {"cam-a": 40, "cam-b": 56, "cam-c": 24}
FRAME = (1, 32, 32)


def fig4_pass() -> dict:
    with using_runtime(Runtime(seed=11)) as runtime:
        city = OpenCityData(seed=0)
        crimes = city.crime_incidents(days=6)
        tweets = [t.as_document()
                  for t in TweetGenerator(num_users=40, seed=0).chatter(150)]
        reports = WazeGenerator(seed=0).reports(90)
        infra = CyberInfrastructure(InfraConfig(
            edges_per_fog=2, fogs_per_server=2, servers=1,
            datanodes=3, dfs_replication=2))
        infra.register_source("crimes", lambda: list(crimes))
        infra.register_source("tweets", lambda: list(tweets))
        infra.register_source("waze", lambda: list(reports))
        report = infra.run_collection_pipeline(analysis_field="district")
        summary = {"ingested": report.records_ingested,
                   "stored": report.records_stored,
                   "analysis_rows": report.analysis_rows,
                   "chart": infra.last_visualization}
        return {"dump: Fig. 4 pass": ledger.canonical(
                    deterministic_dump(runtime)),
                "decisions: Fig. 4 pass": ledger.canonical(summary)}


def _model(rng=None) -> EarlyExitNetwork:
    # flatten heads, not GAP: a decision must depend on where in the map
    # a feature lands, or a band written to the wrong rows would not show
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU(),
            nn.MaxPool2d(2)),
        local_head=nn.Sequential(nn.Flatten(), nn.Linear(1024, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU(),
            nn.MaxPool2d(2)),
        remote_head=nn.Sequential(nn.Flatten(), nn.Linear(512, 3, rng=rng)))


async def _drain(deployment, broker):
    gateway = ServingGateway(
        deployment, ScoreThresholdPolicy(0.6),
        GatewayConfig(coalesce_window_s=0.0, max_batch_rows=64))
    async with gateway.running():
        served, shed = await pump_topic(gateway, broker, "frames",
                                        poll_size=64)
    return served, shed, gateway.stats()


def camera_path() -> dict:
    with using_runtime(Runtime(seed=5)) as runtime:
        deployment = TwoTierDeployment(
            _model, ["local_stage", "local_head"],
            ["remote_stage", "remote_head"], fuse_inference=True,
            inference_dtype=np.float32)
        deployment.deploy(_model(runtime.rng.np_child("ledger.model")))
        broker = Broker()
        broker.create_topic("frames", partitions=2)
        frames = runtime.rng.np_child("ledger.frames")
        for camera, count in CAMERAS.items():
            broker.produce_batch(
                "frames",
                list(frames.normal(size=(count,) + FRAME).astype(np.float32)),
                key_fn=lambda frame, camera=camera: camera)
        served, shed, stats = asyncio.run(_drain(deployment, broker))
        broker.close()
        decisions = {
            camera: [[int(e), int(p)]
                     for d in served[camera]
                     for e, p in zip(d.exit_index, d.predictions)]
            for camera in sorted(served)}
        stats = {key: stats[key] for key in (
            "submitted", "answered", "shed", "failed", "cancelled",
            "batches")}
        return {"dump: camera path": ledger.canonical(deterministic_dump(
                    runtime, drop_metric_prefixes=VOLATILE_METRIC_PREFIXES)),
                "decisions: camera path": ledger.canonical(
                    {"decisions": decisions, "shed": shed, "stats": stats})}


def test_dumps_and_decisions_match_the_ledger():
    renderings = {**fig4_pass(), **camera_path()}
    ledger.check({name: ledger.digest(text)
                  for name, text in renderings.items()},
                 prefixes=("dump: ", "decisions: "))
