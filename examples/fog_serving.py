#!/usr/bin/env python
"""Three cameras served through the gateway by a two-tier deployment.

The serving plane end to end: a small early-exit model is split between a
device and a server (Sec. III-B), three cameras publish frames to a broker
topic, and ``pump_topic`` drains the topic through a ``ServingGateway`` —
one submission per camera per poll, coalesced into batches, each batch one
early-exit inference (the Fig. 5 rule: confident frames are answered on
the device, the rest ship their feature map to the server).

Run:  python examples/fog_serving.py
"""

import asyncio

import numpy as np

from repro import nn
from repro.fog import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.runtime import Runtime, using_runtime
from repro.serving import GatewayConfig, ServingGateway, pump_topic
from repro.streaming import Broker

TOPIC = "camera.frames"
CAMERAS = {"cam-north": 24, "cam-south": 40, "cam-west": 16}


def build_model(rng=None) -> EarlyExitNetwork:
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)))


async def serve(deployment, policy, broker):
    gateway = ServingGateway(
        deployment, policy,
        GatewayConfig(coalesce_window_s=0.0, max_batch_rows=32))
    async with gateway.running():
        served, shed = await pump_topic(gateway, broker, TOPIC, poll_size=32)
    return served, shed, gateway.stats()


def main() -> None:
    with using_runtime(Runtime(seed=0)) as runtime:
        deployment = TwoTierDeployment(
            build_model, ["local_stage", "local_head"],
            ["remote_stage", "remote_head"], fuse_inference=True,
            inference_dtype=np.float32)
        deployment.deploy(build_model(runtime.rng.np_child("example.model")))
        print("Deployed: "
              f"{deployment.payload_bytes['device']:,} B to the device, "
              f"{deployment.payload_bytes['server']:,} B to the server")

        broker = Broker()
        broker.create_topic(TOPIC, partitions=2, share_ndarrays=True)
        frames = runtime.rng.np_child("example.frames")
        for camera, count in CAMERAS.items():
            broker.produce_batch(
                TOPIC,
                list(frames.normal(size=(count, 1, 8, 8)).astype(np.float32)),
                key_fn=lambda frame, camera=camera: camera)

        served, shed, stats = asyncio.run(
            serve(deployment, ScoreThresholdPolicy(0.45), broker))
        broker.close()

    print("\n=== Per-camera exits (Fig. 5 rule, score threshold 0.45) ===")
    print(f"  {'camera':<10} {'frames':>6} {'device':>7} {'server':>7}")
    for camera in sorted(served):
        exits = np.concatenate([d.exit_index for d in served[camera]])
        print(f"  {camera:<10} {exits.size:6d} {int((exits == 1).sum()):7d} "
              f"{int((exits == 2).sum()):7d}")
    print(f"  shed: {shed or 'nothing'}")

    print("\n=== Gateway accounting ===")
    for key in ("submitted", "answered", "shed", "failed", "cancelled",
                "batches", "queue_rows"):
        print(f"  {key:<10} {stats[key]}")


if __name__ == "__main__":
    main()
