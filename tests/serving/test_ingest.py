"""Broker → gateway ingress: camera topics drained through the serving plane."""

import asyncio

import numpy as np
import pytest

from repro.serving import (
    GatewayConfig,
    ServingGateway,
    pump_topic,
    serve_camera_topic,
)
from repro.streaming.broker import Broker

from tests.serving.conftest import camera_frames

TOPIC = "camera.frames"
GROUP = "fog-serving"


def camera_bus(rt):
    bus = Broker(runtime=rt)
    bus.create_topic(TOPIC, partitions=2, share_ndarrays=True)
    return bus


def publish(bus, camera, frames):
    bus.produce_batch(TOPIC, [frame for frame in frames],
                      key_fn=lambda frame: camera)


class TestServeCameraTopic:
    def test_every_frame_is_decided_and_committed(self, rt, deployment,
                                                  policy):
        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(0, 6))
        publish(bus, "cam-b", camera_frames(1, 4))
        served = serve_camera_topic(deployment, policy, bus, TOPIC)
        assert sorted(served) == ["cam-a", "cam-b"]
        assert sum(len(d.predictions) for d in served["cam-a"]) == 6
        assert sum(len(d.predictions) for d in served["cam-b"]) == 4
        assert bus.lag(GROUP, TOPIC) == 0

    def test_matches_the_raw_deployment_path(self, rt, deployment, policy):
        bus = camera_bus(rt)
        frames = camera_frames(2, 5)
        publish(bus, "cam-a", frames)
        served = serve_camera_topic(deployment, policy, bus, TOPIC)
        direct = deployment.serve_batched(np.stack(list(frames)), policy)
        assert np.array_equal(served["cam-a"][0].predictions,
                              direct.predictions)

    def test_second_drain_is_empty(self, rt, deployment, policy):
        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(3, 3))
        assert serve_camera_topic(deployment, policy, bus, TOPIC)
        assert serve_camera_topic(deployment, policy, bus, TOPIC) == {}


class TestPumpTopic:
    def test_shed_cameras_are_counted_and_still_committed(self, rt,
                                                          deployment, policy):
        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(0, 4))
        publish(bus, "cam-b", camera_frames(1, 4))
        # cam-a (sorted first) fills the queue; cam-b is shed for overload
        config = GatewayConfig(coalesce_window_s=0.0, max_queue_rows=4)

        async def main():
            gateway = ServingGateway(deployment, policy, config, runtime=rt)
            async with gateway.running():
                return await pump_topic(gateway, bus, TOPIC)
        served, shed = asyncio.run(main())
        assert sorted(served) == ["cam-a"]
        assert shed == {"cam-b": 1}
        assert bus.lag(GROUP, TOPIC) == 0      # sheds are deliberate drops

    def test_batch_failure_aborts_without_committing(self, rt, policy):
        class ExplodingDeployment:
            def serve_batched(self, x, policy):
                raise RuntimeError("fabric down")

        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(0, 3))

        async def main():
            gateway = ServingGateway(ExplodingDeployment(), policy,
                                     GatewayConfig(coalesce_window_s=0.0),
                                     runtime=rt)
            async with gateway.running():
                return await pump_topic(gateway, bus, TOPIC)
        with pytest.raises(RuntimeError, match="fabric down"):
            asyncio.run(main())
        assert bus.lag(GROUP, TOPIC) == 3      # poisoned poll is redelivered


class TestPipelinedPump:
    def test_multiple_polls_all_served_and_committed(self, rt, deployment,
                                                     policy):
        # poll_size 2 forces four pipelined poll→submit→commit rounds
        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(0, 8))

        async def main():
            gateway = ServingGateway(
                deployment, policy,
                GatewayConfig(coalesce_window_s=0.0, max_batch_rows=2,
                              max_queue_rows=64), runtime=rt)
            async with gateway.running():
                return await pump_topic(gateway, bus, TOPIC, poll_size=2)

        served, shed = asyncio.run(main())
        assert shed == {}
        assert sum(len(d.predictions) for d in served["cam-a"]) == 8
        assert len(served["cam-a"]) == 4       # one decision per poll
        assert bus.lag(GROUP, TOPIC) == 0

    def test_failure_in_later_poll_keeps_earlier_commits(self, rt,
                                                         deployment, policy):
        """Read-ahead must not over-commit: when poll N fails, poll N-1
        stays committed and everything from poll N on is redelivered."""
        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(0, 6))
        calls = {"n": 0}
        real = deployment.serve_batched

        def flaky(x, policy):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("fabric down")
            return real(x, policy)

        deployment.serve_batched = flaky

        async def main():
            gateway = ServingGateway(
                deployment, policy,
                GatewayConfig(coalesce_window_s=0.0, max_batch_rows=2,
                              max_queue_rows=64), runtime=rt)
            async with gateway.running():
                return await pump_topic(gateway, bus, TOPIC, poll_size=2)

        with pytest.raises(RuntimeError, match="fabric down"):
            asyncio.run(main())
        # first poll (2 frames) committed; the poisoned poll and the
        # prefetched one behind it are both redelivered
        assert bus.lag(GROUP, TOPIC) == 4

    def test_poll_spans_are_sampled(self, rt, deployment, policy):
        bus = camera_bus(rt)
        publish(bus, "cam-a", camera_frames(0, 8))

        async def main():
            gateway = ServingGateway(
                deployment, policy,
                GatewayConfig(coalesce_window_s=0.0, max_batch_rows=8,
                              max_queue_rows=64), runtime=rt)
            async with gateway.running():
                return await pump_topic(gateway, bus, TOPIC, poll_size=2)

        asyncio.run(main())
        # 6 polls issued (4 full, 1 trailing, 1 empty prefetch) but only
        # every 16th is a real span: exactly the first
        assert len(rt.tracer.spans("serving.ingest.poll")) == 1
