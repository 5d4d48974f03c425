"""Broker → gateway ingress: drain camera topics through the fog tier.

The camera glue (``camera.frames`` topic, shared-memory frames, manual
commits) already exists in the streaming layer; this module is the
sanctioned path from that topic into a deployment.  Each poll is
regrouped per camera (sorted, so results are deterministic), every
camera's frames become one gateway submission with the camera id as the
tenant, and offsets commit only after the whole poll resolved —
answered *or deliberately shed*.  Shed frames are dropped by design
(that is what load shedding means) and show up in the returned shed
counts and the ``serving.gateway.shed`` counter; a batch *failure* is
not a shed, so it aborts the pump without committing and the poisoned
poll is redelivered to the next consumer.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.serving.admission import ShedError
from repro.serving.gateway import GatewayConfig, ServingGateway

#: the consumer group the fog tier drains camera topics with
DEFAULT_GROUP = "fog-serving"


#: record every Nth ingest poll as a real span; the rest are no-ops
POLL_SPAN_EVERY = 16


async def pump_topic(gateway: ServingGateway, bus, topic: str,
                     group: str = DEFAULT_GROUP, poll_size: int = 256
                     ) -> Tuple[Dict[str, List], Dict[str, int]]:
    """Drain ``topic`` through ``gateway`` until a poll comes back empty.

    Returns ``(served, shed)``: per-camera lists of
    :class:`~repro.nn.models.earlyexit.BatchExitDecisions` (one per poll
    the camera appeared in) and per-camera shed-request counts.

    The pump is *pipelined*: each columnar poll is regrouped per camera
    by ``batch.groups()`` (sorted keys, deterministic), the gather of
    gateway submissions is started, and the *next* poll is issued while
    that gather is in flight.  Commit-after-resolve semantics survive the
    read-ahead because each batch commits against the position snapshot
    taken right after its own poll — never the prefetched positions — so
    a failed batch (and everything polled after it) is redelivered.
    """
    consumer = bus.consumer(group, [topic], auto_commit=False)
    served: Dict[str, List] = {}
    shed: Dict[str, int] = {}
    poll_span = gateway.runtime.tracer.sampler("serving.ingest.poll",
                                               every=POLL_SPAN_EVERY)
    try:
        with poll_span.span(topic=topic):
            batch = consumer.poll_batch(poll_size)
        while batch:
            snapshot = consumer.position_snapshot()
            groups = batch.groups()
            cameras = [camera for camera, _ in groups]
            gather = asyncio.gather(
                *(gateway.submit(frames.stacked_values(), tenant=camera)
                  for camera, frames in groups),
                return_exceptions=True)
            # Let the submissions enqueue, then poll ahead while the
            # gateway resolves them.
            await asyncio.sleep(0)
            with poll_span.span(topic=topic):
                next_batch = consumer.poll_batch(poll_size)
            results = await gather
            for camera, result in zip(cameras, results):
                if isinstance(result, ShedError):
                    shed[camera] = shed.get(camera, 0) + 1
                elif isinstance(result, BaseException):
                    raise result
                else:
                    served.setdefault(camera, []).append(result)
            consumer.commit(positions=snapshot)
            batch = next_batch
    finally:
        consumer.close()
    return served, shed


def serve_camera_topic(deployment, policy, bus, topic: str,
                       group: str = DEFAULT_GROUP, poll_size: int = 256,
                       config: Optional[GatewayConfig] = None,
                       runtime=None) -> Dict[str, List]:
    """Synchronous one-shot drain: build a gateway, pump, tear down.

    The convenience entrypoint the infrastructure facade calls.  The
    default config coalesces with a zero window (deterministic batching)
    and sizes the batch and queue bounds to the poll, so a default drain
    never sheds; pass ``config`` to exercise admission control.
    """
    if config is None:
        config = GatewayConfig(
            coalesce_window_s=0.0,
            max_batch_rows=max(1, poll_size),
            max_queue_rows=max(1024, 4 * poll_size))

    async def run() -> Dict[str, List]:
        gateway = ServingGateway(deployment, policy, config, runtime=runtime)
        async with gateway.running():
            served, _ = await pump_topic(gateway, bus, topic,
                                         group=group, poll_size=poll_size)
        return served

    return asyncio.run(run())
