"""The serving plane: asyncio ingress over two-tier fog deployments.

Raw :class:`~repro.fog.deployment.TwoTierDeployment` serving calls stay
behind this package (lint rule API304): the gateway is where micro-batch
coalescing, the queue bound, load shedding and live observability
happen, and bypassing it silently forfeits all four.
"""

from repro.serving.gateway import (
    SHED_QUEUE_FULL,
    SHED_SHUTDOWN,
    VOLATILE_METRIC_PREFIXES,
    GatewayConfig,
    ServingGateway,
    ShedError,
    split_decisions,
)
from repro.serving.ingest import DEFAULT_GROUP, pump_topic, serve_camera_topic
from repro.serving.observability import ObservabilityServer

__all__ = [
    "DEFAULT_GROUP",
    "GatewayConfig",
    "ObservabilityServer",
    "SHED_QUEUE_FULL",
    "SHED_SHUTDOWN",
    "ServingGateway",
    "ShedError",
    "VOLATILE_METRIC_PREFIXES",
    "pump_topic",
    "serve_camera_topic",
    "split_decisions",
]
