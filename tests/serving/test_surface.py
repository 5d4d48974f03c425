"""The serving chain's settable surface, pinned name by name.

ROADMAP standing constraint (3) — no new constructor parameter or config
key without deleting one — made mechanical for the one call chain from
gateway to model: a knob added anywhere along it fails here and has to be
argued for in the same change.
"""

import dataclasses
import inspect

import pytest

from repro.fog.deployment import TwoTierDeployment
from repro.fog.policies import run_policy_batched
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.serving import (
    GatewayConfig,
    ServingGateway,
    pump_topic,
    serve_camera_topic,
)
from repro.streaming.broker import Broker

SURFACE = [
    (TwoTierDeployment.__init__,
     ["self", "architecture_factory", "local_modules", "remote_modules",
      "fuse_inference", "inference_dtype", "capture_plans", "quantize_edge",
      "calibration", "activation_codec"]),
    (TwoTierDeployment.serve_batched, ["self", "x", "policy"]),
    (ServingGateway.__init__,
     ["self", "deployment", "policy", "config"]),
    (pump_topic, ["gateway", "bus", "topic", "poll_size"]),
    (serve_camera_topic, ["deployment", "policy", "bus", "topic", "poll_size"]),
    (run_policy_batched, ["model", "x", "policy"]),
    (EarlyExitNetwork.infer_batch, ["self", "x", "threshold", "confidence"]),
    (Broker.__init__, ["self", "shm_min_bytes"]),
]


@pytest.mark.parametrize("fn, names", SURFACE,
                         ids=[fn.__qualname__ for fn, _ in SURFACE])
def test_parameters_are_exactly(fn, names):
    assert list(inspect.signature(fn).parameters) == names


def test_gateway_config_fields_are_exactly():
    assert [field.name for field in dataclasses.fields(GatewayConfig)] == [
        "coalesce_window_s", "max_batch_rows", "max_queue_rows"]


def test_a_deployment_has_two_entry_points():
    # raw serve_batched and the gateway in front of it; nothing else serves
    assert not hasattr(TwoTierDeployment, "serve_streams")
    assert [name for name in vars(TwoTierDeployment)
            if name.startswith("serve")] == ["served_model", "serve_batched"]
