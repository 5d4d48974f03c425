"""Two-tier model deployment: split trained weights between device and server.

After joint training (Fig. 5 / Fig. 7), the local stage's weights go to the
edge/fog device and the remote stage's weights to the analysis server.
:func:`split_state_dict` partitions a state dict by stage prefixes, and
:class:`TwoTierDeployment` reconstructs the inference path from the two
halves — verifying that the deployed pair reproduces the monolithic
model's outputs exactly (the invariant the deployment tests assert).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.fog.policies import ExitPolicy, run_policy_batched
from repro.nn.fuse import fuse_for_inference
from repro.nn.models.earlyexit import BatchExitDecisions, EarlyExitNetwork
from repro.nn.modules import Module
from repro.runtime import get_runtime, using_runtime


def split_state_dict(state: Dict[str, np.ndarray],
                     local_prefixes: Sequence[str],
                     remote_prefixes: Sequence[str]
                     ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Partition a state dict by top-level module prefixes.

    Every key must match exactly one side; anything unmatched or doubly
    matched is an error — a deployment that silently drops weights is the
    worst possible failure mode.
    """
    local: Dict[str, np.ndarray] = {}
    remote: Dict[str, np.ndarray] = {}
    for key, value in state.items():
        in_local = any(key.startswith(prefix + ".") or key == prefix
                       for prefix in local_prefixes)
        in_remote = any(key.startswith(prefix + ".") or key == prefix
                        for prefix in remote_prefixes)
        if in_local and in_remote:
            raise ValueError(f"key matches both sides: {key}")
        if in_local:
            local[key] = value
        elif in_remote:
            remote[key] = value
        else:
            raise ValueError(f"key matches neither side: {key}")
    return local, remote


class TwoTierDeployment:
    """Ship a trained early-exit model to a device and a server.

    The device holds the modules named by ``local_modules`` (for every
    :class:`EarlyExitNetwork`, the Fig. 5 detector and the Fig. 7 action
    model included: ``local_stage``, ``local_head``); the server holds
    ``remote_modules`` (``remote_stage``, ``remote_head``).  Both sides
    are fresh instances of the same architecture, populated from the
    serialized halves — modelling the real workflow where weights travel
    over the network as bytes.

    With ``fuse_inference`` set, each tier-local instance goes through
    :func:`repro.nn.fuse.fuse_for_inference` after loading: BatchNorm
    layers are folded into their preceding conv/dense weights and the copy
    is optionally cast to ``inference_dtype`` (typically ``np.float32``),
    so what each tier actually serves is the fast-path deployment graph.

    Three further serving knobs (all default off):

    - ``capture_plans`` — the served composite runs through captured
      inference plans (:mod:`repro.nn.plan`): one plan per stage, sized
      by the largest batch served so far, arena-reused buffers,
      bit-identical decisions.  The only plan switch there is — it calls
      ``EarlyExitNetwork.enable_plans()``.
    - ``quantize_edge`` — the *device-side* stage and head are int8
      weight-quantized with activation fake-quant calibrated on the
      ``calibration`` batch (required), shrinking the edge weight payload
      ~4x; the server half stays float.  Edge byte savings land in
      ``fog.deploy.edge_int8_bytes_saved`` and ``edge_quantization``.
    - ``activation_codec`` — escalated feature maps round-trip through a
      :class:`repro.fog.codec.AutoencoderCodec` before the remote stage,
      modelling compressed cross-tier activation shipping
      (``fog.deploy.offload_bytes_saved``).
    """

    def __init__(self, architecture_factory, local_modules: Sequence[str],
                 remote_modules: Sequence[str], fuse_inference: bool = False,
                 inference_dtype=None, capture_plans: bool = False,
                 quantize_edge: bool = False, calibration=None,
                 activation_codec=None):
        if quantize_edge and calibration is None:
            raise ValueError(
                "quantize_edge needs a representative calibration batch")
        self.architecture_factory = architecture_factory
        self.local_modules = list(local_modules)
        self.remote_modules = list(remote_modules)
        self.fuse_inference = fuse_inference
        self.inference_dtype = inference_dtype
        self.capture_plans = capture_plans
        self.quantize_edge = quantize_edge
        self.calibration = calibration
        self.activation_codec = activation_codec
        self.runtime = get_runtime()
        self.device_model: Optional[Module] = None
        self.server_model: Optional[Module] = None
        self.payload_bytes = {"device": 0, "server": 0}
        self.fused_layers = {"device": 0, "server": 0}
        self.edge_quantization = {"layers": 0, "float_bytes": 0,
                                  "int8_bytes": 0}
        self._served: Optional[EarlyExitNetwork] = None

    def deploy(self, trained: Module) -> None:
        """Split ``trained`` and load each half into a fresh instance."""
        state = trained.state_dict()
        shared = self.local_modules  # stem etc. live on the device side
        local_state, remote_state = split_state_dict(
            state, shared, self.remote_modules)
        self.device_model = self.architecture_factory()
        self.server_model = self.architecture_factory()
        # Serialize each half to bytes (the network payload), then load
        # into the matching fresh instance; untouched modules keep their
        # fresh initialization, which is fine — each side only runs its
        # own half.
        device_payload = _dict_to_bytes(local_state)
        server_payload = _dict_to_bytes(remote_state)
        self.payload_bytes = {"device": len(device_payload),
                              "server": len(server_payload)}
        _load_partial(self.device_model, _bytes_to_dict(device_payload))
        _load_partial(self.server_model, _bytes_to_dict(server_payload))
        self._served = None
        if self.fuse_inference:
            self.device_model = fuse_for_inference(
                self.device_model, dtype=self.inference_dtype)
            self.server_model = fuse_for_inference(
                self.server_model, dtype=self.inference_dtype)
            self.fused_layers = {
                "device": self.device_model.fused_layers,
                "server": self.server_model.fused_layers,
            }
        if self.quantize_edge:
            self._quantize_device_tier()

    def _quantize_device_tier(self) -> None:
        """Int8-quantize the device-side stage and head after loading.

        The stage calibrates on the raw frames; the head calibrates on the
        *quantized* stage's features, matching what it will actually see
        at serve time.  The server half stays float — Sec. III-B's
        asymmetry: the edge is bandwidth/storage constrained, the analysis
        server is not.
        """
        from repro.nn.inference import batched_forward
        from repro.nn.quantize import (
            quantize_for_inference,
            quantized_state_bytes,
        )
        calibration = np.asarray(self.calibration)
        if self.inference_dtype is not None:
            calibration = calibration.astype(self.inference_dtype, copy=False)
        device = self.device_model
        float_bytes = sum(
            p.data.nbytes for name in ("local_stage", "local_head")
            for p in getattr(device, name).parameters())
        device.local_stage = quantize_for_inference(
            device.local_stage, calibration)
        with using_runtime(self.runtime):
            features = batched_forward(device.local_stage, calibration,
                                       model="edge_calibration")
        device.local_head = quantize_for_inference(
            device.local_head, features)
        layers = (device.local_stage.quantized_layers
                  + device.local_head.quantized_layers)
        int8_bytes = (quantized_state_bytes(device.local_stage)
                      + quantized_state_bytes(device.local_head))
        self.edge_quantization = {"layers": layers,
                                  "float_bytes": int(float_bytes),
                                  "int8_bytes": int(int8_bytes)}
        registry = self.runtime.registry
        registry.counter(
            "fog.deploy.quantized_layers",
            help="conv/dense layers int8-quantized for the edge tier").inc(
                layers, tier="device")
        registry.counter(
            "fog.deploy.edge_int8_bytes_saved",
            help="edge weight payload bytes saved by int8 quantization").inc(
                float_bytes - int8_bytes)

    # -- serving ---------------------------------------------------------------
    def served_model(self) -> EarlyExitNetwork:
        """The composite the two-tier pair actually serves.

        Device-side local stage + head and server-side remote stage +
        head, stitched back into one :class:`EarlyExitNetwork` so the
        early-exit inference path runs over the *deployed* weights.
        Requires an architecture exposing the four early-exit submodules
        (``local_stage``/``local_head``/``remote_stage``/``remote_head``).

        The composite is built once per deploy and cached, so plan caches
        (``capture_plans``) and codec byte counters persist across serve
        calls.  ``capture_plans`` and ``activation_codec`` are attached
        here.
        """
        if self._served is not None:
            return self._served
        if self.device_model is None or self.server_model is None:
            raise RuntimeError("deploy() must run before serving")
        for side, attrs in ((self.device_model, ("local_stage", "local_head")),
                            (self.server_model, ("remote_stage", "remote_head"))):
            missing = [a for a in attrs if getattr(side, a, None) is None]
            if missing:
                raise TypeError(
                    f"{type(side).__name__} does not expose {missing}; "
                    "served_model() needs the EarlyExitNetwork submodule "
                    "layout")
        served = EarlyExitNetwork(
            local_stage=self.device_model.local_stage,
            local_head=self.device_model.local_head,
            remote_stage=self.server_model.remote_stage,
            remote_head=self.server_model.remote_head)
        if self.capture_plans:
            served.enable_plans()
        if self.activation_codec is not None:
            served.activation_codec = self.activation_codec
        self._served = served
        return served

    def plan_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage plan-cache statistics of the served composite."""
        if self._served is None:
            return {}
        return self._served.plan_stats()

    def serve_batched(self, x, policy: ExitPolicy) -> BatchExitDecisions:
        """One batch through the deployed pair: the only way a batch
        reaches the deployed model."""
        return run_policy_batched(self.served_model(), x, policy)


def _dict_to_bytes(state: Dict[str, np.ndarray]) -> bytes:
    import io
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def _bytes_to_dict(payload: bytes) -> Dict[str, np.ndarray]:
    import io
    with np.load(io.BytesIO(payload)) as archive:
        return {key: archive[key] for key in archive.files}


def _load_partial(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Load only the provided keys; leave the rest untouched."""
    own = dict(model.named_parameters())
    buffers = {name: (holder, attr)
               for name, holder, attr in model._buffer_holders()}
    for key, value in state.items():
        if key in own:
            if own[key].data.shape != value.shape:
                raise ValueError(f"shape mismatch for {key}")
            own[key].data = value.copy()
        elif key in buffers:
            holder, attr = buffers[key]
            setattr(holder, "_buffer_" + attr, value.copy())
        else:
            raise KeyError(f"no such parameter or buffer: {key}")
