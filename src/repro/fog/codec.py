"""Compressed cross-tier activation shipping (offload codecs).

When an early-exit sample escalates, the device ships the local stage's
feature map to the analysis server (Sec. III-B's device/server split).
The raw activation is large — for Fig. 5's geometry it dwarfs the input
frame — so the paper's autoencoder (Sec. III-C) doubles as a learned
compressor: the device runs the *encoder* and transmits the code, the
server runs the *decoder* and feeds the reconstruction to the remote
stage.  :class:`AutoencoderCodec` models that round trip in-process and
meters the payload delta as ``fog.deploy.offload_bytes_saved``.

A codec is anything with ``transfer(features) -> features`` — the hook
:class:`repro.nn.models.earlyexit.EarlyExitNetwork` calls on escalated
rows (and :class:`repro.fog.deployment.TwoTierDeployment` wires up via
``activation_codec=``).  Transfers are lossy by construction; the
reconstruction error is the price of the bandwidth, which
:meth:`AutoencoderCodec.fidelity` quantifies for a held-out batch.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.fuse import fuse_for_inference
from repro.nn.models.autoencoder import Autoencoder
from repro.nn.modules import Linear, ReLU, Sequential
from repro.nn.quantize import (
    QPARAM_OVERHEAD_BYTES,
    calibrate_activation,
    fake_quant,
)
from repro.runtime import get_runtime


def _run_dense(stack: Sequential, x: np.ndarray) -> np.ndarray:
    """``stack``'s layers on the columns of ``x`` (one column per row)."""
    for layer in stack:
        if isinstance(layer, ReLU):
            x = np.maximum(x, 0)
        elif isinstance(layer, Linear) and layer.bias is not None:
            x = layer.weight.data @ x
            x += layer.bias.data[:, None]
        else:
            raise TypeError(f"not a biased Linear or a ReLU: {layer!r}")
    return x


class ActivationCodec:
    """Protocol for cross-tier activation transfer simulation.

    ``transfer`` receives the escalated rows' feature array (any float
    dtype, batch-leading) and returns the array the *server side* sees.
    Implementations must return a fresh array of the same shape and dtype
    and must be deterministic — exit decisions downstream of a transfer
    feed the reproducibility invariants (identical decisions across
    identically-seeded runs).
    """

    def transfer(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AutoencoderCodec(ActivationCodec):
    """Ship activations through a trained autoencoder's bottleneck.

    The device-side encoder maps each flattened feature map to a
    ``code_dim`` vector; optionally the code itself is int8-quantized for
    the wire (per-transfer min/max calibration, the scale/zero-point
    riding along as :data:`~repro.nn.quantize.QPARAM_OVERHEAD_BYTES`).
    The server-side decoder reconstructs the feature map, which continues
    into the remote stage.

    Byte accounting per transfer::

        raw  = rows * prod(feature_shape) * itemsize     (uncompressed)
        sent = rows * code_dim * wire_itemsize + qparams (what ships)

    and ``raw - sent`` accumulates into ``fog.deploy.offload_bytes_saved``.
    The codec never trains or mutates the autoencoder; it snapshots its
    weights per feature dtype and runs ``W @ X`` batch-innermost.
    """

    def __init__(self, autoencoder: Autoencoder, quantize_code: bool = True,
                 runtime=None):
        self.autoencoder = autoencoder
        self.quantize_code = quantize_code
        self.runtime = runtime
        self.transfers = 0
        self.bytes_raw = 0
        self.bytes_sent = 0
        self._snapshots: Dict[np.dtype, Autoencoder] = {}

    @property
    def bytes_saved(self) -> int:
        return self.bytes_raw - self.bytes_sent

    def _registry(self):
        return (self.runtime or get_runtime()).registry

    def transfer(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features)
        rows = features.shape[0]
        flat_dim = int(np.prod(features.shape[1:], dtype=np.int64))
        if flat_dim != self.autoencoder.input_dim:
            raise ValueError(
                f"feature maps flatten to {flat_dim} values per row, but the "
                f"codec autoencoder expects input_dim="
                f"{self.autoencoder.input_dim}")
        ae = self._snapshots.get(features.dtype)
        if ae is None:
            ae = self._snapshots[features.dtype] = fuse_for_inference(
                self.autoencoder, dtype=features.dtype)
        # (flat_dim, rows): a view of a batch-innermost or a row-major map.
        code = _run_dense(ae.encoder, features.reshape(rows, flat_dim).T)
        if self.quantize_code:
            scale, zero_point = calibrate_activation(code)
            code = fake_quant(code, scale, zero_point)
        decoded = _run_dense(ae.decoder, code)
        restored = np.moveaxis(
            decoded.reshape(*features.shape[1:], rows), -1, 0)

        raw = int(features.nbytes)
        if self.quantize_code:
            sent = rows * ae.code_dim + QPARAM_OVERHEAD_BYTES
        else:
            sent = rows * ae.code_dim * features.dtype.itemsize
        self.transfers += 1
        self.bytes_raw += raw
        self.bytes_sent += sent
        registry = self._registry()
        registry.counter(
            "fog.deploy.offload_bytes_saved",
            help="activation bytes avoided by the offload codec "
                 "(raw feature payload minus shipped code payload)").inc(
                raw - sent)
        registry.counter(
            "fog.deploy.offload_transfers",
            help="escalation batches shipped through the offload codec").inc(1)
        return restored

    def fidelity(self, features: np.ndarray) -> float:
        """Mean relative L2 reconstruction error over a feature batch.

        Runs a real :meth:`transfer`, so it shows up in the byte counters.
        """
        features = np.asarray(features)
        restored = self.transfer(features)
        denom = float(np.linalg.norm(features.reshape(features.shape[0], -1),
                                     axis=1).mean())
        if denom == 0.0:
            return 0.0
        error = np.linalg.norm(
            (restored - features).reshape(features.shape[0], -1), axis=1)
        return float(error.mean()) / denom
