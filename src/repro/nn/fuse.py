"""Graph folding for deployment: collapse BatchNorm into conv/dense weights.

In eval mode a BatchNorm layer is an affine map with frozen statistics::

    y = gamma * (x - running_mean) / sqrt(running_var + eps) + beta

When ``x`` is the output of a Conv2d or Linear layer, that affine map can
be folded into the layer's own weights once, ahead of deployment::

    scale = gamma / sqrt(running_var + eps)
    W'    = W * scale            (per output channel)
    b'    = (b - running_mean) * scale + beta

so the fused stage does one matmul instead of a matmul plus four
broadcasted elementwise passes over the activation.  This is what
:mod:`repro.fog.deployment` ships to each tier when the fast path is on.

Pair discovery uses child registration order: a BatchNorm is folded into
the Conv2d/Linear registered immediately before it in the same parent
(``conv1``/``bn1``, ``stem``/``stem_bn``, sequential stacks...), which is
how every model family in :mod:`repro.nn.models` lays its layers out.  The
original module is never touched — callers get a fused deep copy, already
in eval mode.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from repro.nn.modules import (
    BatchNorm2d,
    Conv2d,
    Identity,
    Linear,
    Module,
    Parameter,
)


def _out_features(layer: Module) -> Optional[int]:
    if isinstance(layer, Conv2d):
        return layer.out_channels
    if isinstance(layer, Linear):
        return layer.out_features
    return None


def _fold_pair(layer: Module, bn: BatchNorm2d) -> None:
    """Fold ``bn``'s eval-mode affine map into ``layer``'s weights in place."""
    scale = bn.gamma.data / np.sqrt(bn._buffer_running_var + bn.eps)
    shift = bn.beta.data - bn._buffer_running_mean * scale
    weight = layer.weight.data
    if weight.ndim == 4:
        layer.weight.data = weight * scale[:, None, None, None]
    else:
        layer.weight.data = weight * scale[:, None]
    if layer.bias is None:
        layer.bias = Parameter(shift)
    else:
        layer.bias.data = layer.bias.data * scale + shift


def _fold_tree(module: Module, replaced: Dict[int, Module]) -> int:
    """Fold every conv/dense + BN sibling pair under ``module``; recurse."""
    fused = 0
    children = list(module._modules.items())
    for (_, prev), (name, child) in zip(children, children[1:]):
        if (isinstance(child, BatchNorm2d)
                and _out_features(prev) == child.num_features):
            _fold_pair(prev, child)
            identity = Identity()
            setattr(module, name, identity)
            replaced[id(child)] = identity
            fused += 1
    for child in module._modules.values():
        if not isinstance(child, Identity):
            fused += _fold_tree(child, replaced)
    return fused


def patch_list_references(root: Module, replaced: Dict[int, Module]) -> None:
    """Swap replaced modules inside plain-list attributes.

    Containers like ``Sequential.layers`` and ``SmallResNet.blocks`` keep a
    Python list of children alongside the registered attributes; forward()
    iterates the list, so it must point at the stand-ins too.  Shared with
    :mod:`repro.nn.quantize`, which swaps layers for their int8 versions
    the same way fusion swaps BatchNorm for Identity.
    """
    for module in root.modules():
        for value in module.__dict__.values():
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if id(item) in replaced:
                        value[index] = replaced[id(item)]


def fuse_for_inference(module: Module, dtype=None) -> Module:
    """Return a deployment copy of ``module`` with BatchNorm folded away.

    The copy is in eval mode (fusion bakes in the *running* statistics, so
    it matches the eval-mode forward of the original, not a training-mode
    one), optionally cast to ``dtype`` (typically ``np.float32``), and
    carries the number of folded layers as ``fused_layers``.
    """
    fused = copy.deepcopy(module)
    replaced: Dict[int, Module] = {}
    count = _fold_tree(fused, replaced)
    patch_list_references(fused, replaced)
    if dtype is not None:
        fused.astype(dtype)
    fused.eval()
    fused.fused_layers = count
    return fused
