"""Weight initialization schemes.

Every initializer returns :data:`repro.nn.dtypes.DEFAULT_DTYPE` (float64)
arrays, the framework dtype policy.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import DEFAULT_DTYPE


def _fans(shape) -> tuple:
    """(fan_in, fan_out) for dense or convolutional weight shapes."""
    if len(shape) == 2:           # (out, in) dense
        return shape[1], shape[0]
    if len(shape) == 4:           # (out_c, in_c, kh, kw) conv
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def kaiming_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """He initialization for ReLU networks (the paper's CNN stacks)."""
    fan_in, _ = _fans(shape)
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE, copy=False)


def xavier_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """Glorot initialization for tanh/sigmoid layers (LSTM gates)."""
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE, copy=False)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)
