"""The framework dtype policy: a fixed default, and explicit dtypes win.

Historically :class:`repro.nn.tensor.Tensor` force-cast every input to
``float64``, which doubles memory traffic on the inference fast path for no
accuracy benefit.  This module owns the policy:

- :data:`DEFAULT_DTYPE` is what non-float data (ints, bools, Python lists)
  is promoted to when it becomes a tensor, and what fresh parameters are
  initialized as.  It is ``float64``, so every training path, optimizer
  and gradcheck stays byte-for-byte identical;
- float arrays keep their own dtype — a ``float32`` array stays ``float32``
  through the whole op chain, which is what lets
  :func:`repro.nn.fuse.fuse_for_inference` produce genuinely single-precision
  deployment copies; an explicit ``dtype`` argument propagates the same way.

This file is one of the linter's sanctioned homes for explicit float64
casts (rule PERF401): everything else must preserve input dtype or go
through :func:`ensure_float`.
"""

from __future__ import annotations

import numpy as np

#: the dtype non-float data is promoted to
DEFAULT_DTYPE = np.dtype(np.float64)


def ensure_float(value) -> np.ndarray:
    """``np.asarray`` under the dtype policy.

    Float32/float64 arrays pass through untouched (no silent upcast — the
    PERF401 invariant) and anything else (ints, bools, lists, float16) is
    promoted to :data:`DEFAULT_DTYPE`.
    """
    array = np.asarray(value)
    if array.dtype.kind == "f" and array.dtype.itemsize >= 4:
        return array
    return array.astype(DEFAULT_DTYPE)
