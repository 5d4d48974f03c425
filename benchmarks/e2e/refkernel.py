"""Reference kernel and drift correction for a shared, noisy host.

The box this benchmark runs on has two shared cores whose speed swings by
tens of percent over minutes.  Every timed pass and every set-up repeat is
therefore bracketed by a fixed kernel that touches no repository code and
spends its time the way the program does: a pure-Python integer loop,
dict/list churn over small records, a float32 GEMM, and gather + ufunc
passes over cache-resident arrays.  (A large memcpy was tried and left
out: memory bandwidth here moves by 5 % while everything else moves by
25 %, so it only diluted the signal.)  The host's momentary speed
relative to a nominal machine is::

    speed_factor = mean(ref time before, ref time after) / REF_NOMINAL_S
    corrected    = raw / speed_factor

so a pass that ran while the host was 30 % slow is scaled back by the
slow-down its own bracketing kernels saw.  :func:`self_test` recovers
synthetic timings from a known slow-down profile.
"""

from __future__ import annotations

import math
import time
from typing import List, Sequence

import numpy as np

#: seconds one kernel run takes on the nominal machine.  Frozen: it only
#: fixes the scale of corrected times, so changing it rescales every
#: corrected metric of every run alike.
REF_NOMINAL_S = 0.010

_LOOP_STEPS = 33_000
_RECORDS = 3_000
_GEMM_DIM = 224
_GEMM_REPEATS = 15
_VECTOR = 1 << 18
_VECTOR_REPEATS = 3


class RefKernel:
    """The fixed ~10 ms kernel; buffers are allocated once."""

    def __init__(self):
        side = np.arange(_GEMM_DIM * _GEMM_DIM, dtype=np.float32)
        self._a = np.sin(side).reshape(_GEMM_DIM, _GEMM_DIM)
        self._b = np.cos(side).reshape(_GEMM_DIM, _GEMM_DIM)
        self._out = np.empty_like(self._a)
        self._x = np.sin(np.arange(_VECTOR, dtype=np.float32))
        self._y = np.empty_like(self._x)
        self._gather = (np.arange(_VECTOR) * 7919) % _VECTOR
        self._records = [{"id": index, "kind": "k", "district": index % 6,
                          "location": [index * 0.1, index * 0.2]}
                         for index in range(_RECORDS)]

    def run(self) -> float:
        """Run the kernel once; wall seconds it took."""
        start = time.perf_counter()
        acc = 1
        for step in range(_LOOP_STEPS):
            acc = (acc * 31 + step) & 0xFFFFFFFF
        stored = {}
        for record in self._records:
            document = dict(record)
            document["_id"] = record["id"]
            stored[record["id"]] = document
        counts: dict = {}
        for document in [dict(document) for document in stored.values()]:
            key = document.get("district")
            counts[key] = counts.get(key, 0) + 1
        for _ in range(_GEMM_REPEATS):
            np.matmul(self._a, self._b, out=self._out)
        for _ in range(_VECTOR_REPEATS):
            np.take(self._x, self._gather, out=self._y)
            np.maximum(self._y, 0.0, out=self._y)
            np.add(self._y, self._x, out=self._y)
        return time.perf_counter() - start


def speed_factors(ref_times: Sequence[float]) -> List[float]:
    """One factor per bracketed interval: ``len(ref_times) - 1`` values."""
    return [(before + after) / 2.0 / REF_NOMINAL_S
            for before, after in zip(ref_times, ref_times[1:])]


def correct(raw_times: Sequence[float], ref_times: Sequence[float]
            ) -> List[float]:
    """Raw interval times scaled to the nominal machine.

    ``ref_times[i]`` and ``ref_times[i + 1]`` bracket ``raw_times[i]``.
    """
    if len(ref_times) != len(raw_times) + 1:
        raise ValueError(f"{len(raw_times)} intervals need "
                         f"{len(raw_times) + 1} reference times, "
                         f"got {len(ref_times)}")
    return [raw / factor
            for raw, factor in zip(raw_times, speed_factors(ref_times))]


def self_test(true_pass_s: float = 0.2, passes: int = 120) -> float:
    """Largest relative error recovering ``true_pass_s`` under drift.

    The slow-down profile swings between 1.0x and 2.0x over a few dozen
    passes (the swing measured on the sandbox); kernels sample it at the
    pass boundaries, passes are stretched by its value at their midpoint.
    """
    def slow_down(position: float) -> float:
        return 1.5 + 0.5 * math.sin(position / 9.0)

    ref_times = [REF_NOMINAL_S * slow_down(index)
                 for index in range(passes + 1)]
    raw_times = [true_pass_s * slow_down(index + 0.5)
                 for index in range(passes)]
    recovered = correct(raw_times, ref_times)
    return max(abs(value - true_pass_s) / true_pass_s for value in recovered)
