"""Micro-benchmark harnesses, one ``BENCH_*.json`` each.

Importing the package pins the BLAS/OpenMP pools to one thread.  Python
imports a package before any module in it, so under
``python -m benchmarks.perf.bench_<name>`` this runs before the harness
imports NumPy — which is when OpenBLAS reads the variables.  The
harnesses time single-threaded programs; on a two-core host OpenBLAS's
threaded path stalls a (16x72)@(72x1024) float32 GEMM for 8 ms waiting
for the second core (42 us pinned), and a ratio of two such timings is
decided by the scheduler.  ``setdefault`` leaves a caller's own setting
alone (``benchmarks/e2e/run.py`` pins before it imports anything here).
"""

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")


def blas_threads() -> int:
    """The thread count the harness ran under, for the ``BENCH_*`` header."""
    return int(os.environ["OPENBLAS_NUM_THREADS"])
