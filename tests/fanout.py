"""Caller-side worker fan-out, the one shape the worker-count tests use.

Nothing under ``src/`` takes an executor on the serving path: the caller
that owns the :class:`~repro.runtime.parallel.ParallelExecutor` cuts the
work and maps it, exactly as ``benchmarks/perf/bench_parallel.py`` does.
Inference — ``infer_batch`` and its ``nn.infer.*`` telemetry — runs
inside the forked workers, so a dump taken after either helper only
equals the one-worker dump if the engine merged every worker's series.
"""

from repro.fog.policies import run_policy_batched
from repro.nn.inference import iter_microbatches
from repro.nn.models.earlyexit import BatchExitDecisions
from repro.runtime import ParallelExecutor


def infer_fanned(model, x, policy, batch_size, workers):
    """One ``run_policy_batched`` task per micro-batch, stitched back."""
    chunks = ParallelExecutor(workers=workers).map_ordered(
        lambda chunk: run_policy_batched(model, chunk, policy),
        iter_microbatches(x, batch_size), label="test.infer")
    return BatchExitDecisions.concatenate(chunks)


def serve_streams_fanned(deployment, streams, policy, workers):
    """One ``serve_batched`` task per camera stream, in stream order."""
    return ParallelExecutor(workers=workers).map_ordered(
        lambda frames: deployment.serve_batched(frames, policy),
        streams, label="test.streams")
