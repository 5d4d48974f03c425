"""Parallel-engine benchmark: BENCH_parallel.json.

The Fig. 5 multi-camera workload: several camera streams, each a sequence
of frames served through the fused-float32 early-exit network under the
score-threshold policy.  Each stream is one executor task; the sweep runs
the identical workload serially and through :class:`ParallelExecutor`
pools of 1/2/4 workers, asserting the exit decisions never change.

Two workload modes, because what the pool buys depends on what paces the
stream:

- **stream** — each micro-batch waits on a simulated camera link before
  inference (frames arrive at link rate, as in the paper's deployment).
  Workers overlap one stream's link stalls with another's compute, so
  even a single-core host sees real wall-clock speedup.  This is the
  gated number.
- **compute** — no link stall, pure CPU.  Scales with *physical cores*;
  on a single-core CI host this honestly reports ~1x, and the recorded
  ``cpu_count`` says why.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_parallel          # full
    PYTHONPATH=src python -m benchmarks.perf.bench_parallel --quick  # CI

``--min-speedup R`` exits non-zero unless the 4-worker stream-mode run
beats the serial loop by at least ``R``x (the CI perf gate).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from benchmarks.perf import blas_threads
from benchmarks.perf.bench_inference import build_early_exit
from repro.fog.policies import ScoreThresholdPolicy, run_policy_batched
from repro.nn.fuse import fuse_for_inference
from repro.nn.inference import iter_microbatches
from repro.runtime import ParallelExecutor, fork_available, get_runtime

OUTPUT = "BENCH_parallel.json"
GATED_MODE = "stream"
GATED_WORKERS = 4


def _time(fn, repeats: int) -> float:
    """Median seconds per call (one warmup call outside the clock)."""
    runtime = get_runtime()
    fn()
    samples = []
    for _ in range(repeats):
        start = runtime.now()
        fn()
        samples.append(runtime.now() - start)
    return statistics.median(samples)


def make_streams(rng, streams: int, frames: int, image_size: int
                 ) -> List[np.ndarray]:
    return [rng.normal(0.0, 1.0, (frames, 1, image_size, image_size))
            .astype(np.float32) for _ in range(streams)]


def make_serve(model, policy, batch_size: int, link_s: float):
    """Per-stream task: micro-batches arrive at link rate, then infer."""

    def serve(frames: np.ndarray):
        decisions = []
        for chunk in iter_microbatches(frames, batch_size):
            if link_s > 0.0:
                time.sleep(link_s)  # camera link paces frame delivery
            decisions.append(run_policy_batched(model, chunk, policy))
        return decisions

    return serve


def run_sweep(serve, streams, worker_counts: List[int], repeats: int
              ) -> Dict[int, Dict]:
    """Wall seconds + decisions for the serial loop and each pool size."""

    def decisions_of(results):
        return [(d.predictions.tolist(), d.exit_index.tolist())
                for per_stream in results for d in per_stream]

    out = {}
    serial = [serve(frames) for frames in streams]
    out[0] = {"seconds": _time(lambda: [serve(f) for f in streams], repeats),
              "decisions": decisions_of(serial)}
    for workers in worker_counts:
        executor = ParallelExecutor(workers=workers)
        fanned = executor.map_ordered(serve, streams, label="bench.streams")
        out[workers] = {
            "seconds": _time(
                lambda: executor.map_ordered(serve, streams,
                                             label="bench.streams"),
                repeats),
            "decisions": decisions_of(fanned),
        }
    return out


def run(streams: int, frames: int, image_size: int, batch_size: int,
        link_ms: float, repeats: int,
        worker_counts: List[int]) -> Dict:
    runtime = get_runtime()
    rng = runtime.rng.np_child("bench.perf.parallel")
    model = fuse_for_inference(build_early_exit(rng), dtype=np.float32)
    policy = ScoreThresholdPolicy(0.5)
    data = make_streams(runtime.rng.np_child("bench.perf.parallel.data"),
                        streams, frames, image_size)

    rows = []
    for mode, link_s in (("stream", link_ms / 1000.0), ("compute", 0.0)):
        serve = make_serve(model, policy, batch_size, link_s)
        sweep = run_sweep(serve, data, worker_counts, repeats)
        serial = sweep[0]
        for workers, result in sweep.items():
            variant = "serial" if workers == 0 else f"workers-{workers}"
            rows.append({
                "mode": mode,
                "variant": variant,
                "workers": workers,
                "seconds": result["seconds"],
                "frames_per_s": streams * frames / result["seconds"],
                "speedup_vs_serial": serial["seconds"] / result["seconds"],
                "decisions_match": result["decisions"] == serial["decisions"],
            })
            print(f"{mode:>8}  {variant:>10}  {result['seconds'] * 1000:8.1f} ms  "
                  f"{rows[-1]['frames_per_s']:8.1f} frames/s  "
                  f"{rows[-1]['speedup_vs_serial']:5.2f}x  "
                  f"match={rows[-1]['decisions_match']}")
    return {
        "workload": {
            "streams": streams, "frames_per_stream": frames,
            "image_size": image_size, "batch_size": batch_size,
            "link_ms": link_ms, "repeats": repeats,
        },
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "fork_available": fork_available(),
        "rows": rows,
    }


def gated_speedup(rows: List[Dict]) -> Optional[float]:
    for row in rows:
        if row["mode"] == GATED_MODE and row["workers"] == GATED_WORKERS:
            return row["speedup_vs_serial"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration (seconds, not minutes)")
    parser.add_argument("--streams", type=int, default=None)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--image-size", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--link-ms", type=float, default=None,
                        help="camera-link stall per micro-batch (stream mode)")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help=f"fail unless {GATED_WORKERS}-worker "
                             f"{GATED_MODE}-mode beats serial by this factor")
    parser.add_argument("--output", default=OUTPUT)
    args = parser.parse_args(argv)

    if not fork_available():
        print("SKIP: platform lacks fork; parallel engine runs serially",
              file=sys.stderr)
        return 0

    if args.quick:
        config = dict(streams=args.streams or 4,
                      frames=args.frames or 8,
                      image_size=args.image_size or 12,
                      batch_size=args.batch_size or 4,
                      link_ms=args.link_ms if args.link_ms is not None else 20.0,
                      repeats=args.repeats or 2)
    else:
        config = dict(streams=args.streams or 8,
                      frames=args.frames or 16,
                      image_size=args.image_size or 16,
                      batch_size=args.batch_size or 4,
                      link_ms=args.link_ms if args.link_ms is not None else 25.0,
                      repeats=args.repeats or 3)

    payload = run(worker_counts=[1, 2, 4], **config)
    ratio = gated_speedup(payload["rows"])
    payload["gated_speedup"] = ratio

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {args.output}")
    print(f"  {GATED_MODE}@{GATED_WORKERS} workers: {ratio:.2f}x serial "
          f"(cpu_count={payload['cpu_count']})")

    if any(not row["decisions_match"] for row in payload["rows"]):
        print("FAIL: parallel exit decisions diverged from serial",
              file=sys.stderr)
        return 1
    if args.min_speedup is not None and ratio < args.min_speedup:
        print(f"FAIL: speedup {ratio:.2f}x below {args.min_speedup}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
