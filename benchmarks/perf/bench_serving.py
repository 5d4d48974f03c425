"""Serving-gateway benchmark: BENCH_serving.json.

The serving plane under load, measured in two stages:

- **pipeline** — camera frames from the scene generator ride a
  shared-memory ``camera.frames`` topic this harness builds and drain
  through the gateway into a deployed two-tier model
  (:func:`repro.serving.serve_camera_topic` — the
  ``topic -> pump_topic -> gateway -> fog`` path).  The gated number:
  ``--min-rows-per-s`` applies to this end-to-end drain throughput.
- **sweep** — paced asyncio clients submit frame batches straight to a
  gateway at a ladder of offered loads (fractions and multiples of a
  measured saturation capacity).  Each rung reports achieved
  throughput, answer-latency p50/p99, and the shed rate — the
  throughput / latency / shedding curves an admission-controlled
  ingress is supposed to show: flat latency and zero sheds below
  capacity, bounded latency and honest sheds above it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_serving          # full
    PYTHONPATH=src python -m benchmarks.perf.bench_serving --quick  # CI

``--min-rows-per-s R`` exits non-zero if the pipeline drain falls below
``R`` rows/second (the CI perf gate).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from benchmarks.perf import blas_threads
from benchmarks.perf.bench_inference import build_early_exit
from repro.data.video import SceneGenerator
from repro.fog.deployment import TwoTierDeployment
from repro.fog.policies import ScoreThresholdPolicy
from repro.runtime import get_runtime
from repro.serving import (
    GatewayConfig,
    ServingGateway,
    ShedError,
    serve_camera_topic,
)
from repro.streaming.broker import Broker

OUTPUT = "BENCH_serving.json"
TOPIC = "camera.frames"
IMAGE_SIZE = 16
ROWS_PER_REQUEST = 4
THRESHOLD = 0.55

#: offered load as multiples of the measured saturation capacity
SWEEP_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def build_deployment() -> TwoTierDeployment:
    runtime = get_runtime()
    rng = runtime.rng.np_child("bench.serving.model")
    deployment = TwoTierDeployment(
        lambda: build_early_exit(runtime.rng.np_child("bench.serving.fresh")),
        ["local_stage", "local_head"], ["remote_stage", "remote_head"],
        fuse_inference=True, inference_dtype=np.float32)
    deployment.deploy(build_early_exit(rng))
    return deployment


def camera_frames(cameras: int, frames_per_camera: int) -> Dict[str, np.ndarray]:
    generator = SceneGenerator(image_size=IMAGE_SIZE)
    return {f"cam-{index:02d}":
            generator.generate_batch(frames_per_camera)[0].astype(np.float32)
            for index in range(cameras)}


# -- stage 1: broker pipeline drain ---------------------------------------------
def run_pipeline(deployment, policy, cameras: int,
                 frames_per_camera: int) -> Dict:
    broker = Broker()
    broker.create_topic(TOPIC, partitions=4, share_ndarrays=True)
    feeds = camera_frames(cameras, frames_per_camera)
    for camera in sorted(feeds):
        broker.produce_batch(TOPIC, list(feeds[camera]),
                             key_fn=lambda frame, camera=camera: camera)
    total_rows = cameras * frames_per_camera

    start = time.perf_counter()
    served = serve_camera_topic(deployment, policy, broker, TOPIC,
                                poll_size=256)
    elapsed = time.perf_counter() - start
    broker.close()

    decided = sum(len(d.predictions) for results in served.values()
                  for d in results)
    assert decided == total_rows, f"decided {decided} != {total_rows}"
    row = {
        "cameras": cameras,
        "frames_per_camera": frames_per_camera,
        "rows": total_rows,
        "seconds": elapsed,
        "rows_per_s": total_rows / elapsed,
    }
    print(f"    pipeline  {total_rows:>7} rows  {elapsed:7.2f} s  "
          f"{row['rows_per_s']:9.0f} rows/s")
    return row


# -- stage 2: paced offered-load sweep ------------------------------------------
def measure_capacity(deployment, policy, probe_requests: int) -> float:
    """Saturation throughput: requests back to back, no pacing, no limits."""
    frames = camera_frames(1, ROWS_PER_REQUEST * probe_requests)["cam-00"]
    gateway = ServingGateway(deployment, policy,
                             GatewayConfig(coalesce_window_s=0.0,
                                           max_batch_rows=64,
                                           max_queue_rows=1 << 20))

    async def main():
        async with gateway.running():
            await asyncio.gather(
                *(gateway.submit(
                    frames[i * ROWS_PER_REQUEST:(i + 1) * ROWS_PER_REQUEST],
                    tenant="probe")
                  for i in range(probe_requests)))
    start = time.perf_counter()
    asyncio.run(main())
    elapsed = time.perf_counter() - start
    return (probe_requests * ROWS_PER_REQUEST) / elapsed


def run_load_point(deployment, policy, offered_rows_per_s: float,
                   duration_s: float) -> Dict:
    offered_rps = max(1.0, offered_rows_per_s / ROWS_PER_REQUEST)
    total_requests = max(1, int(offered_rps * duration_s))
    frames = camera_frames(1, ROWS_PER_REQUEST)["cam-00"]
    gateway = ServingGateway(deployment, policy,
                             GatewayConfig(coalesce_window_s=0.001,
                                           max_batch_rows=64,
                                           max_queue_rows=256))
    latencies: List[float] = []
    outcomes = {"answered": 0, "shed": 0, "failed": 0}

    async def one_request():
        begin = time.perf_counter()
        try:
            await gateway.submit(frames, tenant="bench")
        except ShedError:
            outcomes["shed"] += 1
        except Exception:
            outcomes["failed"] += 1
        else:
            outcomes["answered"] += 1
            latencies.append(time.perf_counter() - begin)

    async def main():
        async with gateway.running():
            start = time.perf_counter()
            tasks = []
            for index in range(total_requests):
                target = start + index / offered_rps
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(one_request()))
            await asyncio.gather(*tasks)
            return time.perf_counter() - start
    elapsed = asyncio.run(main())

    answered_rows = outcomes["answered"] * ROWS_PER_REQUEST
    row = {
        "offered_rows_per_s": offered_rows_per_s,
        "requests": total_requests,
        "answered": outcomes["answered"],
        "shed": outcomes["shed"],
        "failed": outcomes["failed"],
        "shed_rate": outcomes["shed"] / total_requests,
        "achieved_rows_per_s": answered_rows / elapsed,
        "latency_p50_ms": (percentile(latencies, 0.50) * 1000.0
                           if latencies else None),
        "latency_p99_ms": (percentile(latencies, 0.99) * 1000.0
                           if latencies else None),
    }
    p50 = f"{row['latency_p50_ms']:7.2f}" if latencies else "      -"
    p99 = f"{row['latency_p99_ms']:7.2f}" if latencies else "      -"
    print(f"    offered {offered_rows_per_s:9.0f} rows/s  "
          f"achieved {row['achieved_rows_per_s']:9.0f}  "
          f"p50 {p50} ms  p99 {p99} ms  "
          f"shed {100.0 * row['shed_rate']:5.1f} %")
    return row


def run(cameras: int, frames_per_camera: int, probe_requests: int,
        duration_s: float) -> Dict:
    deployment = build_deployment()
    policy = ScoreThresholdPolicy(THRESHOLD)
    print("  pipeline: broker -> gateway -> two-tier deployment")
    pipeline = run_pipeline(deployment, policy, cameras, frames_per_camera)
    print("  sweep: paced offered load vs. measured capacity")
    capacity = measure_capacity(deployment, policy, probe_requests)
    print(f"    capacity {capacity:9.0f} rows/s (saturation probe)")
    sweep = [run_load_point(deployment, policy, capacity * multiplier,
                            duration_s)
             for multiplier in SWEEP_MULTIPLIERS]
    return {
        "workload": {
            "cameras": cameras,
            "frames_per_camera": frames_per_camera,
            "image_size": IMAGE_SIZE,
            "rows_per_request": ROWS_PER_REQUEST,
            "probe_requests": probe_requests,
            "duration_s": duration_s,
            "sweep_multipliers": list(SWEEP_MULTIPLIERS),
            "threshold": THRESHOLD,
        },
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "pipeline": pipeline,
        "capacity_rows_per_s": capacity,
        "sweep": sweep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration (seconds, not minutes)")
    parser.add_argument("--cameras", type=int, default=None)
    parser.add_argument("--frames-per-camera", type=int, default=None)
    parser.add_argument("--duration-s", type=float, default=None,
                        help="seconds per offered-load rung")
    parser.add_argument("--min-rows-per-s", type=float, default=None,
                        help="fail unless the pipeline drain sustains this "
                             "end-to-end throughput")
    parser.add_argument("--output", default=OUTPUT)
    args = parser.parse_args(argv)

    if args.quick:
        config = dict(cameras=args.cameras or 8,
                      frames_per_camera=args.frames_per_camera or 192,
                      probe_requests=64,
                      duration_s=args.duration_s or 1.0)
    else:
        config = dict(cameras=args.cameras or 16,
                      frames_per_camera=args.frames_per_camera or 1024,
                      probe_requests=256,
                      duration_s=args.duration_s or 3.0)

    payload = run(**config)
    rate = payload["pipeline"]["rows_per_s"]

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {args.output}")
    print(f"  pipeline: {rate:.0f} rows/s end-to-end "
          f"(cpu_count={payload['cpu_count']})")

    if args.min_rows_per_s is not None and rate < args.min_rows_per_s:
        print(f"FAIL: {rate:.0f} rows/s below {args.min_rows_per_s:.0f}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
