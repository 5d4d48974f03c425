"""Streaming-broker benchmark: BENCH_streaming.json.

The ingestion backbone under load: events ride ``produce_batch`` into a
topic with bounded partitions and come back out through a manual-commit
consumer group, exactly the way the Flume agents and the fog tier consume
in production.  Each scenario runs rounds of *produce a chunk → poll it
back → commit*, so the measurement covers the full produce→consume loop,
offset bookkeeping included.  Every round commits everything it polled,
so the next produce evicts the consumed head and the resident log stays
within ``RETAIN`` records a partition (checked after every round), small
enough for CI hosts.

Every scenario rides the columnar path end to end: ``produce_batch``
plans partitions once per chunk and bulk-appends into the column stores,
``poll_batch`` hands back a :class:`~repro.streaming.broker.RecordBatch`
whose value column is read directly — no per-record ``Record`` objects
anywhere in the loop.  (``produce()`` and ``poll()`` are one-record / row
views of those two calls, so there is no second path to compare with.)

Every record carries its produce wall-time; the consumer side turns that
into per-record produce→consume latency, reported as p50/p99.

Scenarios:

- **unkeyed** — round-robin partitioning, one group member (the gated
  number: ``--min-events-per-s`` applies to this row);
- **keyed** — md5 key partitioning over 64 keys (the camera-feed shape);
- **two-members** — the same unkeyed workload split across two consumers
  in one group, covering assignment and per-member offset bookkeeping.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_streaming          # full
    PYTHONPATH=src python -m benchmarks.perf.bench_streaming --quick  # CI

The full configuration pushes >= 1M events through the gated scenario.
``--min-events-per-s R`` exits non-zero if the gated scenario's
end-to-end throughput falls below ``R`` (the CI perf gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from benchmarks.perf import blas_threads
from repro.streaming.broker import Broker

OUTPUT = "BENCH_streaming.json"
GATED_SCENARIO = "unkeyed"

CHUNK = 1_000          # records per produce_batch / poll
RETAIN = 8 * CHUNK     # records a partition may hold (its bound)
KEYS = 64              # distinct keys in the keyed scenario


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_scenario(name: str, events: int, partitions: int, members: int,
                 keyed: bool) -> Dict:
    broker = Broker()
    broker.create_topic("bench", partitions=partitions,
                        max_partition_records=RETAIN)
    consumers = [broker.consumer("bench", "bench", auto_commit=False)
                 for _ in range(members)]
    key_fn = (lambda stamp: f"k{int(stamp * 1e6) % KEYS}") if keyed else None

    produced = consumed = 0
    produce_s = consume_s = 0.0
    latencies: List[float] = []
    start = time.perf_counter()
    while consumed < events:
        if produced < events:
            chunk = min(CHUNK, events - produced)
            t0 = time.perf_counter()
            broker.produce_batch(
                "bench", [time.perf_counter()] * chunk, key_fn=key_fn)
            produce_s += time.perf_counter() - t0
            produced += chunk
        t0 = time.perf_counter()
        for consumer in consumers:
            batch = consumer.poll_batch(CHUNK)
            if batch:
                consumer.commit()
            now = time.perf_counter()
            latencies.extend(now - value for value in batch.values)
            consumed += len(batch)
        consume_s += time.perf_counter() - t0
        resident = max(broker.partition_sizes("bench"))
        assert resident <= RETAIN, f"{name}: a partition holds {resident}"
    total_s = time.perf_counter() - start

    assert consumed == events, f"{name}: consumed {consumed} != {events}"
    assert broker.lag("bench", "bench") == 0
    broker.close()
    row = {
        "scenario": name,
        "events": events,
        "partitions": partitions,
        "group_members": members,
        "keyed": keyed,
        "seconds": total_s,
        "events_per_s": events / total_s,
        "produce_events_per_s": events / produce_s,
        "consume_events_per_s": events / consume_s,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
    }
    print(f"{name:>12}  {events:>9} ev  {total_s:7.2f} s  "
          f"{row['events_per_s']:9.0f} ev/s  "
          f"p50 {row['latency_p50_ms']:6.2f} ms  "
          f"p99 {row['latency_p99_ms']:6.2f} ms")
    return row


def run(gated_events: int, side_events: int, partitions: int) -> Dict:
    rows = [
        run_scenario(GATED_SCENARIO, gated_events, partitions,
                     members=1, keyed=False),
        run_scenario("keyed", side_events, partitions,
                     members=1, keyed=True),
        run_scenario("two-members", side_events, partitions,
                     members=2, keyed=False),
    ]
    return {
        "workload": {
            "gated_events": gated_events, "side_events": side_events,
            "partitions": partitions, "chunk": CHUNK,
            "max_partition_records": RETAIN, "keys": KEYS,
        },
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "rows": rows,
    }


def find_row(rows: List[Dict], scenario: str) -> Optional[Dict]:
    for row in rows:
        if row["scenario"] == scenario:
            return row
    return None


def gated_throughput(rows: List[Dict]) -> Optional[float]:
    row = find_row(rows, GATED_SCENARIO)
    return row["events_per_s"] if row else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration (seconds, not minutes)")
    parser.add_argument("--events", type=int, default=None,
                        help="events through the gated scenario")
    parser.add_argument("--side-events", type=int, default=None,
                        help="events through each non-gated scenario")
    parser.add_argument("--partitions", type=int, default=None)
    parser.add_argument("--min-events-per-s", type=float, default=None,
                        help=f"fail unless the {GATED_SCENARIO} scenario "
                             "sustains this end-to-end throughput")
    parser.add_argument("--output", default=OUTPUT)
    args = parser.parse_args(argv)

    if args.quick:
        config = dict(gated_events=args.events or 120_000,
                      side_events=args.side_events or 40_000,
                      partitions=args.partitions or 4)
    else:
        config = dict(gated_events=args.events or 1_000_000,
                      side_events=args.side_events or 200_000,
                      partitions=args.partitions or 4)

    payload = run(**config)
    rate = gated_throughput(payload["rows"])
    payload["gated_events_per_s"] = rate

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {args.output}")
    print(f"  {GATED_SCENARIO}: {rate:.0f} events/s end-to-end "
          f"(cpu_count={payload['cpu_count']})")

    if args.min_events_per_s is not None and rate < args.min_events_per_s:
        print(f"FAIL: {rate:.0f} events/s below {args.min_events_per_s:.0f}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
