"""One workload of the end-to-end benchmark, as ``BENCHMARK.json`` runs it.

    python3 benchmarks/e2e/run.py --workload camera-drain --seed 3 \\
        --seconds 20 --trace 0

prints a header line, the row counts, every metric by name and unit, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  ``python -m benchmarks.e2e`` runs this
command once per workload; see README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread, decided before NumPy loads: the benchmark is a
# single-threaded program on a two-core box, and a BLAS pool that grabs
# the second core makes run-to-run time depend on what else runs there.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

REPO_ROOT = Path(__file__).resolve().parents[2]
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

WORKLOADS = ("camera-drain", "edge-drain", "camera-paced", "feeds-collect")
NOMINAL_SECONDS = 20.0
#: set-ups per second of ``--seconds``, half before the measured phase and
#: half after it (20 in a nominal run, about 3 s of it)
SETUPS_PER_SECOND = 1.0


def header(seed: int) -> dict:
    import numpy

    from benchmarks.e2e.refkernel import REF_NOMINAL_S
    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ[THREAD_VARIABLES[0]]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
        "seed": seed,
        "ref_nominal_s": REF_NOMINAL_S,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 trace_output: str = "") -> dict:
    """Measure one workload in this process: end to end, or traced."""
    from benchmarks.e2e import camera, feeds
    from repro.runtime import Runtime, using_runtime

    with using_runtime(Runtime(seed)) as runtime:
        workload = (feeds.FeedsWorkload() if name == "feeds-collect"
                    else camera.build(name))
        workload.prepare()
        # The harness's own heap (frame pool, reference, training graph)
        # is out of the collector's sight from here on, so a full
        # collection during the run walks the program's objects only.
        gc.collect()
        gc.freeze()
        if traced:
            return measure_traced(workload, runtime, seconds, trace_output)
        return measure_e2e(workload, seconds)


def measure_e2e(workload, seconds: float) -> dict:
    from benchmarks.e2e import harness

    repeats = max(1, round(seconds * SETUPS_PER_SECOND / 2))
    workload.open_loop()
    try:
        before, system = harness.repeat_setup(
            workload.set_up, workload.tear_down, repeats)
        measured = workload.measure(system, seconds=seconds)
        workload.tear_down(system)
        del system
        after, system = harness.repeat_setup(
            workload.set_up, workload.tear_down, repeats)
        workload.tear_down(system)
    finally:
        workload.close_loop()
    return result(workload, measured,
                  harness.e2e_metrics(measured,
                                      statistics.median(before + after)),
                  harness.E2E_METRICS)


def measure_traced(workload, runtime, seconds: float,
                   trace_output: str) -> dict:
    """The same fixed pass count untraced, then traced.

    Their difference is what tracing costs; the fixed count (a quarter of
    a nominal run) is what lets the traced counts repeat exactly.
    """
    from benchmarks.e2e import harness
    from benchmarks.e2e.trace import Recorder

    passes = max(2, round(workload.traced_passes * seconds / NOMINAL_SECONDS))
    workload.open_loop()
    try:
        system = workload.set_up()
        untraced = workload.measure(system, seconds=seconds / 2,
                                    passes=passes)
        workload.tear_down(system)
    finally:
        workload.close_loop()
    recorder = Recorder()
    workload.open_loop(recorder)
    try:
        system = workload.set_up(recorder)
        measured = workload.measure(system, seconds=seconds / 2,
                                    passes=passes, recorder=recorder)
        metrics = traced_metrics(workload, system, runtime, recorder,
                                 untraced, measured)
        workload.tear_down(system)
    finally:
        recorder.restore()
        workload.close_loop()
    if trace_output:
        recorder.dump(trace_output)
    return result(workload, measured, metrics, harness.LAYER_METRICS)


def result(workload, measured, metrics: dict, table) -> dict:
    rows = measured.rows
    agreement = rows.correct / rows.sent if rows.sent else 0.0
    return {
        "workload": workload.name,
        "correct": bool(rows.balanced and rows.sent > 0
                        and agreement >= workload.agreement_floor),
        "attempted": rows.sent,
        "failed": rows.shed + rows.failed,
        "counts": {"sent": rows.sent, "answered": rows.answered,
                   "succeeded": rows.correct, "shed": rows.shed,
                   "failed": rows.failed, "passes": measured.passes,
                   "measured_s": measured.wall_s,
                   "agreement_floor": workload.agreement_floor},
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit, _ in table},
    }


def traced_metrics(workload, system, runtime, recorder, untraced,
                   traced) -> dict:
    """The per-layer metrics: span table plus counters read at the edges."""
    from benchmarks.e2e import harness

    metrics = dict.fromkeys(
        (name for name, _, _ in harness.LAYER_METRICS), 0.0)
    metrics.update(harness.layer_metrics(recorder))
    metrics.update(harness.runtime_metrics(runtime))
    metrics.update(harness.harness_metrics(untraced, traced,
                                           workload.prepare_s))
    rows = traced.rows
    metrics["data.synthesize_us_per_row"] = workload.synthesize_us_per_row
    produced = rows.sent if workload.name != "feeds-collect" \
        else workload.records * traced.passes
    metrics["streaming.produce_us_per_row"] = \
        metrics["streaming.produce_batch.busy_s"] / produced * 1e6
    if workload.name == "feeds-collect":
        return metrics

    metrics["streaming.lag_max_rows"] = workload.lag_max
    polls = metrics["streaming.poll_batch.calls"]
    metrics["streaming.poll_rows_mean"] = rows.answered / max(polls, 1)
    metrics["streaming.shm_bytes_staged"] = system.broker.shm_bytes_staged()
    gateway = system.gateway.stats()
    metrics["serving.submit.calls"] = gateway["submitted"]
    metrics["serving.submit.wait_p50_ms"] = \
        statistics.median(workload.submit_waits) * 1000.0
    metrics["serving.batches"] = gateway["batches"]
    metrics["serving.batch_rows_mean"] = \
        rows.answered / max(gateway["batches"], 1)
    metrics["serving.shed"] = gateway["shed"]
    metrics["serving.failed"] = gateway["failed"]
    metrics["fog.deploy_s"] = system.deploy_s
    metrics["fog.escalated_share"] = \
        workload.escalated_rows / max(rows.answered, 1)
    if system.codec is not None:
        metrics["fog.offload_bytes_saved"] = system.codec.bytes_saved
    metrics["nn.warmup_s"] = system.warmup_s
    metrics["nn.us_per_row"] = \
        metrics["nn.infer_batch.busy_s"] / max(rows.answered, 1) * 1e6
    plans = system.deployment.plan_stats()
    hits = sum(plans[stage]["hits"] - system.plan_stats[stage]["hits"]
               for stage in plans)
    misses = sum(plans[stage]["misses"] - system.plan_stats[stage]["misses"]
                 for stage in plans)
    metrics["nn.plan.hit_share"] = hits / max(hits + misses, 1)
    metrics["nn.plan.misses"] = misses
    metrics["nn.plan.arena_bytes"] = sum(
        plans[stage]["arena_bytes"] for stage in plans)
    return metrics


def print_result(result: dict) -> None:
    counts = result["counts"]
    print(f"{result['workload']}: correct={result['correct']} "
          + " ".join(f"{key}={value!r}" for key, value in counts.items()))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="wall seconds the measured phase runs")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="0 = end-to-end metrics, 1 = per-layer metrics "
                             "of a traced run")
    parser.add_argument("--trace-output", default="",
                        help="with --trace 1: write the span table here")
    args = parser.parse_args(argv)

    entry = run_workload(args.workload, args.seed, args.seconds,
                         args.trace == "1", args.trace_output)
    print(json.dumps({"header": header(args.seed)}))
    print_result(entry)
    print(json.dumps({key: entry[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
