"""Shared measurement machinery: noise rules, pass loop, metric assembly.

The four noise rules every timed number obeys (see README.md):

1. many short passes, the run reports the median across passes;
2. every pass and every set-up repeat is bracketed by the reference
   kernel and divided by the speed factor it saw (closed loop only — an
   open-loop schedule is wall-clock, so its latencies stay raw);
3. the tail is the median over windows of the window's p95, each window
   holding at least :data:`WINDOW_MIN_SAMPLES` samples, so one host
   stall owns one window, not the metric — stalls land in
   ``within_limit_share``, which counts every operation;
4. ``setup_s`` is the corrected median of repeated fresh set-ups, half
   of them made before the measured phase and half after it, so that a
   slow spell of the host that covers one half leaves the median in the
   other.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.e2e.refkernel import RefKernel, correct, speed_factors
from benchmarks.e2e.trace import IDLE, Recorder
from benchmarks.perf.bench_serving import percentile

#: a p95 needs >= 10 samples beyond it
WINDOW_MIN_SAMPLES = 200

#: (name, unit, better) of every end-to-end metric, in report order
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("within_limit_share", "share", "higher"),
    ("output_agreement", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run
LAYER_METRICS = (
    ("harness.generate_s", "s", "lower"),
    ("harness.late_p95_ms", "ms", "lower"),
    ("harness.latency_p95_ms", "ms", "lower"),
    ("harness.rush_p95_ms", "ms", "lower"),
    ("harness.ref_kernel_ms", "ms", "lower"),
    ("harness.speed_factor_spread", "share", "lower"),
    ("harness.raw_rows_per_s", "1/s", "higher"),
    ("harness.prepare_s", "s", "lower"),
    ("harness.trace_overhead_share", "share", "lower"),
    ("harness.unattributed_share", "share", "lower"),
    ("harness.idle_share", "share", "higher"),
    ("streaming.produce_batch.calls", "count", "lower"),
    ("streaming.produce_batch.busy_s", "s", "lower"),
    ("streaming.produce_us_per_row", "us", "lower"),
    ("streaming.poll_batch.calls", "count", "lower"),
    ("streaming.poll_batch.busy_s", "s", "lower"),
    ("streaming.poll_rows_mean", "count", "higher"),
    ("streaming.regroup.busy_s", "s", "lower"),
    ("streaming.commit.calls", "count", "lower"),
    ("streaming.commit.busy_s", "s", "lower"),
    ("streaming.membership.busy_s", "s", "lower"),
    ("streaming.poll.busy_s", "s", "lower"),
    ("streaming.flume.busy_s", "s", "lower"),
    ("streaming.lag_max_rows", "count", "lower"),
    ("streaming.shm_bytes_staged", "B", "lower"),
    ("streaming.share", "share", "lower"),
    ("serving.submit.calls", "count", "lower"),
    ("serving.submit.wait_p50_ms", "ms", "lower"),
    ("serving.pump.calls", "count", "lower"),
    ("serving.batches", "count", "lower"),
    ("serving.batch_rows_mean", "count", "higher"),
    ("serving.shed", "count", "lower"),
    ("serving.failed", "count", "lower"),
    ("serving.self_s", "s", "lower"),
    ("serving.share", "share", "lower"),
    ("fog.deploy_s", "s", "lower"),
    ("fog.serve_batched.calls", "count", "lower"),
    ("fog.serve_batched.busy_s", "s", "lower"),
    ("fog.self_s", "s", "lower"),
    ("fog.escalated_share", "share", "lower"),
    ("fog.codec.busy_s", "s", "lower"),
    ("fog.offload_bytes_saved", "B", "higher"),
    ("fog.share", "share", "lower"),
    ("nn.warmup_s", "s", "lower"),
    ("nn.infer_batch.calls", "count", "lower"),
    ("nn.infer_batch.busy_s", "s", "lower"),
    ("nn.us_per_row", "us", "lower"),
    ("nn.plan.hit_share", "share", "higher"),
    ("nn.plan.misses", "count", "lower"),
    ("nn.plan.arena_bytes", "B", "lower"),
    ("nn.share", "share", "lower"),
    ("runtime.spans_recorded", "count", "lower"),
    ("runtime.series_count", "count", "lower"),
    ("runtime.events_recorded", "count", "lower"),
    ("runtime.dump_s", "s", "lower"),
    ("core.pipeline.self_s", "s", "lower"),
    ("nosql.insert.calls", "count", "lower"),
    ("nosql.insert.busy_s", "s", "lower"),
    ("nosql.find.busy_s", "s", "lower"),
    ("nosql.share", "share", "lower"),
    ("compute.reduce.busy_s", "s", "lower"),
    ("compute.share", "share", "lower"),
    ("viz.render.busy_s", "s", "lower"),
    ("data.synthesize_us_per_row", "us", "lower"),
)

ROOT = "harness.pass"
GENERATE = "harness.generate"
PUMP = "serving.pump"


# -- statistics -----------------------------------------------------------------
def spread(values: Sequence[float]) -> float:
    """(max - min) / median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def windowed(windows: Sequence[Sequence[float]], q: float,
             min_samples: int = WINDOW_MIN_SAMPLES) -> float:
    """Median over windows of each window's ``q``-percentile (noise rule 3).

    Consecutive windows are merged until each holds ``min_samples``
    samples (a drain pass with 16 requests is not a window by itself);
    a short tail joins the window before it.
    """
    merged: List[List[float]] = []
    current: List[float] = []
    for window in windows:
        current.extend(window)
        if len(current) >= min_samples:
            merged.append(current)
            current = []
    if current:
        if merged:
            merged[-1].extend(current)
        else:
            merged.append(current)
    return statistics.median(percentile(window, q) for window in merged)


# -- what one run measured ---------------------------------------------------------
@dataclass
class Rows:
    """Exact row accounting; ``sent`` must equal the other three summed."""

    sent: int = 0
    answered: int = 0
    shed: int = 0
    failed: int = 0
    correct: int = 0

    def add(self, other: "Rows") -> None:
        for name in ("sent", "answered", "shed", "failed", "correct"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def balanced(self) -> bool:
        return self.answered + self.shed + self.failed == self.sent


@dataclass
class PassResult:
    """One closed-loop pass: raw seconds, rows, and its operations."""

    seconds: float
    rows: Rows
    #: (raw latency seconds, rows answered correctly) per operation
    ops: List[Tuple[float, int]]


@dataclass
class Measurement:
    """A measured phase, reduced to what the metrics need."""

    wall_s: float
    passes: int
    rows: Rows
    rows_per_s: float
    raw_rows_per_s: float
    #: latency samples in milliseconds, one list per window
    windows_ms: List[List[float]]
    #: rows answered correctly within the workload's limit
    rows_within_limit: int
    #: median seconds per pass, corrected (open loop: median latency);
    #: traced over untraced is the tracing overhead
    pass_s: float
    factors: List[float] = field(default_factory=list)
    ref_times: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    #: open loop: the windows whose frames were due in the rush hour
    rush_windows_ms: List[List[float]] = field(default_factory=list)


@contextmanager
def root_span(recorder, request: Tuple) -> Iterator[None]:
    """The per-pass root every other span of the pass hangs under."""
    recorder.request = request
    with recorder.span(ROOT):
        yield


def run_closed(one_pass: Callable[[int], PassResult], limit_s: float,
               seconds: Optional[float] = None,
               passes: Optional[int] = None) -> Measurement:
    """Passes back to back, each bracketed by the reference kernel.

    Runs for ``seconds`` of wall time, or for exactly ``passes`` passes
    when given (the traced run: its counts must repeat).
    """
    kernel = RefKernel()
    kernel.run()  # first call pays page faults on the kernel's buffers
    started = time.perf_counter()
    ref_times = [kernel.run()]
    results: List[PassResult] = []
    while (len(results) < passes if passes is not None
           else time.perf_counter() - started < seconds or not results):
        results.append(one_pass(len(results)))
        ref_times.append(kernel.run())
    wall = time.perf_counter() - started

    factors = speed_factors(ref_times)
    corrected = correct([result.seconds for result in results], ref_times)
    rows = Rows()
    windows: List[List[float]] = []
    within = 0
    for result, factor in zip(results, factors):
        rows.add(result.rows)
        window = []
        for latency, good_rows in result.ops:
            latency /= factor
            window.append(latency * 1000.0)
            if latency <= limit_s:
                within += good_rows
        windows.append(window)
    return Measurement(
        wall_s=wall, passes=len(results), rows=rows,
        rows_per_s=statistics.median(
            result.rows.correct / seconds_
            for result, seconds_ in zip(results, corrected)),
        raw_rows_per_s=statistics.median(
            result.rows.correct / result.seconds for result in results),
        windows_ms=windows, rows_within_limit=within,
        pass_s=statistics.median(corrected),
        factors=factors, ref_times=ref_times)


def repeat_setup(set_up: Callable[[], object],
                 tear_down: Callable[[object], None],
                 repeats: int) -> Tuple[List[float], object]:
    """Corrected seconds of each of ``repeats`` fresh set-ups (rule 4).

    Returns the last repeat's system too: it is as fresh as any and the
    run needs one.
    """
    kernel = RefKernel()
    kernel.run()
    ref_times = [kernel.run()]
    raw: List[float] = []
    system = None
    for _ in range(repeats):
        if system is not None:
            tear_down(system)
            system = None
        # Drop the previous system for real (its module graph is cyclic),
        # or peak RSS would count several systems, not one.
        gc.collect()
        start = time.perf_counter()
        system = set_up()
        raw.append(time.perf_counter() - start)
        ref_times.append(kernel.run())
    return correct(raw, ref_times), system


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(measured: Measurement, setup_s: float) -> Dict[str, float]:
    rows = measured.rows
    return {
        "setup_s": setup_s,
        "rows_per_s": measured.rows_per_s,
        "latency_p50_ms": statistics.median(
            value for window in measured.windows_ms for value in window),
        "within_limit_share": measured.rows_within_limit / rows.sent,
        "output_agreement": rows.correct / rows.sent,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- per-layer attribution ------------------------------------------------------------
def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Everything the span table alone determines.

    ``<layer>.share`` is the self time of the layer's spans over traced
    wall time (the root spans' total).  The root spans' own self time is
    what no layer, the generator or the idle loop accounts for.
    """
    names = recorder.by_name()
    wall = names[ROOT]["busy_s"]

    def busy(name: str) -> float:
        return names.get(name, {}).get("busy_s", 0.0)

    def own(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(names.get(name, {}).get("calls", 0))

    def share(layer: str) -> float:
        return sum(row["self_s"] for name, row in names.items()
                   if name.startswith(layer + ".")) / wall

    return {
        "harness.generate_s": own(GENERATE),
        "harness.unattributed_share": own(ROOT) / wall,
        "harness.idle_share": own(IDLE) / wall,
        "streaming.produce_batch.calls": calls("streaming.produce_batch"),
        "streaming.produce_batch.busy_s": busy("streaming.produce_batch"),
        "streaming.poll_batch.calls": calls("streaming.poll_batch"),
        "streaming.poll_batch.busy_s": busy("streaming.poll_batch"),
        "streaming.regroup.busy_s": busy("streaming.regroup"),
        "streaming.commit.calls": calls("streaming.commit"),
        "streaming.commit.busy_s": busy("streaming.commit"),
        "streaming.membership.busy_s": busy("streaming.membership"),
        "streaming.poll.busy_s": busy("streaming.poll"),
        "streaming.flume.busy_s": own("streaming.flume"),
        "streaming.share": share("streaming"),
        "serving.pump.calls": calls(PUMP),
        "serving.self_s": own(PUMP),
        "serving.share": share("serving"),
        "fog.serve_batched.calls": calls("fog.serve_batched"),
        "fog.serve_batched.busy_s": busy("fog.serve_batched"),
        "fog.self_s": own("fog.serve_batched"),
        "fog.codec.busy_s": busy("fog.codec"),
        "fog.share": share("fog"),
        "nn.infer_batch.calls": calls("nn.infer_batch"),
        "nn.infer_batch.busy_s": own("nn.infer_batch"),
        "nn.share": share("nn"),
        "core.pipeline.self_s": own("core.pipeline"),
        "nosql.insert.calls": calls("nosql.insert"),
        "nosql.insert.busy_s": busy("nosql.insert"),
        "nosql.find.busy_s": busy("nosql.find"),
        "nosql.share": share("nosql"),
        "compute.reduce.busy_s": busy("compute.reduce"),
        "compute.share": share("compute"),
        "viz.render.busy_s": busy("viz.render"),
    }


def runtime_metrics(runtime) -> Dict[str, float]:
    """Sizes of ``Runtime.dump()`` sections — telemetry growth."""
    start = time.perf_counter()
    dump = runtime.dump()
    elapsed = time.perf_counter() - start
    return {
        "runtime.spans_recorded": len(dump["spans"]),
        "runtime.series_count": sum(
            len(series) for kind in dump["metrics"].values()
            for series in kind.values()),
        "runtime.events_recorded": len(dump["events"]),
        "runtime.dump_s": elapsed,
    }


def harness_metrics(untraced: Measurement, traced: Measurement,
                    prepare_s: float) -> Dict[str, float]:
    ref_times = untraced.ref_times or [0.0]
    lateness = traced.lateness_ms or [0.0]
    return {
        "harness.late_p95_ms": percentile(lateness, 0.95),
        "harness.latency_p95_ms": windowed(untraced.windows_ms, 0.95),
        "harness.rush_p95_ms": (windowed(untraced.rush_windows_ms, 0.95)
                                if untraced.rush_windows_ms else 0.0),
        "harness.ref_kernel_ms": statistics.median(ref_times) * 1000.0,
        "harness.speed_factor_spread": (spread(untraced.factors)
                                        if untraced.factors else 0.0),
        "harness.raw_rows_per_s": untraced.raw_rows_per_s,
        "harness.prepare_s": prepare_s,
        "harness.trace_overhead_share":
            traced.pass_s / untraced.pass_s - 1.0,
    }
