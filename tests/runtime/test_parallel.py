"""The parallel execution engine: ordering, transport, telemetry merge."""

import json
import pickle

import numpy as np
import pytest

from repro.runtime import (
    ParallelError,
    ParallelExecutor,
    Runtime,
    deterministic_dump,
    events,
    fork_available,
    get_runtime,
    tracing,
    using_runtime,
)
from repro.runtime.parallel import (
    BUSY_METRIC,
    BYTES_METRIC,
    TASK_SPAN,
    TASKS_METRIC,
    _encode_item,
    _decode_payload,
)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="platform lacks fork")


def fresh_executor(workers, **kwargs):
    return ParallelExecutor(workers=workers, **kwargs)


class TestMapOrdered:
    def test_preserves_submission_order_serial(self):
        with using_runtime(Runtime()):
            out = fresh_executor(1).map_ordered(lambda x: x * x, range(10))
        assert out == [x * x for x in range(10)]

    @needs_fork
    def test_preserves_submission_order_parallel(self):
        with using_runtime(Runtime()):
            out = fresh_executor(4).map_ordered(lambda x: x * x, range(10))
        assert out == [x * x for x in range(10)]

    @needs_fork
    def test_closures_cross_via_fork(self):
        # A lambda closing over local state is unpicklable; fork
        # inheritance is what makes it a legal task function.
        secret = {"offset": 41}
        with using_runtime(Runtime()):
            out = fresh_executor(2).map_ordered(
                lambda x: x + secret["offset"], [1, 2])
        assert out == [42, 43]
        with pytest.raises(Exception):
            pickle.dumps(lambda x: x + secret["offset"])

    def test_empty_items(self):
        with using_runtime(Runtime()):
            assert fresh_executor(4).map_ordered(lambda x: x, []) == []

    @needs_fork
    def test_worker_exception_propagates(self):
        def boom(x):
            raise ValueError(f"task {x} failed")

        with using_runtime(Runtime()):
            with pytest.raises(ValueError, match="failed"):
                fresh_executor(2).map_ordered(boom, [0, 1, 2])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ParallelError):
            ParallelExecutor(workers=0)

    @needs_fork
    def test_nested_executor_degrades_to_serial(self):
        # A task that builds its own executor must not fork grandchildren.
        def task(x):
            inner = ParallelExecutor(workers=4)
            return (inner.is_parallel,
                    inner.map_ordered(lambda v: v + 1, [x, x])[0])

        with using_runtime(Runtime()):
            out = fresh_executor(2).map_ordered(task, [5, 6])
        assert out == [(False, 6), (False, 7)]


class TestSharedMemoryTransport:
    def test_large_arrays_ship_via_shm(self):
        item = {"x": np.arange(100_000, dtype=np.float64), "tag": "a"}
        payload, staged, segments = _encode_item(item, 64 * 1024)
        try:
            assert staged == item["x"].nbytes
            assert len(segments) == 1
            attached = []
            decoded = _decode_payload(payload, attached)
            assert np.array_equal(decoded["x"], item["x"])
            assert decoded["tag"] == "a"
            assert not decoded["x"].flags.writeable
            for segment in attached:
                segment.close()
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_small_arrays_stay_inline(self):
        payload, staged, segments = _encode_item(np.arange(4), 64 * 1024)
        assert staged == 0 and segments == []
        assert np.array_equal(payload, np.arange(4))

    @needs_fork
    def test_bytes_shipped_metric(self):
        data = [np.full((300, 300), float(i)) for i in range(4)]
        with using_runtime(Runtime()) as rt:
            out = fresh_executor(2, shm_min_bytes=1024).map_ordered(
                lambda a: float(a.sum()), data, label="ship")
            shipped = rt.registry.counter(BYTES_METRIC).value(label="ship")
        assert out == [float(a.sum()) for a in data]
        assert shipped == sum(a.nbytes for a in data)

    @needs_fork
    def test_worker_result_may_alias_shared_input(self):
        # The worker pickles its result before closing the segment, so
        # returning (a view of) the shared input must work.
        data = [np.full((200, 200), 7.0)]
        with using_runtime(Runtime()):
            out = fresh_executor(2, shm_min_bytes=1024).map_ordered(
                lambda a: a[:2, :2], data + data)
        assert all(np.array_equal(r, np.full((2, 2), 7.0)) for r in out)


def emitting_task(item):
    rt = get_runtime()
    rt.registry.counter("test.parallel.items", "items seen").inc(
        part=str(item))
    rt.registry.gauge("test.parallel.last", "last item").set(float(item))
    rt.registry.histogram("test.parallel.values", "observations").observe(
        float(item) * 2.0)
    rt.events.emit("test.parallel.done", part=str(item))
    with rt.tracer.span("test.parallel.inner", part=str(item)):
        pass
    return item


class TestTelemetryMerge:
    @needs_fork
    def test_worker_metrics_merge_into_main_registry(self):
        with using_runtime(Runtime()) as rt:
            fresh_executor(4).map_ordered(emitting_task, range(6), label="m")
            counter = rt.registry.counter("test.parallel.items")
            assert counter.total() == 6
            assert counter.value(part="3") == 1
            assert rt.registry.gauge("test.parallel.last").value() == 5.0
            hist = rt.registry.histogram("test.parallel.values")
            assert sorted(hist.values()) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
            assert rt.events.count("test.parallel.done") == 6
            assert len(rt.tracer.spans("test.parallel.inner")) == 6
            assert len(rt.tracer.spans(TASK_SPAN)) == 6
            assert rt.registry.counter(TASKS_METRIC).value(label="m") == 6
            assert rt.registry.counter(BUSY_METRIC).value(label="m") > 0

    @needs_fork
    def test_dump_identical_across_worker_counts(self):
        dumps = {}
        for workers in (1, 2, 4):
            with using_runtime(Runtime(seed=9)) as rt:
                fresh_executor(workers).map_ordered(
                    emitting_task, range(8), label="sweep")
                dumps[workers] = json.dumps(deterministic_dump(rt),
                                            sort_keys=True)
        assert dumps[1] == dumps[2] == dumps[4]

    @needs_fork
    def test_span_tree_identical_across_worker_counts(self):
        """Worker-local span ids re-map onto the serial numbering."""
        trees = {}
        for workers in (1, 2, 4):
            with using_runtime(Runtime(seed=9)) as rt:
                fresh_executor(workers).map_ordered(
                    emitting_task, range(8), label="tree")
                ids = [s.span_id for s in rt.tracer.spans()]
                assert len(set(ids)) == len(ids), "duplicate span ids"
                trees[workers] = [
                    (s.name, s.span_id, s.parent_id, dict(s.labels))
                    for s in rt.tracer.spans()]
        assert trees[1] == trees[2] == trees[4]

    @needs_fork
    def test_worker_spans_nest_under_map_span(self):
        with using_runtime(Runtime()) as rt:
            fresh_executor(4).map_ordered(emitting_task, range(4), label="n")
            (map_span,) = rt.tracer.spans("runtime.parallel.map")
            tasks = rt.tracer.spans(TASK_SPAN)
            assert all(t.parent_id == map_span.span_id for t in tasks)
            by_id = {s.span_id: s for s in rt.tracer.spans()}
            for inner in rt.tracer.spans("test.parallel.inner"):
                assert by_id[inner.parent_id].name == TASK_SPAN

    @needs_fork
    def test_bounded_histogram_in_worker_rejected(self):
        def observe_bounded(item):
            get_runtime().registry.histogram(
                "test.parallel.bounded", "reservoir", max_samples=4).observe(
                    float(item))
            return item

        with using_runtime(Runtime()):
            with pytest.raises(ParallelError, match="bounded histogram"):
                fresh_executor(2).map_ordered(observe_bounded, range(4))

    @needs_fork
    def test_worker_forked_with_full_rings_still_merges(self, monkeypatch):
        """Delta capture counts recordings, not the (saturated) length."""
        monkeypatch.setattr(tracing, "SPAN_RING_CAPACITY", 16)
        monkeypatch.setattr(events, "EVENT_RING_CAPACITY", 16)
        dumps = {}
        for workers in (1, 2, 4):
            with using_runtime(Runtime(seed=9)) as rt:
                for _ in range(16):
                    with rt.tracer.span("test.parallel.prefill"):
                        pass
                    rt.events.emit("test.parallel.prefill")
                fresh_executor(workers).map_ordered(
                    emitting_task, range(4), label="ring")
                assert len(rt.tracer.spans()) == 16
                assert len(rt.tracer.spans("test.parallel.inner")) == 4
                assert len(rt.tracer.spans(TASK_SPAN)) == 4
                assert rt.events.count("test.parallel.done") == 4
                assert rt.tracer.recorded_total == 16 + 9
                dumps[workers] = json.dumps(deterministic_dump(rt),
                                            sort_keys=True)
        assert dumps[1] == dumps[2] == dumps[4]

    def test_serial_path_emits_engine_telemetry(self):
        # workers=1 must produce the same span/counter structure as the
        # pool path so worker-count sweeps compare equal.
        with using_runtime(Runtime()) as rt:
            fresh_executor(1).map_ordered(emitting_task, range(3), label="s")
            assert len(rt.tracer.spans(TASK_SPAN)) == 3
            assert rt.registry.counter(TASKS_METRIC).value(label="s") == 3


class TestDeterministicDump:
    def test_normalization_drops_engine_and_wall_fields(self):
        with using_runtime(Runtime()) as rt:
            fresh_executor(1).map_ordered(emitting_task, range(2), label="n")
            payload = deterministic_dump(rt)
        for kind in payload["metrics"].values():
            assert not any(name.startswith("runtime.parallel.")
                           for name in kind)
        assert all(span["start"] == 0.0 and span["end"] == 0.0
                   for span in payload["spans"] if span["clock"] == "wall")
        assert all(event["time"] == 0.0 for event in payload["events"]
                   if event["clock"] == "wall")
        # structure survives: task spans and user metrics are retained
        assert any(span["name"] == TASK_SPAN for span in payload["spans"])
        assert "test.parallel.items" in payload["metrics"]["counters"]
