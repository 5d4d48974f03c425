"""Shared-memory ndarray staging and the deterministic dump."""

from multiprocessing import shared_memory

import numpy as np

from repro.runtime import Runtime, deterministic_dump, using_runtime
from repro.runtime.parallel import SharedArrayRef, share_ndarrays


def attach(ref, opened):
    """A read-only view of a staged array; the segment goes into ``opened``."""
    segment = shared_memory.SharedMemory(name=ref.segment)
    opened.append(segment)
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf)
    view.flags.writeable = False
    return view


class TestSharedMemoryTransport:
    def test_large_arrays_ship_via_shm(self):
        item = {"x": np.arange(100_000, dtype=np.float64), "tag": "a"}
        payload, staged, segments = share_ndarrays(item, 64 * 1024)
        opened = []
        try:
            assert staged == item["x"].nbytes
            assert len(segments) == 1
            assert isinstance(payload["x"], SharedArrayRef)
            assert payload["tag"] == "a"
            view = attach(payload["x"], opened)
            assert np.array_equal(view, item["x"])
            del view
        finally:
            for segment in opened:
                segment.close()
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_small_arrays_stay_inline(self):
        payload, staged, segments = share_ndarrays(np.arange(4), 64 * 1024)
        assert staged == 0 and segments == []
        assert np.array_equal(payload, np.arange(4))


class TestDeterministicDump:
    def test_normalization_drops_engine_and_wall_fields(self):
        with using_runtime(Runtime()) as rt:
            rt.registry.counter("test.dump.items", "items seen").inc(part="0")
            rt.registry.counter("nn.plan.cache_misses", "plan captures").inc()
            rt.registry.histogram("nn.infer.latency_s", "wall seconds"
                                  ).observe(0.5, model="m")
            rt.events.emit("test.dump.done", part="0")
            with rt.tracer.span("test.dump.task", part="0"):
                pass
            payload = deterministic_dump(rt)
        names = {name for kind in payload["metrics"].values() for name in kind}
        assert not any(name.startswith("nn.plan.") for name in names)
        assert "nn.infer.latency_s" not in names
        assert all(span["start"] == 0.0 and span["end"] == 0.0
                   for span in payload["spans"] if span["clock"] == "wall")
        assert all(event["time"] == 0.0 for event in payload["events"]
                   if event["clock"] == "wall")
        # structure survives: spans, events and user metrics are retained
        assert [span["name"] for span in payload["spans"]] == [
            "test.dump.task"]
        assert [event["kind"] for event in payload["events"]] == [
            "test.dump.done"]
        assert "test.dump.items" in payload["metrics"]["counters"]
