"""Tests for span tracing and the structured event log.

The acceptance-critical property lives here: the *same* ``tracer.span``
call site records virtual-clock timestamps while a DES environment is
bound and wall-clock timestamps otherwise.
"""

import pytest

from repro.cluster.sim import Environment
from repro.runtime import Runtime, events, tracing


class TestSpans:
    def test_wall_clock_span_outside_simulation(self):
        runtime = Runtime()
        with runtime.tracer.span("op", layer="test"):
            pass
        (span,) = runtime.tracer.spans("op")
        assert span.clock == "wall"
        assert span.duration >= 0

    def test_sim_clock_span_inside_simulation(self):
        runtime = Runtime()
        env = Environment(runtime=runtime)

        def process(env):
            with runtime.tracer.span("work"):
                yield env.timeout(2.5)

        env.process(process(env))
        env.run()
        (span,) = runtime.tracer.spans("work")
        assert span.clock == "sim"
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == pytest.approx(2.5)

    def test_span_survives_generator_suspension(self):
        """A span stays open across interleaved DES processes."""
        runtime = Runtime()
        env = Environment(runtime=runtime)

        def slow(env):
            with runtime.tracer.span("slow"):
                yield env.timeout(1.0)
                yield env.timeout(1.0)

        def fast(env):
            with runtime.tracer.span("fast"):
                yield env.timeout(0.5)

        env.process(slow(env))
        env.process(fast(env))
        env.run()
        assert runtime.tracer.total_duration("slow") == pytest.approx(2.0)
        assert runtime.tracer.total_duration("fast") == pytest.approx(0.5)

    def test_same_call_site_both_clocks(self):
        """No call-site change needed to switch clock domains."""
        runtime = Runtime()

        def record():
            with runtime.tracer.span("shared"):
                pass

        record()  # outside any simulation
        env = Environment(runtime=runtime)

        def process(env):
            record()
            yield env.timeout(0)

        env.process(process(env))
        env.run()
        clocks = [s.clock for s in runtime.tracer.spans("shared")]
        assert clocks == ["wall", "sim"]

    def test_annotate_and_duration_guard(self):
        runtime = Runtime()
        with runtime.tracer.span("op") as span:
            span.annotate(outcome="committed")
            with pytest.raises(RuntimeError):
                _ = span.duration
        assert span.labels["outcome"] == "committed"

    def test_span_ids_assigned_in_start_order(self):
        runtime = Runtime()
        with runtime.tracer.span("a"):
            with runtime.tracer.span("b"):
                pass
        with runtime.tracer.span("c"):
            pass
        ids = {s.name: s.span_id for s in runtime.tracer.spans()}
        assert ids == {"a": 0, "b": 1, "c": 2}

    def test_parent_child_nesting(self):
        runtime = Runtime()
        with runtime.tracer.span("outer") as outer:
            with runtime.tracer.span("child1") as child1:
                with runtime.tracer.span("grandchild") as grand:
                    pass
            with runtime.tracer.span("child2") as child2:
                pass
        assert outer.parent_id is None
        assert child1.parent_id == outer.span_id
        assert child2.parent_id == outer.span_id
        assert grand.parent_id == child1.span_id
        assert runtime.tracer.children_of(outer) == [child1, child2]

    def test_span_tree_forest(self):
        runtime = Runtime()
        with runtime.tracer.span("root1"):
            with runtime.tracer.span("kid"):
                pass
        with runtime.tracer.span("root2"):
            pass
        forest = runtime.tracer.span_tree()
        assert [node["name"] for node in forest] == ["root1", "root2"]
        (kid,) = forest[0]["children"]
        assert kid["name"] == "kid" and kid["children"] == []

    def test_dump_carries_tree_links(self):
        runtime = Runtime()
        with runtime.tracer.span("outer"):
            with runtime.tracer.span("inner"):
                pass
        inner, outer = runtime.tracer.dump()  # completion order
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert set(inner) >= {"span_id", "parent_id", "start", "end",
                              "duration", "clock", "labels"}

    def test_nesting_across_sim_clock(self):
        """Tree links are clock-agnostic: a sim span nests under it too."""
        runtime = Runtime()
        with runtime.tracer.span("outer") as outer:
            env = Environment(runtime=runtime)

            def process(env):
                with runtime.tracer.span("sim-child"):
                    yield env.timeout(1.0)

            env.process(process(env))
            env.run()
        (child,) = runtime.tracer.spans("sim-child")
        assert child.clock == "sim"
        assert child.parent_id == outer.span_id

    def test_same_seed_runs_dump_identical_trees(self):
        def run():
            runtime = Runtime(seed=3)
            with runtime.tracer.span("req", tenant="t0"):
                with runtime.tracer.span("infer"):
                    pass
            dump = runtime.tracer.dump()
            for span in dump:
                span["start"] = span["end"] = span["duration"] = 0.0
            return dump

        assert run() == run()

    def test_total_duration_filters_labels(self):
        runtime = Runtime()
        with runtime.tracer.span("op", agent="a"):
            pass
        with runtime.tracer.span("op", agent="b"):
            pass
        both = runtime.tracer.total_duration("op")
        only_a = runtime.tracer.total_duration("op", agent="a")
        assert only_a <= both


class TestEvents:
    def test_emit_and_filter(self):
        runtime = Runtime()
        runtime.events.emit("node.failed", node="edge-0")
        runtime.events.emit("node.recovered", node="edge-0")
        assert runtime.events.count() == 2
        (failed,) = runtime.events.records("node.failed")
        assert failed.data["node"] == "edge-0"
        assert failed.clock == "wall"

    def test_events_use_sim_clock_when_bound(self):
        runtime = Runtime()
        env = Environment(runtime=runtime)

        def process(env):
            yield env.timeout(4.0)
            runtime.events.emit("late", detail=1)

        env.process(process(env))
        env.run()
        (record,) = runtime.events.records("late")
        assert record.clock == "sim"
        assert record.time == 4.0

    def test_dump_round_trips(self):
        runtime = Runtime()
        runtime.events.emit("e", b=2, a=1)
        (payload,) = runtime.events.dump()
        assert payload["kind"] == "e"
        assert list(payload["data"]) == ["a", "b"]


class TestRings:
    """Span and event stores keep a fixed window, oldest dropped first."""

    @pytest.fixture
    def runtime(self, monkeypatch):
        monkeypatch.setattr(tracing, "SPAN_RING_CAPACITY", 4)
        monkeypatch.setattr(events, "EVENT_RING_CAPACITY", 3)
        return Runtime()

    def test_oldest_spans_evicted_first(self, runtime):
        for index in range(6):
            with runtime.tracer.span("op", index=index):
                pass
        kept = runtime.tracer.spans()
        assert [span.labels["index"] for span in kept] == ["2", "3", "4", "5"]
        assert [span.span_id for span in kept] == [2, 3, 4, 5]
        assert len(runtime.tracer.dump()) == 4

    def test_reads_cover_the_retained_window(self, runtime):
        for index in range(6):
            with runtime.tracer.span("op", index=index):
                pass
        kept = runtime.tracer.spans("op")
        assert runtime.tracer.total_duration("op") == pytest.approx(
            sum(span.duration for span in kept))
        assert runtime.tracer.total_duration("op", index=0) == 0.0

    def test_spans_since_counts_past_evictions(self, runtime):
        for _ in range(4):
            with runtime.tracer.span("old"):
                pass
        for _ in range(2):
            with runtime.tracer.span("new"):
                pass
        # More recorded than the store holds: the newest four, in order,
        # and ids keep counting past the evicted ones.
        assert [(span.name, span.span_id) for span in runtime.tracer.spans()] \
            == [("old", 2), ("old", 3), ("new", 4), ("new", 5)]

    def test_child_of_evicted_parent_surfaces_as_root(self, runtime):
        # A parent that closes before its child (interleaved DES
        # processes) is also evicted before it.
        parent = runtime.tracer.span("parent")
        parent.__enter__()
        kid = runtime.tracer.span("kid")
        kid.__enter__()
        parent.__exit__(None, None, None)
        kid.__exit__(None, None, None)
        (root,) = runtime.tracer.span_tree()
        assert root["name"] == "parent"
        assert [node["name"] for node in root["children"]] == ["kid"]
        for _ in range(3):
            with runtime.tracer.span("filler"):
                pass
        forest = runtime.tracer.span_tree()
        assert [node["name"] for node in forest] == ["kid", "filler",
                                                     "filler", "filler"]
        assert forest[0]["parent_id"] == 0

    def test_oldest_events_evicted_first(self, runtime):
        for index in range(5):
            runtime.events.emit("tick", index=index)
        assert [record.data["index"] for record in runtime.events.records()] \
            == [2, 3, 4]
        assert runtime.events.count("tick") == 3
        assert len(runtime.events.dump()) == 3


class TestSpanSampler:
    def test_every_one_records_every_span(self):
        runtime = Runtime()
        sampler = runtime.tracer.sampler("op", every=1)
        for _ in range(4):
            with sampler.span(layer="test"):
                pass
        assert len(runtime.tracer.spans("op")) == 4

    def test_every_n_records_first_then_every_nth(self):
        runtime = Runtime()
        sampler = runtime.tracer.sampler("op", every=4)
        for _ in range(9):
            with sampler.span():
                pass
        # calls 0, 4 and 8 are real spans; the rest are no-ops
        assert len(runtime.tracer.spans("op")) == 3

    def test_skipped_spans_consume_no_ids(self):
        # a no-op span must not perturb span ids, or sampled and
        # unsampled runs would dump different trees
        runtime = Runtime()
        sampler = runtime.tracer.sampler("sampled", every=100)
        with sampler.span():
            pass
        for _ in range(50):
            with sampler.span():       # all no-ops
                pass
        with runtime.tracer.span("real"):
            pass
        (first,) = runtime.tracer.spans("sampled")
        (second,) = runtime.tracer.spans("real")
        assert second.span_id == first.span_id + 1

    def test_noop_span_supports_annotate(self):
        runtime = Runtime()
        sampler = runtime.tracer.sampler("op", every=2)
        with sampler.span():           # real
            pass
        with sampler.span() as span:   # no-op
            assert span.annotate(outcome="ok") is span
        assert len(runtime.tracer.spans("op")) == 1

    def test_real_spans_carry_labels(self):
        runtime = Runtime()
        sampler = runtime.tracer.sampler("op", every=1)
        with sampler.span(topic="events"):
            pass
        (span,) = runtime.tracer.spans("op")
        assert span.labels["topic"] == "events"

    def test_reset_restarts_cadence(self):
        runtime = Runtime()
        sampler = runtime.tracer.sampler("op", every=3)
        with sampler.span():           # call 0: real
            pass
        sampler.reset()
        with sampler.span():           # call 0 again: real
            pass
        assert len(runtime.tracer.spans("op")) == 2

    def test_every_validated(self):
        runtime = Runtime()
        with pytest.raises(ValueError):
            runtime.tracer.sampler("op", every=0)
