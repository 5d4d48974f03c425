"""Tests for the metric instruments and registry."""

import pytest

from repro.runtime import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    series_key,
)


class TestSeriesKey:
    def test_empty_labels(self):
        assert series_key({}) == ""

    def test_sorted_deterministic(self):
        assert series_key({"b": 2, "a": 1}) == "a=1,b=2"
        assert series_key({"a": 1, "b": 2}) == "a=1,b=2"


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_independent(self):
        counter = Counter("c")
        counter.inc(topic="a")
        counter.inc(3, topic="b")
        assert counter.value(topic="a") == 1
        assert counter.value(topic="b") == 3
        assert counter.total() == 4

    def test_rejects_negative(self):
        with pytest.raises(MetricsError):
            Counter("c").inc(-1)

    def test_zero_inc_precreates_series(self):
        counter = Counter("c")
        counter.inc(0.0, machine="edge-0")
        assert "machine=edge-0" in counter.dump()

    def test_dump_sorted(self):
        counter = Counter("c")
        counter.inc(topic="z")
        counter.inc(topic="a")
        assert list(counter.dump()) == ["topic=a", "topic=z"]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value() == 3

    def test_can_go_negative(self):
        gauge = Gauge("g")
        gauge.dec(2)
        assert gauge.value() == -2


class TestHistogram:
    def test_observe_and_summary(self):
        hist = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.5

    def test_empty_summary_schema_stable(self):
        """Empty series carry the full 8-key schema with None statistics.

        JSON consumers of the metrics endpoint index p99/min/max without
        existence checks; an empty series must not shrink the schema.
        """
        summary = Histogram("h").summary()
        assert summary == {"count": 0, "sum": 0.0, "min": None, "max": None,
                           "mean": None, "p50": None, "p95": None, "p99": None}

    def test_summary_schema_identical_empty_and_populated(self):
        hist = Histogram("h")
        empty_keys = set(hist.summary())
        hist.observe(3.0)
        assert set(hist.summary()) == empty_keys

    def test_dump_uses_stable_schema(self):
        hist = Histogram("h")
        hist.observe(1.0, run="a")
        (row,) = hist.dump().values()
        assert list(row) == ["count", "sum", "min", "max",
                             "mean", "p50", "p95", "p99"]

    def test_single_observation_percentiles(self):
        hist = Histogram("h")
        hist.observe(7.0)
        summary = hist.summary()
        assert summary["p50"] == summary["p95"] == summary["p99"] == 7.0

    def test_labeled_values(self):
        hist = Histogram("h")
        hist.observe(1.0, run="a")
        hist.observe(2.0, run="b")
        assert hist.values(run="a") == [1.0]
        assert hist.count(run="b") == 1


class TestHistogramReservoir:
    def test_unbounded_by_default(self):
        hist = Histogram("h")
        for i in range(1000):
            hist.observe(float(i))
        assert len(hist.values()) == 1000

    def test_bounded_series_holds_at_most_max_samples(self):
        hist = Histogram("h", max_samples=64)
        for i in range(10_000):
            hist.observe(float(i))
        assert len(hist.values()) == 64
        assert hist.count() == 10_000

    def test_aggregates_exact_under_eviction(self):
        hist = Histogram("h", max_samples=8)
        values = [float(i) for i in range(500)]
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 500
        assert summary["sum"] == sum(values)
        assert summary["min"] == 0.0
        assert summary["max"] == 499.0
        assert summary["mean"] == sum(values) / 500

    def test_reservoir_percentiles_are_estimates_in_range(self):
        hist = Histogram("h", max_samples=128)
        for i in range(20_000):
            hist.observe(float(i))
        summary = hist.summary()
        assert 0.0 <= summary["p50"] <= 19_999.0
        # a uniform reservoir's median lands near the true median
        assert abs(summary["p50"] - 10_000.0) < 4_000.0

    def test_eviction_deterministic_across_instances(self):
        def build():
            hist = Histogram("same-name", max_samples=32)
            for i in range(5_000):
                hist.observe(float(i), run="r")
            return hist.values(run="r")

        assert build() == build()

    def test_per_series_independent_reservoirs(self):
        hist = Histogram("h", max_samples=4)
        for i in range(100):
            hist.observe(float(i), run="a")
        hist.observe(1.0, run="b")
        assert len(hist.values(run="a")) == 4
        assert hist.values(run="b") == [1.0]
        assert hist.count(run="a") == 100

    def test_max_samples_validated(self):
        with pytest.raises(MetricsError):
            Histogram("h", max_samples=0)

    def test_registry_bound_is_sticky(self):
        registry = MetricsRegistry()
        bounded = registry.histogram("x", max_samples=16)
        assert registry.histogram("x") is bounded             # inherit
        assert registry.histogram("x", max_samples=16) is bounded
        with pytest.raises(MetricsError):
            registry.histogram("x", max_samples=32)

    def test_registry_kind_conflict_still_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.histogram("x", max_samples=4)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")
        with pytest.raises(MetricsError):
            registry.histogram("x")

    def test_get_unknown_raises(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().get("missing")

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a")
        assert "a" in registry
        assert registry.names() == ["a", "b"]

    def test_dump_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(2.0)
        dump = registry.dump()
        assert set(dump) == {"counters", "gauges", "histograms"}
        assert dump["counters"]["c"][""] == 5
        assert dump["gauges"]["g"][""] == 1
        assert dump["histograms"]["h"][""]["count"] == 1


class TestLabelValidationAndStructuredAccess:
    def test_label_value_with_comma_rejected_at_write_time(self):
        counter = Counter("c")
        with pytest.raises(MetricsError):
            counter.inc(1.0, hop="a,b")

    def test_label_value_with_equals_rejected_at_write_time(self):
        counter = Counter("c")
        with pytest.raises(MetricsError):
            counter.inc(1.0, hop="a=b")

    def test_label_value_with_newline_rejected(self):
        gauge = Gauge("g")
        with pytest.raises(MetricsError):
            gauge.set(1.0, name="a\nb")
        histogram = Histogram("h")
        with pytest.raises(MetricsError):
            histogram.observe(1.0, name="x,y")

    def test_forbidden_value_raises_on_every_call(self):
        counter = Counter("c")
        counter.inc(1.0, hop="a")
        for _ in range(3):
            with pytest.raises(MetricsError):
                counter.inc(1.0, hop="a,b")
        assert counter.dump() == {"hop=a": 1.0}

    def test_repeated_label_sets_resolve_to_the_key_a_first_call_gets(self):
        counter = Counter("c")
        for _ in range(3):
            counter.inc(1.0, tenant="cam-a", reason="full")
            counter.inc(1.0, reason="full", tenant="cam-a")   # other order
            counter.inc(1.0, tenant="cam-b", reason="full")
        assert counter.dump() == {"reason=full,tenant=cam-a": 6.0,
                                  "reason=full,tenant=cam-b": 3.0}
        assert counter.labels_for("reason=full,tenant=cam-a") == {
            "reason": "full", "tenant": "cam-a"}

    def test_equal_hashing_values_keep_their_own_series(self):
        # 1 == 1.0 == True and they hash alike, but render differently
        gauge = Gauge("g")
        for _ in range(2):
            gauge.inc(1.0, part=1)
            gauge.inc(1.0, part=1.0)
            gauge.inc(1.0, part=True)
            gauge.inc(1.0, part="1")
        assert gauge.dump() == {"part=1": 4.0, "part=1.0": 2.0,
                                "part=True": 2.0}

    def test_unhashable_label_value_is_stringified(self):
        counter = Counter("c")
        counter.inc(1.0, shape=[2])
        counter.inc(1.0, shape=[2])
        assert counter.dump() == {"shape=[2]": 2.0}

    def test_series_key_rejects_ambiguous_values(self):
        with pytest.raises(MetricsError):
            series_key({"hop": "edge-0->fog-0,server-1"})

    def test_labeled_series_round_trips_label_structure(self):
        counter = Counter("bytes")
        # These two would have collided under naive string parsing if a
        # machine name were allowed to contain the separator characters;
        # with structured access the labels come back as dicts.
        counter.inc(10, hop="edge-0->fog-0", run="r1")
        counter.inc(20, hop="fog-0->server-0", run="r1")
        counter.inc(5, hop="edge-0->fog-0", run="r2")
        series = counter.labeled_series()
        assert ({"hop": "edge-0->fog-0", "run": "r1"}, 10.0) in series
        assert ({"hop": "fog-0->server-0", "run": "r1"}, 20.0) in series
        run1 = {labels["hop"]: value for labels, value in series
                if labels["run"] == "r1"}
        assert run1 == {"edge-0->fog-0": 10.0, "fog-0->server-0": 20.0}

    def test_labeled_series_sorted_and_copied(self):
        gauge = Gauge("g")
        gauge.set(2.0, zone="b")
        gauge.set(1.0, zone="a")
        series = gauge.labeled_series()
        assert [labels["zone"] for labels, _ in series] == ["a", "b"]
        series[0][0]["zone"] = "mutated"
        assert gauge.labeled_series()[0][0]["zone"] == "a"

    def test_histogram_labeled_series_copies_values(self):
        histogram = Histogram("h")
        histogram.observe(1.0, run="r")
        series = histogram.labeled_series()
        series[0][1].append(99.0)
        assert histogram.values(run="r") == [1.0]

    def test_labels_for_known_and_unknown_key(self):
        counter = Counter("c")
        counter.inc(1.0, a="x", b="y")
        assert counter.labels_for("a=x,b=y") == {"a": "x", "b": "y"}
        with pytest.raises(MetricsError):
            counter.labels_for("nope=1")


class TestBoundHandles:
    def test_bound_counter_writes_same_series(self):
        counter = Counter("c")
        produced = counter.bind(topic="events")
        produced.inc()
        produced.inc(2.5)
        counter.inc(0.5, topic="events")
        assert counter.value(topic="events") == 4.0
        assert produced.value() == 4.0
        assert produced.labels == {"topic": "events"}

    def test_bound_counter_rejects_negative(self):
        handle = Counter("c").bind(topic="a")
        with pytest.raises(MetricsError):
            handle.inc(-1)

    def test_bind_creates_no_series_until_first_write(self):
        bound = Counter("c")
        bound.bind(topic="idle")
        labeled = Counter("c")
        assert bound.dump() == labeled.dump()
        assert bound.total() == labeled.total() == 0.0

    def test_bound_and_labeled_dumps_identical(self):
        def write(use_bind):
            counter = Counter("c")
            if use_bind:
                handle = counter.bind(topic="a", tier="edge")
                for _ in range(5):
                    handle.inc(2)
            else:
                for _ in range(5):
                    counter.inc(2, topic="a", tier="edge")
            return counter.dump()

        assert write(True) == write(False)

    def test_bind_validates_labels_eagerly(self):
        with pytest.raises(MetricsError):
            Counter("c").bind(topic="a,b")

    def test_bound_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        depth = gauge.bind(queue="q0")
        depth.set(10)
        depth.inc(2)
        depth.dec(5)
        assert gauge.value(queue="q0") == 7
        assert depth.value() == 7

    def test_bound_histogram_matches_labeled_observations(self):
        def observe(use_bind):
            hist = Histogram("h")
            if use_bind:
                handle = hist.bind(op="fetch")
                for i in range(50):
                    handle.observe(float(i))
            else:
                for i in range(50):
                    hist.observe(float(i), op="fetch")
            return hist.dump()

        assert observe(True) == observe(False)

    def test_bound_histogram_reservoir_byte_parity(self):
        # Algorithm R evictions must land on the same samples whichever
        # write path fed the series — the dump-parity contract.
        def observe(use_bind):
            hist = Histogram("h", max_samples=16)
            handle = hist.bind(op="fetch") if use_bind else None
            for i in range(2_000):
                if use_bind:
                    handle.observe(float(i))
                else:
                    hist.observe(float(i), op="fetch")
            return hist.values(op="fetch"), hist.count(op="fetch")

        assert observe(True) == observe(False)

    def test_bound_histogram_count(self):
        hist = Histogram("h")
        handle = hist.bind(op="x")
        assert handle.count() == 0
        handle.observe(1.0)
        handle.observe(2.0)
        assert handle.count() == 2

    def test_interleaved_bound_and_labeled_reservoir(self):
        hist = Histogram("h", max_samples=8)
        handle = hist.bind(op="x")
        for i in range(100):
            (handle.observe if i % 2 else
             lambda v: hist.observe(v, op="x"))(float(i))
        assert hist.count(op="x") == 100
        assert len(hist.values(op="x")) == 8

    @pytest.mark.parametrize("make, write", [
        (lambda: Counter("m"),
         lambda target, value, **labels: target.inc(value, **labels)),
        (lambda: Gauge("m"),
         lambda target, value, **labels: target.set(value, **labels)),
        (lambda: Gauge("m"),
         lambda target, value, **labels: target.inc(value, **labels)),
        (lambda: Histogram("m", max_samples=8),
         lambda target, value, **labels: target.observe(value, **labels)),
    ], ids=["counter-inc", "gauge-set", "gauge-inc", "bounded-histogram"])
    def test_interleaved_writes_dump_like_an_all_bound_run(self, make, write):
        # labeled, bound, labeled, ... on one series — 100 writes, so the
        # bounded histogram is far past max_samples — must leave the dump
        # an all-bound run leaves: the contract the parallel engine's
        # snapshot-diff merge relies on.
        def run(interleave):
            metric = make()
            handle = metric.bind(op="x", tier="edge")
            for i in range(100):
                if interleave and i % 3 != 1:
                    write(metric, float(i), op="x", tier="edge")
                else:
                    write(handle, float(i))
            return metric.dump()

        assert run(True) == run(False) != {}
