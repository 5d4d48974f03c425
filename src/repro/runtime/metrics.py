"""Labeled metric instruments and the registry that owns them.

Three Prometheus-shaped instrument kinds, each holding any number of
labeled *series*:

- :class:`Counter` — monotonically increasing float (events, bytes,
  busy-seconds);
- :class:`Gauge` — a value that goes up and down (queue depth,
  consumer lag);
- :class:`Histogram` — observations summarized at dump time
  (latencies, delays): exact count/sum/min/max, percentiles over a
  reservoir of at most :data:`LATENCY_SAMPLES` per series.

A series is addressed by keyword labels (``counter.inc(topic="tweets")``)
and rendered in dumps as a deterministic ``"k1=v1,k2=v2"`` key, so two
identical runs produce byte-identical dumps.  Metric names follow the
``<layer>.<component>.<metric>`` convention described in DESIGN.md.

Every write goes through a *bound handle*: ``counter.bind(topic="tweets")``
validates the labels and resolves the series key, returning
a handle whose ``inc``/``set``/``observe`` is a single dict write, and
the labeled call (``counter.inc(topic="tweets")``) is
``bind(**labels)`` plus that same write.  Hot paths keep the handle;
everyone else pays one throwaway handle per call, its key looked up in
the instrument's per-label-set memo after the first call.  Binding registers the
label set but creates no series — the series appears on the first write,
so a dump is byte-identical whether a value arrived through the labeled
call or through a kept handle.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple


class MetricsError(Exception):
    """Raised for metric name/type conflicts and bad usage."""


#: Characters that would make the serialized ``k=v,...`` key ambiguous.
_FORBIDDEN_LABEL_CHARS = ("=", ",", "\n")


def _validated(labels: Dict[str, object]) -> Dict[str, str]:
    """Stringified copy of ``labels``; rejects values that would collide.

    A value containing ``=`` or ``,`` would produce a serialized key that
    parses back into different labels (or collides with another set), so
    it is rejected at write time rather than corrupting dumps silently.
    """
    out = {}
    for key, value in labels.items():
        text = str(value)
        for char in _FORBIDDEN_LABEL_CHARS:
            if char in text:
                raise MetricsError(
                    f"label {key}={text!r} contains {char!r}; "
                    "label values must not contain '=', ',' or newlines")
        out[key] = text
    return out


def series_key(labels: Dict[str, object]) -> str:
    """Deterministic string form of a label set ('' for the bare series).

    Raises :class:`MetricsError` for label values containing ``=``, ``,``
    or newlines — with those rejected, distinct label sets always map to
    distinct keys and the rendering stays parseable.
    """
    return ",".join(f"{k}={v}" for k, v in sorted(_validated(labels).items()))


class _LabeledInstrument:
    """Shared series bookkeeping: keys, label sets, structured access."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: Dict[str, object] = {}
        self._labelsets: Dict[str, Dict[str, str]] = {}
        self._keys: Dict[Tuple, str] = {}

    def _key(self, labels: Dict[str, object]) -> str:
        """The series key of ``labels``, validated; memoised per label set.

        Only all-``str`` label sets are remembered: ``1``, ``1.0`` and
        ``True`` hash alike but render as different keys, and a label set
        that failed validation never gets here, so it raises every time.
        """
        items = tuple(labels.items())
        try:
            return self._keys[items]
        except (KeyError, TypeError):      # TypeError: an unhashable value
            pass
        validated = _validated(labels)
        key = ",".join(f"{k}={v}" for k, v in sorted(validated.items()))
        if key not in self._labelsets:
            self._labelsets[key] = validated
        if all(type(value) is str for value in labels.values()):
            self._keys[items] = key
        return key

    def labels_for(self, key: str) -> Dict[str, str]:
        """The structured label set behind a serialized series key."""
        try:
            return dict(self._labelsets[key])
        except KeyError:
            raise MetricsError(
                f"metric {self.name} has no series {key!r}") from None

    def labeled_series(self) -> List[Tuple[Dict[str, str], object]]:
        """Every series as ``(labels_dict, value)``, sorted by key.

        The structured counterpart of :meth:`series`: callers filter and
        read labels directly instead of re-parsing serialized keys.
        """
        return [(dict(self._labelsets[key]), self._series[key])
                for key in sorted(self._series)]


class BoundCounter:
    """One counter series with its key pre-resolved (see ``Counter.bind``)."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: str):
        self._counter = counter
        self._key = key

    @property
    def labels(self) -> Dict[str, str]:
        return self._counter.labels_for(self._key)

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise MetricsError(
                f"counter {self._counter.name} cannot decrease "
                f"(amount={amount})")
        series = self._counter._series
        value = series.get(self._key, 0.0) + amount
        series[self._key] = value
        return value

    def value(self) -> float:
        return self._counter._series.get(self._key, 0.0)


class BoundGauge:
    """One gauge series with its key pre-resolved (see ``Gauge.bind``)."""

    __slots__ = ("_gauge", "_key")

    def __init__(self, gauge: "Gauge", key: str):
        self._gauge = gauge
        self._key = key

    @property
    def labels(self) -> Dict[str, str]:
        return self._gauge.labels_for(self._key)

    def set(self, value: float) -> None:
        self._gauge._series[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        series = self._gauge._series
        series[self._key] = series.get(self._key, 0.0) + amount

    def dec(self) -> None:
        """Lower the series by one."""
        self.inc(-1.0)

    def value(self) -> float:
        return self._gauge._series.get(self._key, 0.0)


class Counter(_LabeledInstrument):
    """A monotonically increasing metric with labeled series."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> float:
        """Add ``amount`` (>= 0) to the labeled series; returns its value.

        ``inc(0.0, ...)`` is a supported idiom for pre-creating a series
        so it shows up in dumps even when nothing happened.
        """
        return self.bind(**labels).inc(amount)

    def bind(self, **labels) -> BoundCounter:
        """A handle onto one series: labels validated and keyed once.

        The handle writes into the same series storage the labeled call
        uses, but creates no series until the first ``inc`` — binding
        alone leaves dumps untouched.
        """
        return BoundCounter(self, self._key(labels))

    def value(self, **labels) -> float:
        return self._series.get(series_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labeled series."""
        return sum(self._series.values())

    def series(self) -> Dict[str, float]:
        return dict(self._series)

    def dump(self) -> Dict[str, float]:
        return {key: self._series[key] for key in sorted(self._series)}


class Gauge(_LabeledInstrument):
    """A point-in-time value with labeled series."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.bind(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.bind(**labels).inc(amount)

    def dec(self, **labels) -> None:
        """Lower the labeled series by one."""
        self.inc(-1.0, **labels)

    def bind(self, **labels) -> BoundGauge:
        """A handle onto one series: labels validated and keyed once."""
        return BoundGauge(self, self._key(labels))

    def value(self, **labels) -> float:
        return self._series.get(series_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        return dict(self._series)

    def dump(self) -> Dict[str, float]:
        return {key: self._series[key] for key in sorted(self._series)}


def _percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolation percentile over a pre-sorted list."""
    if not ordered:
        raise MetricsError("percentile of an empty histogram")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


#: every summary/dump row carries exactly these keys, always — JSON
#: consumers of the metrics endpoint index them without existence checks
SUMMARY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")

#: observations each histogram series keeps for its percentiles; the
#: rest only update the exact aggregates, so a long-lived process holds a
#: constant number of floats per series
LATENCY_SAMPLES = 1024


class _SeriesStats:
    """One histogram series: exact streaming aggregates and a reservoir.

    ``count``/``sum``/``min``/``max`` are exact however many observations
    arrive; ``samples`` keeps at most :data:`LATENCY_SAMPLES` of them,
    chosen by Vitter's algorithm R over the series' LCG.
    """

    __slots__ = ("count", "sum", "min", "max", "lcg", "samples")

    def __init__(self, seed: int):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.lcg = seed & 0xFFFFFFFFFFFFFFFF
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        samples = self.samples
        if len(samples) < LATENCY_SAMPLES:
            samples.append(value)
        else:
            # Algorithm R: observation i replaces a reservoir slot with
            # probability LATENCY_SAMPLES / i, keeping a uniform sample.
            slot = self.next_random(self.count)
            if slot < LATENCY_SAMPLES:
                samples[slot] = value

    def next_random(self, bound: int) -> int:
        """Deterministic integer in ``[0, bound)`` (64-bit LCG step).

        A private generator (not ``runtime.rng``) on purpose: eviction
        choices must depend only on the observation sequence, so two
        identically-ordered runs keep identical reservoirs no matter what
        other components drew from the run's seeded streams.
        """
        self.lcg = (self.lcg * 6364136223846793005
                    + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        return (self.lcg >> 33) % bound


class BoundHistogram:
    """One histogram series with its key pre-resolved.

    ``observe`` is the histogram's one write path, working against a
    lazily cached reference to the series' stats, which every handle onto
    the series shares; :meth:`Histogram.observe` delegates here, so
    interleaving labeled and bound observations is indistinguishable from
    using either alone.
    """

    __slots__ = ("_histogram", "_key", "_stats")

    def __init__(self, histogram: "Histogram", key: str):
        self._histogram = histogram
        self._key = key
        self._stats: Optional[_SeriesStats] = None

    @property
    def labels(self) -> Dict[str, str]:
        return self._histogram.labels_for(self._key)

    def observe(self, value: float) -> None:
        stats = self._stats
        if stats is None:
            stats = self._stats = self._histogram._stats_for(self._key)
        stats.observe(float(value))

    def count(self) -> int:
        stats = self._histogram._series.get(self._key)
        return stats.count if stats is not None else 0


class Histogram(_LabeledInstrument):
    """Observation histogram; summaries are computed at read time.

    Each series keeps a deterministic reservoir of at most
    :data:`LATENCY_SAMPLES` observations (algorithm R, per-series LCG
    seeded from the metric and series names) while
    ``count``/``sum``/``min``/``max``/``mean`` stay *exact* via streaming
    aggregates — only the percentiles of a longer series are reservoir
    estimates.  A million-request serving run then holds a constant
    number of floats per series instead of a million.
    """

    kind = "histogram"

    def _stats_for(self, key: str) -> _SeriesStats:
        stats = self._series.get(key)
        if stats is None:
            stats = _SeriesStats(zlib.crc32(f"{self.name}|{key}".encode()))
            self._series[key] = stats
        return stats

    def observe(self, value: float, **labels) -> None:
        self.bind(**labels).observe(value)

    def bind(self, **labels) -> BoundHistogram:
        """A handle onto one series: labels validated and keyed once.

        Reservoir semantics are identical to labeled ``observe`` calls;
        the series (and its LCG state) appears on the first observation,
        not at bind time.
        """
        return BoundHistogram(self, self._key(labels))

    def values(self, **labels) -> List[float]:
        """Retained observations (all of them up to the reservoir size)."""
        stats = self._series.get(series_key(labels))
        return list(stats.samples) if stats is not None else []

    def count(self, **labels) -> int:
        """Exact number of observations, evicted ones included."""
        stats = self._series.get(series_key(labels))
        return stats.count if stats is not None else 0

    def summary(self, **labels) -> Dict[str, Optional[float]]:
        return self._summary_for(series_key(labels))

    def _summary_for(self, key: str) -> Dict[str, Optional[float]]:
        """Schema-stable summary: every :data:`SUMMARY_KEYS` key, always.

        Undefined statistics of an empty series are ``None`` (JSON
        ``null``) rather than absent, so metric consumers never KeyError
        on a series that exists but has no observations yet.
        """
        stats = self._series.get(key)
        if stats is None or stats.count == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "p50": None, "p95": None, "p99": None}
        ordered = sorted(stats.samples)
        return {
            "count": stats.count,
            "sum": stats.sum,
            "min": stats.min,
            "max": stats.max,
            "mean": stats.sum / stats.count,
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
        }

    def series(self) -> Dict[str, List[float]]:
        return {key: list(stats.samples)
                for key, stats in self._series.items()}

    def labeled_series(self) -> List[Tuple[Dict[str, str], List[float]]]:
        return [(labels, list(stats.samples))
                for labels, stats in super().labeled_series()]

    def dump(self) -> Dict[str, Dict[str, Optional[float]]]:
        return {key: self._summary_for(key) for key in sorted(self._series)}


class MetricsRegistry:
    """Get-or-create home for every instrument in one runtime.

    Names are globally unique across kinds: asking for an existing name
    with a different instrument kind is an error, so a typo cannot
    silently fork a metric.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, kind: str, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._KINDS[kind](name, help)
            self._metrics[name] = metric
            return metric
        if metric.kind != kind:
            raise MetricsError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create("counter", name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create("gauge", name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create("histogram", name, help)

    def get(self, name: str):
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricsError(f"no such metric: {name}") from None

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def dump(self) -> Dict[str, Dict]:
        """{kind: {name: {series_key: value-or-summary}}}, fully sorted."""
        out: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[metric.kind + "s"][name] = metric.dump()
        return out
