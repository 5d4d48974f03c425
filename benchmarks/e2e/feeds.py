"""``feeds-collect``: the Fig. 4 batch job, feed -> Flume -> broker -> NoSQL -> Spark -> chart.

The streaming layer used the other way round from the camera workloads:
small dict records, the per-record ``poll``/``Record`` path, Flume
transactions of 25 and a commit per 100 records — plus ``nosql``,
``compute`` and ``viz``, which no camera workload touches.  ``nn``,
``fog`` and ``serving`` do nothing here.

Each pass runs ``run_collection_pipeline`` on a fresh
``CyberInfrastructure`` (the document store would otherwise grow from
pass to pass); building it is set-up, not pass time.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.e2e.harness import (
    Measurement,
    PassResult,
    Rows,
    root_span,
    run_closed,
)
from benchmarks.e2e.trace import NoTrace
from repro.compute.rdd import RDD, SparkContext
from repro.core import infrastructure
from repro.core.infrastructure import CyberInfrastructure
from repro.data import OpenCityData, TweetGenerator, WazeGenerator
from repro.nosql.mongo import Collection
from repro.runtime import get_runtime
from repro.streaming.broker import Broker, Consumer
from repro.streaming.flume import FlumeAgent

CRIME_DAYS = 200
TWEET_USERS, TWEETS = 150, 6000
WAZE_REPORTS = 3000
ANALYSIS_FIELD = "district"
#: (feed name, the field that identifies one record)
FEEDS = (("crime", "incident_id"), ("tweets", "tweet_id"),
         ("waze", "report_id"))
#: ``bar_chart_svg`` draws into 240 px minus two 30 px margins
CHART_HEIGHT = 180.0
LIMIT_S = 1.0
AGREEMENT_FLOOR = 1.0
TRACED_PASSES = 50

#: ``insert`` runs once per record, ~1 us a call: timing every call would
#: cost more than the call, so one in 16 is timed and counted 16-fold
INSERT_SAMPLE_EVERY = 16

#: public attributes timed in the traced run: the program builds these
#: objects itself, so there is nothing to hand it a proxy for
#: (owner, attribute, span name, time one call in N)
PATCHES = (
    (FlumeAgent, "pump_source", "streaming.flume", 1),
    (FlumeAgent, "pump_sink", "streaming.flume", 1),
    (Broker, "produce_batch", "streaming.produce_batch", 1),
    (Consumer, "poll", "streaming.poll", 1),
    (Consumer, "commit", "streaming.commit", 1),
    (Collection, "insert", "nosql.insert", INSERT_SAMPLE_EVERY),
    (Collection, "find", "nosql.find", 1),
    (SparkContext, "parallelize", "compute.parallelize", 1),
    (RDD, "reduceByKey", "compute.reduce", 1),
    (RDD, "collect", "compute.collect", 1),
    (infrastructure, "bar_chart_svg", "viz.render", 1),
)


def synthesize() -> Dict[str, List[Dict]]:
    """The three feeds, from the installed runtime's seed."""
    seed = get_runtime().seed
    return {
        "crime": OpenCityData(seed).crime_incidents(days=CRIME_DAYS),
        "tweets": [tweet.as_document() for tweet in
                   TweetGenerator(TWEET_USERS, seed).chatter(TWEETS)],
        "waze": WazeGenerator(seed).reports(WAZE_REPORTS),
    }


@dataclass
class System:
    feeds: Dict[str, List[Dict]]
    infra: CyberInfrastructure


class FeedsWorkload:
    name = "feeds-collect"
    limit_s = LIMIT_S
    agreement_floor = AGREEMENT_FLOOR
    traced_passes = TRACED_PASSES

    def __init__(self):
        self.prepare_s = 0.0
        self.synthesize_us_per_row = 0.0

    def open_loop(self, recorder=NoTrace()) -> None:
        """No event loop: the pipeline is synchronous."""

    def close_loop(self) -> None:
        pass

    # -- preparation: the independent reference --------------------------------
    def prepare(self) -> None:
        start = time.perf_counter()
        feeds = synthesize()
        self.records = sum(len(records) for records in feeds.values())
        self.synthesize_us_per_row = \
            (time.perf_counter() - start) / self.records * 1e6
        self.reference = feeds
        self.districts = Counter(
            record[ANALYSIS_FIELD] for records in feeds.values()
            for record in records if record.get(ANALYSIS_FIELD) is not None)
        self.prepare_s = time.perf_counter() - start

    # -- set-up (timed: ``setup_s``) -------------------------------------------
    def set_up(self, recorder=NoTrace()) -> System:
        for owner, attr, name, every in PATCHES:
            recorder.patch(owner, attr, name, every)
        feeds = synthesize()
        return System(feeds, self._fresh_infra(feeds))

    def _fresh_infra(self, feeds) -> CyberInfrastructure:
        infra = CyberInfrastructure()
        for name, _ in FEEDS:
            infra.register_source(name, lambda records=feeds[name]: records)
        return infra

    def tear_down(self, system: System) -> None:
        pass

    # -- measurement -----------------------------------------------------------
    def measure(self, system: System, seconds: Optional[float] = None,
                passes: Optional[int] = None,
                recorder=NoTrace()) -> Measurement:
        def one_pass(index: int) -> PassResult:
            infra = system.infra if index == 0 \
                else self._fresh_infra(system.feeds)
            with root_span(recorder, (self.name, index)):
                start = time.perf_counter()
                with recorder.span("core.pipeline"):
                    infra.run_collection_pipeline(ANALYSIS_FIELD)
                elapsed = time.perf_counter() - start
            rows = self._check(infra)
            return PassResult(elapsed, rows, [(elapsed, rows.correct)])

        return run_closed(one_pass, LIMIT_S, seconds, passes)

    def _check(self, infra: CyberInfrastructure) -> Rows:
        """Stored documents and district counts against the reference.

        The pipeline's answer is what it stored and what it drew: every
        record must be in its collection exactly once, and the chart —
        the only place the district counts leave the program — must have
        one bar per district whose height is that district's share of
        the largest ``collections.Counter`` count.

        A record is answered by the first stored document that carries
        its id and by no other: a second copy, or a document no feed
        sent, is a failed row on top of the rows sent, so the accounting
        no longer balances and the run fails.
        """
        rows = Rows(sent=self.records + len(self.districts))
        for name, id_field in FEEDS:
            waiting = {record[id_field]: record
                       for record in self.reference[name]}
            for document in infra.collection(name).find({}):
                del document["_id"]
                record = waiting.pop(document.get(id_field), None)
                if record is None:
                    rows.failed += 1
                else:
                    rows.answered += 1
                    rows.correct += record == document
            rows.failed += len(waiting)
        rows.answered += len(self.districts)
        rows.correct += self._chart_matches(infra.last_visualization)
        return rows

    def _chart_matches(self, svg: str) -> int:
        """Districts whose bar carries the reference count's height."""
        heights = [float(value) for value in
                   re.findall(r'<rect [^>]*height="([0-9.]+)"', svg)]
        labels = re.findall(r'font-size="10">([^<]*)</text>', svg)
        peak = max(self.districts.values())
        expected = {str(district): CHART_HEIGHT * count / peak
                    for district, count in self.districts.items()}
        if len(heights) != len(labels):
            return 0
        return sum(label in expected and abs(expected[label] - height) <= 0.051
                   for label, height in zip(labels, heights))
