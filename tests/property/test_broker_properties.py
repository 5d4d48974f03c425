"""Seeded chaos properties for the streaming broker.

Five guarantees, each asserted under hypothesis-drawn schedules:

- *exactly-once committed output under rebalance churn*: members join,
  leave, poll, and commit in arbitrary interleavings; fenced commits are
  discarded and redelivered, and the committed output still ends up with
  every produced record exactly once;
- *group-size invariance*: the same workload consumed by 1, 2, or 3
  group members leaves a byte-identical :func:`deterministic_dump` once
  the broker's own delivery-attempt telemetry (which legitimately varies
  with membership) is dropped;
- *chaos-fed fog serving*: records polled from the broker and fed
  through a failure-injected fog stream are all accounted exactly once,
  and their offsets commit only after the batch survives;
- *``poll`` is a row view of ``poll_batch``*: the same schedule of polls,
  commits and membership changes driven through either call leaves
  identical rows, fetch positions and committed offsets;
- *the broker is the reference log*: a rule-based state machine drives
  produce / produce_batch (keyed, unkeyed, mixed) / poll_batch / commit /
  seek_to_committed / run_retention against the plain dict-of-lists
  model in :mod:`tests.streaming.reference_log` — the independent
  oracle for the one append path and the one fetch path.  Two broker
  mutants (admission that never refuses a full partition, and admission
  that refuses without evicting the consumed head) must fail it, so its
  bounded topics keep reaching the backpressure rule.

``REPRO_CHAOS_SEED`` (set by the CI chaos sweep, default 0) shifts the
drawn schedules while keeping any single invocation deterministic.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.cluster import NetworkTopology
from repro.fog import (
    FailureSpec,
    FaultPolicy,
    FogPipeline,
    model_split_from_early_exit,
    place_bottom_up,
)
from repro.runtime import Runtime, using_runtime
from repro.runtime.parallel import deterministic_dump
from repro.streaming import Broker, FlumeAgent, FunctionSource, broker_sink
from repro.streaming.broker import (
    VOLATILE_METRIC_PREFIXES,
    VOLATILE_SPAN_PREFIXES,
    BackpressureError,
    RebalanceError,
)

from tests.streaming.reference_log import ReferenceLog, Rejected, as_rows

BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

MAX_MEMBERS = 4


def normalized_dump(runtime):
    return json.dumps(
        deterministic_dump(runtime,
                           drop_metric_prefixes=VOLATILE_METRIC_PREFIXES,
                           drop_span_prefixes=VOLATILE_SPAN_PREFIXES),
        sort_keys=True)


actions = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.just(0)),
        st.tuples(st.just("leave"), st.integers(0, MAX_MEMBERS - 1)),
        st.tuples(st.just("poll"), st.integers(0, MAX_MEMBERS - 1)),
        st.tuples(st.just("commit"), st.integers(0, MAX_MEMBERS - 1)),
    ),
    min_size=4, max_size=40)


class Member:
    """A consumer plus its uncommitted buffer, with fencing discipline:
    anything buffered across a rebalance is discarded — the broker
    redelivers it — so only commit-confirmed records reach the output."""

    def __init__(self, broker, group):
        self.broker = broker
        self.group = group
        self.consumer = broker.consumer(group, ["events"], auto_commit=False)
        self.buffer = []

    def _drop_if_fenced(self):
        if self.consumer.generation != self.broker.group_generation(self.group):
            self.buffer.clear()

    def poll(self, n=7):
        self._drop_if_fenced()
        batch = self.consumer.poll(n)
        self.buffer.extend(r.value for r in batch)
        return len(batch)

    def commit(self, committed):
        try:
            self.consumer.commit()
        except RebalanceError:
            self.consumer.seek_to_committed()
            self.buffer.clear()
            return
        committed.extend(self.buffer)
        self.buffer.clear()

    def leave(self):
        self.consumer.close()
        self.buffer.clear()


@settings(max_examples=20, deadline=None)
@given(schedule=actions, num_records=st.integers(5, 80),
       partitions=st.integers(1, 4), churn_seed=st.integers(0, 2**16))
def test_rebalance_churn_commits_exactly_once(schedule, num_records,
                                              partitions, churn_seed):
    runtime = Runtime(seed=BASE_SEED + churn_seed)
    with using_runtime(runtime):
        broker = Broker()
    broker.create_topic("events", partitions=partitions)
    for i in range(num_records):
        broker.produce("events", i, key=f"k{i % 5}" if i % 2 else None)

    committed = []
    members = [Member(broker, "g")]
    for action, index in schedule:
        if action == "join" and len(members) < MAX_MEMBERS:
            members.append(Member(broker, "g"))
        elif action == "leave" and len(members) > 1:
            members.pop(index % len(members)).leave()
        elif action == "poll":
            members[index % len(members)].poll()
        elif action == "commit":
            members[index % len(members)].commit(committed)

    # quiesce: no more membership changes, so polls cannot be fenced —
    # every member drains and commits its assigned partitions
    progressed = True
    while progressed:
        progressed = False
        for member in members:
            if member.poll():
                progressed = True
            member.commit(committed)
    assert sorted(committed) == list(range(num_records))
    assert broker.lag("g", "events") == 0


@settings(max_examples=10, deadline=None)
@given(group_sizes=st.permutations([1, 2, 3]), num_records=st.integers(5, 60),
       batch=st.integers(1, 12))
def test_dump_invariant_across_group_sizes(group_sizes, num_records, batch):
    def run(members_count):
        runtime = Runtime(seed=BASE_SEED)
        with using_runtime(runtime):
            broker = Broker()
            broker.create_topic("events", partitions=4)
            agent = FlumeAgent(FunctionSource(range(num_records)),
                               broker_sink(broker, "events"),
                               batch_size=batch)
        agent.run()
        members = [Member(broker, "g") for _ in range(members_count)]
        committed = []
        progressed = True
        while progressed:
            progressed = False
            for member in members:
                if member.poll():
                    progressed = True
                member.commit(committed)
        assert sorted(committed) == list(range(num_records))
        return normalized_dump(runtime)

    dumps = {size: run(size) for size in group_sizes}
    assert len(set(dumps.values())) == 1


VIEW_TOPICS = (("crime", 3), ("tweets", 2))

view_actions = st.lists(
    st.one_of(
        st.tuples(st.just("poll"), st.integers(0, 2), st.integers(1, 6)),
        st.tuples(st.just("commit"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("join"), st.just(0), st.just(0)),
        st.tuples(st.just("leave"), st.integers(0, 2), st.just(0)),
    ),
    min_size=3, max_size=30)


def run_view_schedule(schedule, num_records, auto_commit, columnar):
    """Drive one schedule; returns (rows per poll, offsets after each step)."""
    runtime = Runtime(seed=BASE_SEED)
    with using_runtime(runtime):
        broker = Broker()
    for topic, partitions in VIEW_TOPICS:
        broker.create_topic(topic, partitions=partitions)
        broker.produce_batch(
            topic, [f"{topic}-{i}" for i in range(num_records)],
            key_fn=lambda value: value if value.endswith(("3", "7")) else None)
    topics = [topic for topic, _ in VIEW_TOPICS]

    def join():
        return broker.consumer("g", topics, auto_commit=auto_commit)

    def offsets():
        return [(broker.position("g", topic, partition),
                 broker.committed_offset("g", topic, partition))
                for topic, partitions in VIEW_TOPICS
                for partition in range(partitions)]

    members = [join()]
    rows, trail = [], []
    for action, index, size in schedule:
        member = members[index % len(members)]
        if action == "poll":
            polled = (member.poll_batch(size).records() if columnar
                      else member.poll(size))
            rows.append([(r.topic, r.partition, r.offset, r.key, r.value,
                          r.timestamp) for r in polled])
        elif action == "commit":
            try:
                member.commit()
            except RebalanceError:
                rows.append("fenced")
        elif action == "join" and len(members) < 3:
            members.append(join())      # a rebalance mid-stream
        elif action == "leave" and len(members) > 1:
            members.pop(index % len(members)).close()
        trail.append(offsets())
    return rows, trail


@settings(max_examples=25, deadline=None)
@given(schedule=view_actions, num_records=st.integers(1, 25),
       auto_commit=st.booleans())
def test_poll_is_a_row_view_of_poll_batch(schedule, num_records, auto_commit):
    per_record = run_view_schedule(schedule, num_records, auto_commit,
                                   columnar=False)
    columnar = run_view_schedule(schedule, num_records, auto_commit,
                                 columnar=True)
    assert per_record == columnar


failure_specs = st.builds(
    FailureSpec,
    seed=st.integers(0, 2**16).map(lambda s: s + BASE_SEED),
    mean_time_to_failure_s=st.floats(0.02, 1.0),
    mean_time_to_repair_s=st.one_of(st.none(), st.floats(0.05, 1.0)),
    max_failures=st.integers(1, 10),
)


def build_pipeline():
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=2, servers=1)
    stages = model_split_from_early_exit(
        local_flops=2e8, remote_flops=8e9 + 1e6,
        feature_bytes=8_192, input_bytes=64 * 64 * 3,
        local_exit_flops=1e6)
    return FogPipeline(place_bottom_up(topology, stages, "edge-0-0-0"))


@settings(max_examples=6, deadline=None)
@given(spec=failure_specs, num_items=st.integers(2, 24),
       exit_seed=st.integers(0, 100))
def test_broker_fed_fog_stream_accounts_every_record_under_chaos(
        spec, num_items, exit_seed):
    """End-to-end at-least-once: frames ride the broker into a
    failure-injected fog stream; offsets commit only after the whole
    batch is accounted, and every produced frame is committed exactly
    once."""
    runtime = Runtime(seed=BASE_SEED)
    with using_runtime(runtime):
        broker = Broker()
    broker.create_topic("frames", partitions=2)
    for i in range(num_items):
        broker.produce("frames", i)

    consumer = broker.consumer("fog", ["frames"], auto_commit=False)
    served = []
    while True:
        batch = consumer.poll(8)
        if not batch:
            break
        with using_runtime(runtime):
            stats = build_pipeline().simulate_stream(
                len(batch), 0.03, exit_probabilities={1: 0.5},
                seed=exit_seed, failures=spec,
                fault_policy=FaultPolicy(stage_timeout_s=2.0))
        assert stats.accounted == len(batch)
        consumer.commit()
        served.extend(r.value for r in batch)
    assert sorted(served) == list(range(num_items))
    assert broker.lag("fog", "frames") == 0


class BatchMember(Member):
    """A member that drains through the columnar ``poll_batch`` path."""

    def poll(self, n=7):
        self._drop_if_fenced()
        batch = self.consumer.poll_batch(n)
        self.buffer.extend(batch.values)
        return len(batch)


@settings(max_examples=20, deadline=None)
@given(schedule=actions, num_records=st.integers(5, 80),
       partitions=st.integers(1, 4), churn_seed=st.integers(0, 2**16))
def test_batch_poll_rebalance_churn_commits_exactly_once(
        schedule, num_records, partitions, churn_seed):
    """The exactly-once contract survives the columnar fast path: the
    rebalance-churn schedule of the per-record property, but every poll
    rides ``poll_batch`` and reads the value column directly."""
    runtime = Runtime(seed=BASE_SEED + churn_seed)
    with using_runtime(runtime):
        broker = Broker()
    broker.create_topic("events", partitions=partitions)
    chunk = max(1, num_records // 3)
    for start in range(0, num_records, chunk):
        broker.produce_batch(
            "events", list(range(start, min(start + chunk, num_records))),
            key_fn=lambda i: f"k{i % 5}" if i % 2 else None)

    committed = []
    members = [BatchMember(broker, "g")]
    for action, index in schedule:
        if action == "join" and len(members) < MAX_MEMBERS:
            members.append(BatchMember(broker, "g"))
        elif action == "leave" and len(members) > 1:
            members.pop(index % len(members)).leave()
        elif action == "poll":
            members[index % len(members)].poll()
        elif action == "commit":
            members[index % len(members)].commit(committed)

    progressed = True
    while progressed:
        progressed = False
        for member in members:
            if member.poll():
                progressed = True
            member.commit(committed)
    assert sorted(committed) == list(range(num_records))
    assert broker.lag("g", "events") == 0


@settings(max_examples=10, deadline=None)
@given(num_records=st.integers(1, 60), chunk=st.integers(1, 16),
       partitions=st.integers(1, 4), dump_seed=st.integers(0, 2**16))
def test_batch_and_record_paths_dump_identically(num_records, chunk,
                                                 partitions, dump_seed):
    """The columnar path is an optimization, not a behaviour change:
    the normalized registry dump is byte-identical whether records rode
    ``produce_batch``/``poll_batch`` or ``produce``/``poll``."""
    def run(batch_path):
        runtime = Runtime(seed=BASE_SEED + dump_seed)
        with using_runtime(runtime):
            broker = Broker()
        broker.create_topic("events", partitions=partitions)
        values = list(range(num_records))
        if batch_path:
            for start in range(0, num_records, chunk):
                broker.produce_batch("events", values[start:start + chunk])
        else:
            for value in values:
                broker.produce("events", value)
        consumer = broker.consumer("g", ["events"], auto_commit=False)
        out = []
        while True:
            if batch_path:
                got = list(consumer.poll_batch(chunk).values)
            else:
                got = [r.value for r in consumer.poll(chunk)]
            if not got:
                break
            out.extend(got)
            consumer.commit()
        assert sorted(out) == values
        return normalized_dump(runtime)

    assert run(True) == run(False)


#: the state machine's ``shm_min_bytes`` and its ndarray value sizes
#: (float32 elements): below, at and above the staging threshold
SHM_MIN_BYTES = 64
VALUE_SIZES = (4, 15, 16, 32)


def ident(value):
    """The sequence number a value was produced with (int or ndarray)."""
    return value if isinstance(value, int) else int(value[0])


KEY_FNS = {
    "unkeyed": None,
    "single": lambda value: "k0",
    "keyed": lambda value: f"k{ident(value) % 5}",
    "mixed": lambda value: f"k{ident(value) % 5}" if ident(value) % 2
    else None,
}


def comparable(rows):
    """Model rows with ndarray values as (dtype, shape, bytes) triples."""
    return [(p, o, k, (v.dtype.str, v.shape, v.tobytes())
             if isinstance(v, np.ndarray) else v, t)
            for p, o, k, v, t in rows]


def staged(value):
    return isinstance(value, np.ndarray) and value.nbytes >= SHM_MIN_BYTES


@seed(BASE_SEED)
class BrokerAgainstReference(RuleBasedStateMachine):
    """Every call's result and the state it leaves match the reference.

    With ``share`` drawn the topic is ``share_ndarrays=True`` and values
    are float32 arrays on both sides of ``SHM_MIN_BYTES``: what the broker
    stages, tracks and releases, and each poll's ``groups()`` /
    ``stacked_values()``, must match the model too.
    """

    @initialize(partitions=st.integers(1, 4),
                bound=st.none() | st.integers(1, 6),
                retention=st.none() | st.integers(1, 8),
                auto_commit=st.booleans(),
                share=st.booleans())
    def create(self, partitions, bound, retention, auto_commit, share):
        with using_runtime(Runtime(seed=BASE_SEED)):
            self.broker = Broker(shm_min_bytes=SHM_MIN_BYTES)
        self.broker.create_topic(
            "events", partitions=partitions, max_partition_records=bound,
            retention_max_records=retention,
            share_ndarrays=share)
        self.consumer = self.broker.consumer("g", ["events"],
                                             auto_commit=auto_commit)
        self.reference = ReferenceLog(partitions, bound, retention,
                                      auto_commit)
        self.partitions = partitions
        self.share = share
        self.next_value = 0

    def teardown(self):
        broker = getattr(self, "broker", None)
        if broker is not None:
            broker.close()

    def values(self, count, sizes):
        """``count`` fresh values; arrays take ``sizes`` in turn."""
        start = self.next_value
        self.next_value += count
        if not self.share:
            return list(range(start, start + count))
        return [np.full(sizes[value % len(sizes)], value, dtype=np.float32)
                for value in range(start, start + count)]

    def expect(self, rows, call):
        """Run ``call``; it must append, or refuse, exactly as the model."""
        try:
            expected = self.reference.produce(rows)
        except Rejected:
            with pytest.raises(BackpressureError):
                call()
            return None
        return expected, call()

    @rule(key=st.none() | st.sampled_from(["k0", "k1", "k2", "k3", "k4"]),
          size=st.sampled_from(VALUE_SIZES))
    def produce(self, key, size):
        value, = self.values(1, [size])
        outcome = self.expect(
            [(key, value)],
            lambda: self.broker.produce("events", value, key=key))
        if outcome is not None:
            expected, record = outcome
            assert comparable(as_rows([record])) == comparable(expected)

    @rule(count=st.integers(1, 12), keying=st.sampled_from(sorted(KEY_FNS)),
          sizes=st.lists(st.sampled_from(VALUE_SIZES), min_size=1,
                         max_size=2))
    def produce_batch(self, count, keying, sizes):
        values, key_fn = self.values(count, sizes), KEY_FNS[keying]
        outcome = self.expect(
            [(key_fn(value) if key_fn else None, value) for value in values],
            lambda: self.broker.produce_batch("events", values,
                                              key_fn=key_fn))
        if outcome is not None:
            expected, batch = outcome
            assert comparable(as_rows(batch)) == comparable(expected)

    @rule(budget=st.integers(1, 9))
    def poll_batch(self, budget):
        batch = self.consumer.poll_batch(budget)
        expected = self.reference.poll(budget)
        assert comparable(as_rows(batch)) == comparable(expected)
        if self.share:
            self.same_groups(batch, expected)

    def same_groups(self, batch, expected):
        """Per-key sub-batches and their stacks against the model's rows."""
        by_key = {}
        for _, _, key, value, _ in expected:
            by_key.setdefault(key, []).append(value)
        groups = batch.groups()
        assert [key for key, _ in groups] == sorted(
            by_key, key=lambda key: (key is not None, key or ""))
        for key, group in groups:
            try:
                stacked = np.stack(by_key[key])
            except ValueError:
                with pytest.raises(ValueError):
                    group.stacked_values()
                continue
            got = group.stacked_values()
            assert got.dtype == stacked.dtype
            assert np.array_equal(got, stacked)
            assert not any(value.flags.writeable
                           for value in group.values if staged(value))

    @rule()
    def commit(self):
        self.consumer.commit()
        self.reference.commit()

    @rule()
    def seek_to_committed(self):
        self.consumer.seek_to_committed()
        self.reference.seek_to_committed()

    @rule()
    def run_retention(self):
        assert self.broker.run_retention("events") \
            == self.reference.run_retention()

    @invariant()
    def same_state(self):
        broker, reference = self.broker, self.reference
        every = range(self.partitions)
        assert broker.partition_sizes("events") \
            == [len(reference.logs[p]) for p in every]
        assert [broker.end_offset("events", p) for p in every] \
            == reference.ends
        assert [broker._partition("events", p).base_offset for p in every] \
            == [reference.logs[p][0][1] if reference.logs[p]
                else reference.ends[p] for p in every]
        assert [self.consumer.position("events", p) for p in every] \
            == [reference.position(p) for p in every]
        assert [self.consumer.committed("events", p) for p in every] \
            == [reference.committed.get(p, 0) for p in every]
        assert broker.lag("g", "events") == reference.lag()
        assert broker.tracked_segments() == sum(
            staged(row[3]) for row in reference.rows())


BrokerAgainstReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestBrokerAgainstReference = BrokerAgainstReference.TestCase


def _never_refuses(admit):
    def mutant(self, *args):
        try:
            admit(self, *args)
        except BackpressureError:
            pass                    # the full partition takes the batch
    return mutant


def _keeps_the_consumed_head(evict):
    return lambda self, *args: None


#: ``Broker`` attribute -> the mutant that replaces it: ``_admit`` with
#: its refusal removed, and ``_admit``'s consumed-head eviction skipped
ADMIT_MUTANTS = {
    "never-refuses": ("_admit", _never_refuses),
    "no-head-eviction": ("_evict_consumed_head", _keeps_the_consumed_head),
}


@pytest.mark.parametrize("mutant", sorted(ADMIT_MUTANTS))
def test_reference_state_machine_catches_admission_mutant(monkeypatch,
                                                         mutant):
    name, make = ADMIT_MUTANTS[mutant]
    monkeypatch.setattr(Broker, name, make(getattr(Broker, name)))
    quick = settings(BrokerAgainstReference.TestCase.settings,
                     database=None, phases=[Phase.generate],
                     report_multiple_bugs=False)
    with pytest.raises((AssertionError, BackpressureError,
                        pytest.fail.Exception)):
        run_state_machine_as_test(BrokerAgainstReference, settings=quick)
