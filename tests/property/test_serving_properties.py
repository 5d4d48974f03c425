"""Chaos properties of the serving gateway, under hypothesis.

The invariants the serving plane must never lose:

- **answered-or-shed exactly once** — under seeded deployment crashes
  (a :class:`~repro.fog.pipeline.FailureSpec`-driven schedule), one
  request of a sample geometry that cannot be stacked with its
  neighbours' and that the model rejects, plus queue-full shed pressure
  (a 16-row bound against up to 48 rows submitted at once), every
  submission resolves to exactly one outcome: its decisions, a
  :class:`ShedError`, the injected crash, or the model's own error.
  Nothing hangs, nothing resolves twice, and the gateway's own
  accounting (``submitted == answered + shed + failed + cancelled``)
  matches the caller's view.
- **lifecycle edges keep that accounting** — a caller cancelling
  ``submit()`` mid-coalesce (its rows never reach the deployment and stop
  counting against admission as the cancellation lands),
  ``close()`` with admitted batches still queued (all answered before it
  returns, later submits shed ``shutdown``), and one batch raising among
  many (only its requests fail; ``pump_topic`` commits nothing past it).

``REPRO_CHAOS_SEED`` (set by the CI chaos sweep, default 0) shifts the
drawn workload space per CI seed.
"""

import asyncio
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fog.deployment import TwoTierDeployment
from repro.fog.pipeline import FailureSpec
from repro.fog.policies import ScoreThresholdPolicy
from repro.nn.models.earlyexit import BatchExitDecisions
from repro.runtime import Runtime, using_runtime
from repro.serving import (
    DEFAULT_GROUP,
    SHED_SHUTDOWN,
    GatewayConfig,
    ServingGateway,
    ShedError,
    pump_topic,
)
from repro.streaming.broker import Broker

from tests.serving.conftest import RecordingDeployment, build_model

BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

seeds = st.integers(0, 2**16).map(lambda s: s + BASE_SEED)


class CrashingDeployment:
    """Wrap a deployment; crash on a FailureSpec-seeded call schedule."""

    def __init__(self, inner, spec: FailureSpec, total_calls: int):
        self.inner = inner
        self.calls = 0
        self.rows_seen = []          # rows of every batch offered, in order
        self.shapes_seen = []
        rng = np.random.default_rng(spec.seed)
        failures = min(spec.max_failures or 0, total_calls)
        self.crash_calls = set(
            int(i) for i in rng.choice(total_calls, size=failures,
                                       replace=False)) if failures else set()

    def serve_batched(self, x, policy):
        call = self.calls
        self.calls += 1
        self.rows_seen.append(int(x.shape[0]))
        self.shapes_seen.append(x.shape)
        if call in self.crash_calls:
            raise RuntimeError(f"injected crash on call {call}")
        return self.inner.serve_batched(x, policy)


def deploy(rt):
    trained = build_model(rt.rng.np_child("prop.serving.model"))
    deployment = TwoTierDeployment(build_model,
                                   ["local_stage", "local_head"],
                                   ["remote_stage", "remote_head"])
    deployment.deploy(trained)
    return deployment


def draw_requests(rt, count, min_rows=1):
    """``count`` seeded (tenant, frames) requests of ``min_rows``..4 rows."""
    draw = rt.rng.np_child("prop.serving.requests")
    return [(f"cam-{int(draw.integers(0, 3))}",
             draw.normal(size=(int(draw.integers(min_rows, 5)), 1, 8, 8)))
            for _ in range(count)]


def submit_all(gateway, requests):
    """Drive all requests concurrently; one outcome per request."""
    async def main():
        async with gateway.running():
            return await asyncio.gather(
                *(gateway.submit(frames, tenant=tenant)
                  for tenant, frames in requests),
                return_exceptions=True)
    return asyncio.run(main())


def assert_answered(outcome, frames):
    assert isinstance(outcome, BatchExitDecisions)
    assert len(outcome) == frames.shape[0]


def assert_accounts_balance(gateway, **expected):
    stats = gateway.stats()
    for outcome, count in expected.items():
        assert stats[outcome] == count, (outcome, stats)
    assert stats["submitted"] == (stats["answered"] + stats["shed"]
                                  + stats["failed"] + stats["cancelled"])
    assert stats["queue_rows"] == 0 and stats["queue_requests"] == 0


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_answered_or_shed_exactly_once_under_chaos(seed):
    with using_runtime(Runtime(seed=seed)) as rt:
        requests = draw_requests(rt, 12, min_rows=0)
        # one request nobody can stack with and the model cannot serve
        odd = int(rt.rng.np_child("prop.serving.odd").integers(0, 12))
        requests[odd] = (requests[odd][0], np.zeros((2, 2, 8, 8)))
        spec = FailureSpec(seed=seed, max_failures=2)
        crashy = CrashingDeployment(deploy(rt), spec, total_calls=12)
        gateway = ServingGateway(
            crashy, ScoreThresholdPolicy(0.45),
            GatewayConfig(coalesce_window_s=0.0, max_batch_rows=6,
                          max_queue_rows=16))
        outcomes = submit_all(gateway, requests)

        assert len(outcomes) == len(requests)    # every submit resolved once
        answered = shed = failed = 0
        for index, ((tenant, frames), outcome) in enumerate(zip(requests,
                                                                outcomes)):
            if isinstance(outcome, ShedError):
                shed += 1
                assert outcome.tenant == tenant
            elif isinstance(outcome, RuntimeError):
                failed += 1
                assert "injected crash" in str(outcome)
            elif index == odd:
                failed += 1
                assert isinstance(outcome, ValueError)
                assert "channel" in str(outcome)
            else:
                answered += 1
                assert_answered(outcome, frames)
        assert answered + shed + failed == len(requests)
        # the odd request never shared a batch: offered alone, or shed
        assert [shape for shape in crashy.shapes_seen
                if shape[1:] == (2, 8, 8)] == (
            [] if isinstance(outcomes[odd], ShedError) else [(2, 2, 8, 8)])
        assert_accounts_balance(gateway, submitted=len(requests),
                                answered=answered, shed=shed, failed=failed,
                                cancelled=0)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_cancelled_mid_coalesce_is_dropped_not_inferred(seed):
    with using_runtime(Runtime(seed=seed)) as rt:
        requests = draw_requests(rt, 8)
        pick = rt.rng.np_child("prop.serving.cancel")
        cancel = set(pick.choice(len(requests), size=int(pick.integers(1, 5)),
                                 replace=False).tolist())
        recorder = CrashingDeployment(deploy(rt), FailureSpec(seed=seed), 0)
        # Cancellation lands while everything is still queued (asserted
        # below).  The drain loop wakes before the cancelled callers do and
        # serves full 6-row batches at once, dropping the cancelled requests
        # it meets at the head; the callers then withdraw the rest.
        gateway = ServingGateway(
            recorder, ScoreThresholdPolicy(0.45),
            GatewayConfig(coalesce_window_s=0.02, max_batch_rows=6))

        async def main():
            async with gateway.running():
                tasks = [asyncio.ensure_future(
                    gateway.submit(frames, tenant=tenant))
                    for tenant, frames in requests]
                await asyncio.sleep(0)           # every request is queued
                assert gateway.stats()["queue_requests"] == len(requests)
                for index in cancel:
                    tasks[index].cancel()
                await asyncio.sleep(0)           # every cancellation landed
                queued = gateway.stats()["queue_rows"]
                served = sum(recorder.rows_seen)
                outcomes = await asyncio.gather(*tasks,
                                                return_exceptions=True)
                return queued, served, outcomes
        queued, served, outcomes = asyncio.run(main())

        kept_rows = 0
        for index, ((_, frames), outcome) in enumerate(zip(requests,
                                                           outcomes)):
            if index in cancel:
                assert isinstance(outcome, asyncio.CancelledError)
            else:
                assert_answered(outcome, frames)
                kept_rows += frames.shape[0]
        assert sum(recorder.rows_seen) == kept_rows
        # only live requests still count, wherever the cancelled ones sat
        assert queued == kept_rows - served
        assert_accounts_balance(gateway, cancelled=len(cancel),
                                answered=len(requests) - len(cancel),
                                shed=0, failed=0)
        assert rt.registry.counter(
            "serving.gateway.cancelled").total() == len(cancel)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_cancelled_rows_make_room_at_cancel_time(seed):
    with using_runtime(Runtime(seed=seed)) as rt:
        requests = draw_requests(rt, 8)
        pick = rt.rng.np_child("prop.serving.cancel")
        cancel = set(pick.choice(len(requests), size=int(pick.integers(1, 5)),
                                 replace=False).tolist())
        total_rows = sum(frames.shape[0] for _, frames in requests)
        cancelled_rows = sum(requests[index][1].shape[0] for index in cancel)
        recorder = RecordingDeployment(deploy(rt))
        # The queue is full to the row, and no batch can form before the
        # late request arrives: the window is open (fewer rows than a
        # batch, arrivals every turn).  Only released rows make room.
        gateway = ServingGateway(
            recorder, ScoreThresholdPolicy(0.45),
            GatewayConfig(coalesce_window_s=10.0, max_batch_rows=64,
                          max_queue_rows=total_rows))
        late_frames = np.zeros((cancelled_rows, 1, 8, 8))

        async def main():
            async with gateway.running():
                tasks = [asyncio.ensure_future(
                    gateway.submit(frames, tenant=tenant))
                    for tenant, frames in requests]
                await asyncio.sleep(0)           # every request is queued
                for index in cancel:
                    tasks[index].cancel()
                await asyncio.sleep(0)           # every cancellation landed
                stats = gateway.stats()
                late = await gateway.submit(late_frames, tenant="late")
                await asyncio.gather(*tasks, return_exceptions=True)
                return stats, late
        stats, late = asyncio.run(main())

        assert stats["batches"] == 0 and stats["cancelled"] == len(cancel)
        assert stats["queue_rows"] == total_rows - cancelled_rows
        assert stats["queue_requests"] == len(requests) - len(cancel)
        assert_answered(late, late_frames)
        assert sum(recorder.rows_seen) == total_rows
        assert_accounts_balance(gateway, cancelled=len(cancel),
                                answered=len(requests) - len(cancel) + 1,
                                shed=0, failed=0)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_close_answers_what_was_admitted_then_sheds(seed):
    with using_runtime(Runtime(seed=seed)) as rt:
        requests = draw_requests(rt, 9)
        gateway = ServingGateway(
            deploy(rt), ScoreThresholdPolicy(0.45),
            GatewayConfig(coalesce_window_s=0.05, max_batch_rows=5))

        async def main():
            await gateway.start()
            tasks = [asyncio.ensure_future(
                gateway.submit(frames, tenant=tenant))
                for tenant, frames in requests]
            await asyncio.sleep(0)               # several batches queued
            await gateway.close()
            answered_at_close = gateway.stats()["answered"]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            with pytest.raises(ShedError) as late:
                await gateway.submit(requests[0][1], tenant="late")
            return answered_at_close, outcomes, late.value

        answered_at_close, outcomes, late = asyncio.run(main())
        assert answered_at_close == len(requests)
        for (_, frames), outcome in zip(requests, outcomes):
            assert_answered(outcome, frames)
        assert late.reason == SHED_SHUTDOWN
        assert_accounts_balance(gateway, answered=len(requests), shed=1,
                                failed=0, cancelled=0)
        assert gateway.stats()["batches"] > 1


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_one_batch_raising_fails_only_its_own_requests(seed):
    with using_runtime(Runtime(seed=seed)) as rt:
        # >= 10 rows in batches of <= 4: at least three calls, one crashes
        requests = draw_requests(rt, 10)
        crashy = CrashingDeployment(
            deploy(rt), FailureSpec(seed=seed, max_failures=1), 3)
        gateway = ServingGateway(
            crashy, ScoreThresholdPolicy(0.45),
            GatewayConfig(coalesce_window_s=0.0, max_batch_rows=4))
        outcomes = submit_all(gateway, requests)

        failed_rows = []
        for (_, frames), outcome in zip(requests, outcomes):
            if isinstance(outcome, RuntimeError):
                failed_rows.append(frames.shape[0])
            else:
                assert_answered(outcome, frames)
        (crashed_call,) = crashy.crash_calls
        assert sum(failed_rows) == crashy.rows_seen[crashed_call]
        assert len(crashy.rows_seen) >= 3 and len(failed_rows) < len(requests)
        assert_accounts_balance(
            gateway, answered=len(requests) - len(failed_rows),
            failed=len(failed_rows), shed=0, cancelled=0)


@settings(max_examples=5, deadline=None)
@given(seed=seeds, polls=st.integers(3, 6), poll_size=st.integers(1, 4))
def test_pump_commits_nothing_past_a_failed_batch(seed, polls, poll_size):
    topic = "camera.frames"
    with using_runtime(Runtime(seed=seed)) as rt:
        broker = Broker()
        broker.create_topic(topic, partitions=1, share_ndarrays=True)
        frames = rt.rng.np_child("prop.serving.frames").normal(
            size=(polls * poll_size, 1, 8, 8))
        broker.produce_batch(topic, list(frames), key_fn=lambda _: "cam-a")
        crashy = CrashingDeployment(
            deploy(rt), FailureSpec(seed=seed, max_failures=1), polls)
        config = GatewayConfig(coalesce_window_s=0.0,
                               max_batch_rows=poll_size)

        def pump(deployment):
            async def main():
                gateway = ServingGateway(deployment,
                                         ScoreThresholdPolicy(0.45), config)
                async with gateway.running():
                    return await pump_topic(gateway, broker, topic,
                                            poll_size=poll_size)
            return asyncio.run(main())

        with pytest.raises(RuntimeError, match="injected crash"):
            pump(crashy)
        # one poll is one batch: everything before the crashed call is
        # committed, the crashed poll and any read-ahead are not
        (crashed_call,) = crashy.crash_calls
        uncommitted = (polls - crashed_call) * poll_size
        assert broker.lag(DEFAULT_GROUP, topic) == uncommitted
        served, shed = pump(crashy.inner)
        assert shed == {}
        assert sum(len(d) for d in served["cam-a"]) == uncommitted
        assert broker.lag(DEFAULT_GROUP, topic) == 0
