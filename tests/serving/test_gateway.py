"""The serving gateway: coalescing, shedding, slicing, exactly-once answers."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn.models.earlyexit import BatchExitDecisions
from repro.serving import (
    SHED_QUEUE_FULL,
    SHED_SHUTDOWN,
    GatewayConfig,
    ServingGateway,
    ShedError,
    split_decisions,
)
from repro.serving.gateway import VOLATILE_METRIC_PREFIXES

from tests.serving.conftest import RecordingDeployment, camera_frames


def drive(gateway, submissions):
    """Run the gateway over ``submissions`` [(tenant, frames), ...].

    All submissions are in flight concurrently; returns one outcome per
    submission (decisions or the raised exception).
    """
    async def main():
        async with gateway.running():
            return await asyncio.gather(
                *(gateway.submit(frames, tenant=tenant)
                  for tenant, frames in submissions),
                return_exceptions=True)
    return asyncio.run(main())


class TestCoalescing:
    def test_answers_match_the_direct_path(self, rt, deployment, policy):
        frames = camera_frames(0, 12)
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0))
        results = drive(gateway, [("t", frames[i:i + 3])
                                  for i in range(0, 12, 3)])
        direct = deployment.serve_batched(frames, policy)
        merged = np.concatenate([r.predictions for r in results])
        assert np.array_equal(merged, direct.predictions)
        assert np.array_equal(
            np.concatenate([r.exit_index for r in results]),
            direct.exit_index)

    def test_concurrent_requests_coalesce_into_one_batch(self, rt, deployment,
                                                         policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0,
                                               max_batch_rows=64))
        drive(gateway, [("t", camera_frames(i, 2)) for i in range(5)])
        assert gateway.stats()["batches"] == 1

    def test_max_batch_rows_splits_batches(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0,
                                               max_batch_rows=4))
        drive(gateway, [("t", camera_frames(i, 2)) for i in range(5)])
        assert gateway.stats()["batches"] == 3          # 4 + 4 + 2 rows

    def test_oversized_request_forms_its_own_batch(self, rt, deployment,
                                                   policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0,
                                               max_batch_rows=2,
                                               max_queue_rows=64))
        results = drive(gateway, [("t", camera_frames(0, 6))])
        assert len(results[0].predictions) == 6
        assert gateway.stats()["batches"] == 1

    def test_zero_row_request_is_answered(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0))
        results = drive(gateway, [("t", camera_frames(0, 0)),
                                  ("t", camera_frames(1, 3))])
        assert len(results[0].predictions) == 0
        assert results[0].local_logits.shape == (0, 3)
        assert len(results[1].predictions) == 3

    def test_positive_window_still_answers_everything(self, rt, deployment,
                                                      policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.005))
        results = drive(gateway, [("t", camera_frames(i, 2))
                                  for i in range(4)])
        assert all(len(r.predictions) == 2 for r in results)
        assert gateway.stats()["answered"] == 4


class TestQuiescenceWindow:
    """The positive window, driven through the clock the gateway reads.

    ``rt.sim_clock`` binds a clock the test moves by hand, so the
    deadline is reached exactly when the test says; ``HANG_GUARD_S`` only
    turns a window that waits for real time into a failure.
    """

    HANG_GUARD_S = 5.0

    def run(self, rt, scenario, clock=None):
        async def guarded():
            return await asyncio.wait_for(scenario(), self.HANG_GUARD_S)
        with rt.sim_clock(clock or SimpleNamespace(now=0.0)):
            return asyncio.run(guarded())

    @staticmethod
    async def trickle(gateway, count, each_turn=lambda index: None):
        """One single-row request per event-loop turn; their tasks."""
        tasks = []
        for index in range(count):
            tasks.append(asyncio.ensure_future(
                gateway.submit(camera_frames(index, 1), tenant="t")))
            each_turn(index)
            await asyncio.sleep(0)
        return tasks

    @pytest.mark.parametrize("max_batch_rows, batches",
                             [(6, [6, 6, 2]), (64, [14])],
                             ids=["split-at-the-cap", "one-batch"])
    def test_one_turn_of_requests_rides_the_fewest_batches(
            self, rt, deployment, policy, max_batch_rows, batches):
        recorder = RecordingDeployment(deployment)
        gateway = ServingGateway(
            recorder, policy,
            GatewayConfig(coalesce_window_s=10.0,
                          max_batch_rows=max_batch_rows))

        async def scenario():
            async with gateway.running():
                return await asyncio.gather(
                    *(gateway.submit(camera_frames(i, 2), tenant="t")
                      for i in range(7)))
        results = self.run(rt, scenario)
        assert all(len(r.predictions) == 2 for r in results)
        assert recorder.rows_seen == batches

    def test_lone_request_does_not_wait_for_the_clock(self, rt, deployment,
                                                      policy):
        clock = SimpleNamespace(now=0.0)
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=10.0))

        async def scenario():
            async with gateway.running():
                return await gateway.submit(camera_frames(0, 3), tenant="t")
        assert len(self.run(rt, scenario, clock).predictions) == 3
        assert clock.now == 0.0

    def test_trickle_is_held_until_the_deadline(self, rt, deployment,
                                                policy):
        clock = SimpleNamespace(now=0.0)
        recorder = RecordingDeployment(deployment)
        gateway = ServingGateway(
            recorder, policy,
            GatewayConfig(coalesce_window_s=1.0, max_batch_rows=64))

        def pass_the_deadline(index):
            if index == 5:
                clock.now = 2.0

        async def scenario():
            async with gateway.running():
                tasks = await self.trickle(gateway, 12, pass_the_deadline)
                return await asyncio.gather(*tasks)
        results = self.run(rt, scenario, clock)
        assert len(results) == 12
        # Held while the clock stood still; the deadline cut the batch at
        # the requests admitted before it, the rest rode the next window.
        assert recorder.rows_seen == [5, 7]

    def test_trickle_is_held_until_the_row_cap(self, rt, deployment, policy):
        clock = SimpleNamespace(now=0.0)
        recorder = RecordingDeployment(deployment)
        gateway = ServingGateway(
            recorder, policy,
            GatewayConfig(coalesce_window_s=10.0, max_batch_rows=5))

        async def scenario():
            async with gateway.running():
                return await asyncio.gather(
                    *await self.trickle(gateway, 12))
        results = self.run(rt, scenario, clock)
        assert len(results) == 12
        assert recorder.rows_seen == [5, 5, 2]
        assert clock.now == 0.0

    def test_close_during_an_open_window_answers_the_admitted(
            self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=10.0))

        async def scenario():
            await gateway.start()
            tasks = await self.trickle(gateway, 4)
            open_window = gateway.stats()
            await gateway.close()
            return open_window, await asyncio.gather(*tasks)
        open_window, results = self.run(rt, scenario)
        assert open_window["batches"] == 0
        assert open_window["queue_requests"] >= 3
        assert all(len(r.predictions) == 1 for r in results)
        assert gateway.stats()["answered"] == 4

    def test_zero_window_batches_exactly_what_is_queued(self, rt, deployment,
                                                        policy):
        recorder = RecordingDeployment(deployment)
        gateway = ServingGateway(
            recorder, policy,
            GatewayConfig(coalesce_window_s=0.0, max_batch_rows=8))
        drive(gateway, [("cam", camera_frames(i, rows))
                        for i, rows in enumerate([3, 1, 4, 2, 3])])
        assert recorder.rows_seen == [8, 5]


class TestShedding:
    def test_queue_full_sheds_the_overflow(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0,
                                               max_queue_rows=4))
        results = drive(gateway, [("t", camera_frames(i, 2))
                                  for i in range(5)])
        shed = [r for r in results if isinstance(r, ShedError)]
        answered = [r for r in results if not isinstance(r, BaseException)]
        assert shed and all(e.reason == SHED_QUEUE_FULL for e in shed)
        assert len(shed) + len(answered) == 5
        stats = gateway.stats()
        assert stats["submitted"] == stats["answered"] + stats["shed"]

    def test_submit_after_close_sheds_shutdown(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy)

        async def main():
            async with gateway.running():
                pass
            with pytest.raises(ShedError) as caught:
                await gateway.submit(camera_frames(0, 2), tenant="t")
            return caught.value
        error = asyncio.run(main())
        assert error.reason == SHED_SHUTDOWN

    def test_close_drains_admitted_work(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0))

        async def main():
            await gateway.start()
            tasks = [asyncio.ensure_future(
                gateway.submit(camera_frames(i, 2), tenant="t"))
                for i in range(3)]
            await asyncio.sleep(0)          # let the submissions enqueue
            await gateway.close()
            return await asyncio.gather(*tasks)
        results = asyncio.run(main())
        assert all(len(r.predictions) == 2 for r in results)


class TestFailures:
    def test_batch_failure_resolves_every_member(self, rt, policy):
        class ExplodingDeployment:
            def serve_batched(self, x, policy):
                raise RuntimeError("fabric down")

        gateway = ServingGateway(ExplodingDeployment(), policy,
                                 GatewayConfig(coalesce_window_s=0.0))
        results = drive(gateway, [("t", camera_frames(i, 2))
                                  for i in range(3)])
        assert all(isinstance(r, RuntimeError) for r in results)
        stats = gateway.stats()
        assert stats["failed"] == 3
        assert stats["submitted"] == stats["failed"] + stats["answered"]

    def test_failure_does_not_poison_later_batches(self, rt, deployment,
                                                   policy):
        class FlakyDeployment:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def serve_batched(self, x, policy):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("first batch dies")
                return self.inner.serve_batched(x, policy)

        gateway = ServingGateway(FlakyDeployment(deployment), policy,
                                 GatewayConfig(coalesce_window_s=0.0,
                                               max_batch_rows=2))
        results = drive(gateway, [("t", camera_frames(i, 2))
                                  for i in range(3)])
        assert isinstance(results[0], RuntimeError)
        assert all(len(r.predictions) == 2 for r in results[1:])


    def test_odd_geometry_rides_alone_and_fails_alone(self, rt, deployment,
                                                      policy):
        # (2, 1, 8, 8) + (3, 2, 8, 8) cannot be stacked, and the model
        # rejects two channels: the odd request must not take its
        # neighbours — or the drain loop — down with it.
        recorder = RecordingDeployment(deployment)
        gateway = ServingGateway(recorder, policy,
                                 GatewayConfig(coalesce_window_s=0.0))
        odd = np.zeros((3, 2, 8, 8))
        wide = np.zeros((1, 1, 16, 16))      # servable, still its own batch

        async def main():
            async with gateway.running():
                first = await asyncio.wait_for(asyncio.gather(
                    gateway.submit(camera_frames(0, 2), tenant="a"),
                    gateway.submit(odd, tenant="b"),
                    gateway.submit(camera_frames(1, 2), tenant="c"),
                    gateway.submit(wide, tenant="d"),
                    return_exceptions=True), timeout=5)
                later = await asyncio.wait_for(
                    gateway.submit(camera_frames(2, 2), tenant="a"),
                    timeout=5)
                return first, later

        (good, bad, neighbour, alone), later = asyncio.run(main())
        assert isinstance(bad, ValueError) and "channel" in str(bad)
        assert [len(r.predictions)
                for r in (good, neighbour, alone, later)] == [2, 2, 1, 2]
        assert recorder.rows_seen == [2, 3, 2, 1, 2]
        stats = gateway.stats()
        assert (stats["answered"], stats["failed"]) == (4, 1)
        assert stats["submitted"] == (stats["answered"] + stats["shed"]
                                      + stats["failed"] + stats["cancelled"])


class TestSplitDecisions:
    def test_roundtrips_concatenate(self, rt, deployment, policy):
        frames = camera_frames(3, 9)
        whole = deployment.serve_batched(frames, policy)
        parts = split_decisions(whole, [4, 0, 5])
        assert [len(p) for p in parts] == [4, 0, 5]
        for part, start in zip(parts, (0, 4, 4)):
            stop = start + len(part)
            assert np.array_equal(part.predictions,
                                  whole.predictions[start:stop])
            expected_remote = [int(r) - start for r in whole.remote_rows
                               if start <= r < stop]
            assert part.remote_rows.tolist() == expected_remote
            if expected_remote:
                assert part.remote_logits is not None
                assert len(part.remote_logits) == len(expected_remote)
            else:
                assert part.remote_logits is None

    def test_escalated_rows_follow_their_part(self):
        remote_rows = np.array([0, 3, 4, 11])
        whole = BatchExitDecisions(
            predictions=np.arange(12), exit_index=np.ones(12, dtype=int),
            confidence=np.linspace(0.0, 1.0, 12),
            local_logits=np.arange(36.0).reshape(12, 3),
            remote_logits=np.arange(12.0).reshape(4, 3),
            remote_rows=remote_rows)
        counts = [0, 1, 3, 0, 4, 4, 0]
        parts = split_decisions(whole, counts)
        start = 0
        for part, rows in zip(parts, counts):
            # the per-part mask the searchsorted cut replaces
            mask = (remote_rows >= start) & (remote_rows < start + rows)
            assert part.remote_rows.tolist() == (remote_rows[mask]
                                                 - start).tolist()
            if mask.any():
                assert np.array_equal(part.remote_logits,
                                      whole.remote_logits[mask])
            else:
                assert part.remote_logits is None
            assert np.array_equal(part.local_logits,
                                  whole.local_logits[start:start + rows])
            start += rows
        assert sum(len(p.remote_rows) for p in parts) == 4

    def test_row_count_mismatch_is_an_error(self, rt, deployment, policy):
        whole = deployment.serve_batched(camera_frames(4, 4), policy)
        with pytest.raises(ValueError):
            split_decisions(whole, [2, 3])


class TestConfigAndMetrics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(coalesce_window_s=-1.0)
        with pytest.raises(ValueError):
            GatewayConfig(max_batch_rows=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_rows=0)

    def test_gateway_metrics_are_recorded(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0))
        drive(gateway, [("t", camera_frames(i, 2)) for i in range(3)])
        dump = rt.registry.dump()
        counters = dump["counters"]
        assert counters["serving.gateway.submitted"]["tenant=t"] == 3
        assert counters["serving.gateway.answered"]["tenant=t"] == 3
        assert counters["serving.gateway.rows_served"][""] == 6
        assert dump["gauges"]["serving.gateway.queue_rows"][""] == 0
        latency = dump["histograms"]["serving.gateway.latency_s"]
        assert latency["tenant=t"]["count"] == 3
        assert any("serving.gateway.latency_s".startswith(p)
                   for p in VOLATILE_METRIC_PREFIXES)

    def test_stats_count_only_this_gateways_events(self, rt, deployment,
                                                   policy):
        # stats() reads the runtime's serving.gateway.* counters, which
        # every gateway built on the runtime writes
        config = GatewayConfig(coalesce_window_s=0.0)
        drive(ServingGateway(deployment, policy, config),
              [("t", camera_frames(i, 2)) for i in range(3)])
        gateway = ServingGateway(deployment, policy, config)
        drive(gateway, [("t", camera_frames(0, 2))])
        stats = gateway.stats()
        assert (stats["submitted"], stats["admitted"], stats["answered"]) \
            == (1, 1, 1)
        assert rt.registry.counter("serving.gateway.submitted").total() == 4

    def test_batch_spans_nest(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0))
        drive(gateway, [("t", camera_frames(0, 2))])
        batch = rt.tracer.spans("serving.gateway.batch")
        infer = rt.tracer.spans("serving.gateway.infer")
        assert len(batch) == 1 and len(infer) == 1
        assert infer[0].parent_id == batch[0].span_id
