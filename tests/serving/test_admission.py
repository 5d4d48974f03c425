"""Admission control: the gateway's queue bound, driven through ``submit``."""

import asyncio

import pytest

from repro.serving import SHED_QUEUE_FULL, GatewayConfig, ServingGateway, \
    ShedError

from tests.serving.conftest import camera_frames


def submit_all(gateway, row_counts):
    """Submit one request per row count, all in flight together; returns
    the outcome of each (decisions or the raised exception)."""
    async def main():
        async with gateway.running():
            return await asyncio.gather(
                *(gateway.submit(camera_frames(i, rows), tenant="a")
                  for i, rows in enumerate(row_counts)),
                return_exceptions=True)
    return asyncio.run(main())


def bounded_gateway(deployment, policy, max_queue_rows=10):
    return ServingGateway(deployment, policy, GatewayConfig(
        coalesce_window_s=0.0, max_queue_rows=max_queue_rows))


class TestAdmissionController:
    def test_admits_within_bounds(self, rt, deployment, policy):
        for rows in (4, 10):
            [result] = submit_all(bounded_gateway(deployment, policy),
                                  [rows])
            assert len(result.predictions) == rows

    def test_queue_full(self, rt, deployment, policy):
        # the 8-row request is still queued when the 4-row one arrives
        first, second = submit_all(bounded_gateway(deployment, policy),
                                   [8, 4])
        assert len(first.predictions) == 8
        assert isinstance(second, ShedError)
        assert second.reason == SHED_QUEUE_FULL

    def test_oversized_request_is_never_admissible(self, rt, deployment,
                                                   policy):
        gateway = bounded_gateway(deployment, policy)
        [result] = submit_all(gateway, [11])
        assert isinstance(result, ShedError)
        assert result.reason == SHED_QUEUE_FULL
        assert gateway.stats()["shed"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_rows=0)


def test_shed_error_carries_tenant_and_reason():
    error = ShedError("cam-a", SHED_QUEUE_FULL, "4 rows")
    assert error.tenant == "cam-a"
    assert error.reason == SHED_QUEUE_FULL
    assert "cam-a" in str(error) and "queue_full" in str(error)
