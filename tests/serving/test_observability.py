"""The live observability endpoint over a real loopback socket."""

import asyncio
import gc
import json

import numpy as np
import pytest

from repro.serving import GatewayConfig, ObservabilityServer, ServingGateway
from repro.serving import observability

from tests.serving.conftest import camera_frames


async def fetch(host, port, target, method="GET"):
    """One HTTP exchange; returns (status_code, body_bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body


def serve_and_fetch(rt, targets, gateway=None, method="GET"):
    async def main():
        async with ObservabilityServer(runtime=rt, gateway=gateway) as server:
            return [await fetch(server.host, server.port, t, method=method)
                    for t in targets]
    return asyncio.run(main())


class TestRoutes:
    def test_healthz_reports_gateway_stats(self, rt, deployment, policy):
        gateway = ServingGateway(deployment, policy,
                                 GatewayConfig(coalesce_window_s=0.0))

        async def main():
            async with ObservabilityServer(runtime=rt,
                                           gateway=gateway) as server:
                async with gateway.running():
                    await gateway.submit(camera_frames(0, 3), tenant="cam")
                    return await fetch(server.host, server.port, "/healthz")
        status, body = asyncio.run(main())
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["answered"] == 1 and payload["submitted"] == 1

    def test_healthz_without_gateway_is_minimal(self, rt):
        (status, body), = serve_and_fetch(rt, ["/healthz"])
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_metrics_returns_the_full_runtime_dump(self, rt):
        rt.registry.counter("demo.hits", help="x").inc(7)
        (status, body), = serve_and_fetch(rt, ["/metrics"])
        payload = json.loads(body)
        assert status == 200
        assert payload["seed"] == 11
        assert payload["metrics"]["counters"]["demo.hits"][""] == 7.0

    def test_stream_emits_n_snapshots(self, rt):
        rt.registry.counter("demo.hits", help="x").inc(1)
        (status, body), = serve_and_fetch(
            rt, ["/metrics/stream?frames=3&interval_s=0"])
        assert status == 200
        lines = body.decode().strip().splitlines()
        assert len(lines) == 3
        snapshots = [json.loads(line) for line in lines]
        assert [s["sequence"] for s in snapshots] == [0, 1, 2]
        assert all(s["metrics"]["counters"]["demo.hits"][""] == 1.0
                   for s in snapshots)

    def test_stream_rejects_out_of_bounds_queries(self, rt):
        responses = serve_and_fetch(
            rt, ["/metrics/stream?frames=0",
                 "/metrics/stream?frames=nope",
                 "/metrics/stream?interval_s=9999"])
        assert [status for status, _ in responses] == [400, 400, 400]

    def test_spans_returns_the_parent_child_forest(self, rt):
        with rt.tracer.span("outer"):
            with rt.tracer.span("inner"):
                pass
        (status, body), = serve_and_fetch(rt, ["/spans"])
        forest = json.loads(body)
        assert status == 200
        assert [node["name"] for node in forest] == ["outer"]
        assert [child["name"] for child in forest[0]["children"]] == ["inner"]

    def test_unknown_route_is_404(self, rt):
        (status, body), = serve_and_fetch(rt, ["/nope"])
        assert status == 404

    def test_non_get_is_405(self, rt):
        (status, _), = serve_and_fetch(rt, ["/healthz"], method="POST")
        assert status == 405

    def test_ephemeral_port_binding(self, rt):
        async def main():
            server = ObservabilityServer(runtime=rt, port=0)
            host, port = await server.start()
            try:
                assert port != 0
                status, _ = await fetch(host, port, "/healthz")
                assert status == 200
            finally:
                await server.close()
        asyncio.run(main())


DEADLINE_S = 5.0


async def exchange(host, port, payload, half_close=False, trickle=None):
    """Send raw bytes; the status the server answered, or None when it
    only closed.  ``trickle`` keeps sending that line until the server
    hangs up."""
    reader, writer = await asyncio.open_connection(host, port)
    answer = asyncio.ensure_future(reader.read())
    try:
        writer.write(payload)
        if half_close:
            writer.write_eof()
        while trickle is not None and not answer.done():
            writer.write(trickle)
            await asyncio.sleep(0.01)
        raw = await answer
    except ConnectionError:          # reset while we were still sending
        return None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return int(raw.split()[1]) if raw else None


HOSTILE = {
    "oversized-request-line":
        (dict(payload=b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n"),
         {431, None}),
    "oversized-header-line":
        (dict(payload=b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 200_000
              + b"\r\n\r\n"), {431, None}),
    "ten-thousand-headers":
        (dict(payload=b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 10_000
              + b"\r\n"), {431, None}),
    "truncated-request-line":
        (dict(payload=b"GET", half_close=True), {400}),
    "truncated-headers":
        (dict(payload=b"GET /healthz HTTP/1.1\r\nHost:", half_close=True),
         {200}),
    "non-utf8-method":
        (dict(payload=b"\xff\xfe\x00 \x80\x81 HTTP/1.1\r\n\r\n"), {405}),
    "non-utf8-target":
        (dict(payload=b"GET /\xff\xfe?x=\x80 HTTP/1.1\r\n\r\n"), {404}),
    "unbalanced-bracket-target":
        (dict(payload=b"GET http://[::1 HTTP/1.1\r\n\r\n"), {400}),
    "sends-nothing":
        (dict(payload=b""), {408}),
    "stalls-mid-headers":
        (dict(payload=b"GET /healthz HTTP/1.1\r\nHost: t\r\n"), {408}),
    "trickles-headers-forever":
        (dict(payload=b"GET /healthz HTTP/1.1\r\n", trickle=b"X: y\r\n"),
         {408, 431, None}),
}


class TestHostilePeers:
    """Whatever a peer sends, it gets a response or a clean close within
    a deadline, nothing reaches the loop's exception handler, and the
    server keeps answering."""

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_answered_or_closed_within_deadline(self, rt, monkeypatch, case):
        monkeypatch.setattr(observability, "READ_TIMEOUT_S", 0.2)
        request, allowed = HOSTILE[case]
        unhandled = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            async with ObservabilityServer(runtime=rt) as server:
                status = await asyncio.wait_for(
                    exchange(server.host, server.port, **request),
                    DEADLINE_S)
                after, _ = await fetch(server.host, server.port, "/healthz")
            # a handler task that died with an exception reports it when
            # it is collected
            gc.collect()
            await asyncio.sleep(0)
            return status, after

        status, after = asyncio.run(main())
        assert status in allowed
        assert after == 200
        assert unhandled == []
