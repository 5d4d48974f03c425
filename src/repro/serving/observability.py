"""Live observability endpoint: the runtime registry over asyncio HTTP.

A tiny, dependency-free HTTP/1.1 server (``asyncio.start_server``) that
exposes what a dashboard needs while a gateway is serving:

- ``GET /healthz`` — gateway liveness + queue/shed counters (JSON);
- ``GET /metrics`` — the full runtime observability dump, canonical JSON
  via :func:`repro.viz.exporters.registry_to_json`;
- ``GET /metrics/stream?frames=N&interval_s=T`` — N registry snapshots
  as newline-delimited JSON, one every T seconds (a poll-free live feed
  for the D3 layer the paper renders with);
- ``GET /spans`` — the tracer's finished spans as a parent/child forest
  (:meth:`repro.runtime.tracing.Tracer.span_tree`).

Responses close the connection (``Connection: close``); the stream route
is length-less and close-delimited, so a plain ``curl`` tails it.  The
peer is not trusted: a request head that is too slow, too long or has too
many header lines is answered 408 / 431 and closed, never left to pin a
connection or raise out of the handler task.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from typing import Optional, Tuple

from repro.runtime import get_runtime
from repro.viz.exporters import registry_to_json

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            431: "Request Header Fields Too Large"}

#: bounds on the stream route, so a typo'd query cannot pin the server
MAX_STREAM_FRAMES = 10_000
MAX_STREAM_INTERVAL_S = 60.0

#: bounds on what a peer may send: the whole request head has to arrive
#: within READ_TIMEOUT_S (so no single read waits longer), in at most
#: MAX_HEADER_COUNT header lines, each inside the StreamReader line limit
READ_TIMEOUT_S = 5.0
MAX_HEADER_COUNT = 100


def _response(status: int, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def _json_response(status: int, payload) -> bytes:
    return _response(status,
                     json.dumps(payload, sort_keys=True).encode("utf-8"))


class _RequestError(Exception):
    """A request head this server refuses; carries the HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_head(reader: "asyncio.StreamReader"
                     ) -> Optional[Tuple[str, str]]:
    """``(method, target)`` with the headers drained (none are needed).

    ``None`` when the peer closed without sending anything.
    """
    try:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _RequestError(400, "bad request")
        for _ in range(MAX_HEADER_COUNT + 1):
            if await reader.readline() in (b"\r\n", b"\n", b""):
                return parts[0], parts[1]
    except ValueError:               # a line over the StreamReader limit
        raise _RequestError(
            431, "request line or header line too long") from None
    raise _RequestError(431, f"more than {MAX_HEADER_COUNT} header lines")


class ObservabilityServer:
    """Serve runtime observability over a loopback HTTP port.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    ``(host, port)`` so tests and launchers never race on a fixed port.
    """

    def __init__(self, runtime=None, gateway=None,
                 host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime or get_runtime()
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: Optional["asyncio.base_events.Server"] = None

    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            return self.host, self.port
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ObservabilityServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- request handling -------------------------------------------------------
    async def _handle(self, reader: "asyncio.StreamReader",
                      writer: "asyncio.StreamWriter") -> None:
        try:
            try:
                head = await asyncio.wait_for(_read_head(reader),
                                              READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                writer.write(_json_response(
                    408, {"error": "request head timed out"}))
                return
            except _RequestError as error:
                writer.write(_json_response(
                    error.status, {"error": str(error)}))
                return
            except ConnectionError:
                return                       # peer reset mid-request
            if head is None:
                return
            method, target = head
            if method != "GET":
                writer.write(_json_response(
                    405, {"error": f"method {method} not allowed"}))
                return
            try:
                split = urllib.parse.urlsplit(target)
            except ValueError:               # e.g. an unbalanced "[" host
                writer.write(_json_response(400, {"error": "bad target"}))
                return
            query = urllib.parse.parse_qs(split.query)
            await self._route(split.path, query, writer)
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass                         # peer already hung up

    async def _route(self, path: str, query, writer) -> None:
        if path == "/healthz":
            payload = {"status": "ok"}
            if self.gateway is not None:
                payload.update(self.gateway.stats())
                if payload.pop("closed"):
                    payload["status"] = "closed"
            writer.write(_json_response(200, payload))
        elif path == "/metrics":
            body = registry_to_json(self.runtime).encode("utf-8")
            writer.write(_response(200, body))
        elif path == "/metrics/stream":
            await self._stream(query, writer)
        elif path == "/spans":
            writer.write(_json_response(
                200, self.runtime.tracer.span_tree()))
        else:
            writer.write(_json_response(404, {"error": f"no route {path}"}))

    async def _stream(self, query, writer) -> None:
        try:
            frames = int(query.get("frames", ["3"])[0])
            interval_s = float(query.get("interval_s", ["0.05"])[0])
        except ValueError:
            writer.write(_json_response(
                400, {"error": "frames/interval_s must be numeric"}))
            return
        if not 1 <= frames <= MAX_STREAM_FRAMES \
                or not 0.0 <= interval_s <= MAX_STREAM_INTERVAL_S:
            writer.write(_json_response(
                400, {"error": "frames or interval_s out of bounds"}))
            return
        writer.write(("HTTP/1.1 200 OK\r\n"
                      "Content-Type: application/x-ndjson\r\n"
                      "Connection: close\r\n\r\n").encode("latin-1"))
        for sequence in range(frames):
            snapshot = {"sequence": sequence,
                        "metrics": self.runtime.registry.dump()}
            if self.gateway is not None:
                snapshot["gateway"] = self.gateway.stats()
            writer.write(json.dumps(snapshot, sort_keys=True).encode("utf-8")
                         + b"\n")
            await writer.drain()
            if sequence + 1 < frames and interval_s > 0:
                await asyncio.sleep(interval_s)
