"""The asyncio HTTP/1.1 + WebSocket front end for pollution-as-a-service.

Zero dependencies: requests are parsed by hand off ``asyncio`` streams,
WebSocket upgrades go through :mod:`repro.serve.wsproto`. The event loop
only ever routes, serializes, and streams — every pollution job runs on a
:class:`~repro.serve.jobs.JobManager` worker thread, so a long run never
stalls admission, status polls, or other tenants' streams.

Routes
------
==============================  =============================================
``POST /jobs``                  submit (``repro.check`` admission; 202/4xx)
``GET /jobs``                   list known jobs
``GET /jobs/{id}``              live job status
``POST /jobs/{id}/cancel``      cancel (also ``DELETE /jobs/{id}``)
``GET /jobs/{id}/results``      chunked results (``?cursor=&limit=&kind=``)
``GET /jobs/{id}/stream``       WebSocket result stream
``GET /metrics``                Prometheus text exposition (0.0.4)
``GET /healthz``                liveness probe
==============================  =============================================

Backpressure: each stream send must clear the socket's bounded write
buffer within ``send_timeout`` seconds (``writer.drain()`` under
``asyncio.wait_for``); a consumer that cannot keep up is disconnected
with WebSocket close code 1008 rather than allowed to grow server-side
buffers without bound. The job and its results are unaffected — a
disconnected client can reconnect or fall back to cursor polling.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigError
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serve import bridge, protocol, wsproto
from repro.serve.admission import AdmissionLimits
from repro.serve.jobs import JobManager

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    426: "Upgrade Required",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_CONTENT_TYPE = "application/json; charset=utf-8"


@dataclass
class ServeConfig:
    """Everything one server instance needs to know."""

    host: str = "127.0.0.1"
    port: int = 8742
    max_concurrent_jobs: int = 2
    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    result_ttl: float = 600.0
    #: Records / log entries per stream chunk.
    chunk_size: int = bridge.DEFAULT_CHUNK
    #: Seconds between live status frames on an open stream.
    status_interval: float = 0.2
    #: Seconds a stream send may take to clear the write buffer before the
    #: consumer is judged too slow and disconnected (close code 1008).
    send_timeout: float = 10.0
    #: Outbound write-buffer high-water mark per stream socket, in bytes.
    stream_buffer: int = 256 * 1024
    #: Largest request body accepted, in bytes.
    max_body: int = 64 * 1024 * 1024


class _HttpRequest:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: dict[str, list[str]],
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def query_int(self, name: str, default: int) -> int:
        values = self.query.get(name)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            raise ConfigError(f"query parameter {name!r} must be an integer")

    def query_str(self, name: str, default: str) -> str:
        values = self.query.get(name)
        return values[0] if values else default


class PollutionServer:
    """One serving instance: a job manager behind an asyncio front end."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        manager: JobManager | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.manager = manager or JobManager(
            max_concurrent_jobs=self.config.max_concurrent_jobs,
            limits=self.config.limits,
            result_ttl=self.config.result_ttl,
            metrics=self.metrics,
        )
        self._server: asyncio.base_events.Server | None = None
        self._sweeper: asyncio.Task | None = None
        self.address: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._sweeper = asyncio.ensure_future(self._sweep_loop())
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting, cancel jobs, and drain worker threads."""
        if self._sweeper is not None:
            self._sweeper.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, self.manager.shutdown)

    async def _sweep_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(min(30.0, max(1.0, self.config.result_ttl / 4)))
                self.manager.sweep()
        except asyncio.CancelledError:
            pass

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if self._wants_upgrade(request):
                    await self._handle_stream(request, reader, writer)
                    break  # a websocket owns the connection until close
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.TimeoutError,
            asyncio.LimitOverrunError,
        ):
            pass
        except Exception:  # noqa: BLE001 - connection boundary
            try:
                await self._send_json(
                    writer, 500, {"error": "internal server error"}
                )
            except OSError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _HttpRequest | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body:
            return _HttpRequest(method, "__oversize__", {}, headers, b"")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return _HttpRequest(
            method.upper(), split.path, parse_qs(split.query), headers, body
        )

    @staticmethod
    def _wants_upgrade(request: _HttpRequest) -> bool:
        return "websocket" in request.headers.get("upgrade", "").lower()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        route = "unknown"
        status = 404
        try:
            if request.path == "__oversize__":
                route, status = "body", 413
                await self._send_json(
                    writer,
                    413,
                    {"error": f"request body exceeds {self.config.max_body} bytes"},
                )
            elif request.path == "/healthz":
                route, status = "/healthz", 200
                await self._send_json(writer, 200, {"ok": True})
            elif request.path == "/metrics":
                route, status = "/metrics", 200
                from repro.check.factbase import FACTBASE_CACHE

                FACTBASE_CACHE.publish(self.metrics)
                self.manager.admission.analysis_cache.publish(self.metrics)
                await self._send_response(
                    writer,
                    200,
                    render_prometheus(self.metrics).encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif request.path == "/jobs" and request.method == "POST":
                route = "/jobs"
                status = await self._post_job(request, writer)
            elif request.path == "/jobs" and request.method == "GET":
                route, status = "/jobs", 200
                await self._send_json(
                    writer,
                    200,
                    {"jobs": [job.status() for job in self.manager.jobs()]},
                )
            elif request.path.startswith("/jobs/"):
                route, status = await self._job_route(request, writer)
            else:
                await self._send_json(writer, 404, {"error": "no such route"})
        except ConfigError as exc:
            status = 400
            await self._send_json(writer, 400, {"error": str(exc)})
        self.metrics.counter(
            "serve_http_requests_total",
            method=request.method,
            route=route,
            status=str(status),
        ).value += 1
        return request.headers.get("connection", "").lower() != "close"

    async def _post_job(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> int:
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._send_json(writer, 400, {"error": f"bad JSON body: {exc}"})
            return 400
        loop = asyncio.get_event_loop()
        # Admission runs repro.check (CPU-bound) — keep it off the loop.
        job, decision = await loop.run_in_executor(
            None, self.manager.submit, body
        )
        if job is None:
            headers = {}
            if decision.retry_after is not None:
                headers["Retry-After"] = str(int(decision.retry_after))
            await self._send_json(
                writer, decision.status, decision.body(), extra_headers=headers
            )
            return decision.status
        payload = job.status()
        payload["check"] = decision.report
        await self._send_json(writer, 202, payload)
        return 202

    async def _job_route(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> tuple[str, int]:
        parts = request.path.strip("/").split("/")
        job_id = parts[1] if len(parts) > 1 else ""
        tail = parts[2] if len(parts) > 2 else ""
        job = self.manager.get(job_id)
        if job is None:
            await self._send_json(
                writer, 404, {"error": f"no such job {job_id!r}"}
            )
            return "/jobs/{id}", 404
        if tail == "" and request.method == "GET":
            await self._send_json(writer, 200, job.status())
            return "/jobs/{id}", 200
        if (tail == "cancel" and request.method == "POST") or (
            tail == "" and request.method == "DELETE"
        ):
            self.manager.cancel(job_id)
            await self._send_json(writer, 200, job.status())
            return "/jobs/{id}/cancel", 200
        if tail == "results" and request.method == "GET":
            kind = request.query_str("kind", "records")
            if kind not in ("records", "log"):
                await self._send_json(
                    writer, 400, {"error": f"kind must be 'records' or 'log', got {kind!r}"}
                )
                return "/jobs/{id}/results", 400
            page = bridge.page_results(
                job,
                cursor=request.query_int("cursor", 0),
                limit=request.query_int("limit", bridge.DEFAULT_CHUNK),
                kind=kind,
            )
            await self._send_json(writer, 200, page)
            return "/jobs/{id}/results", 200
        await self._send_json(writer, 405, {"error": "method not allowed"})
        return "/jobs/{id}", 405

    # -- websocket streaming -------------------------------------------------

    async def _handle_stream(
        self,
        request: _HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = request.path.strip("/").split("/")
        job = (
            self.manager.get(parts[1])
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream"
            else None
        )
        key = request.headers.get("sec-websocket-key")
        if job is None or not key:
            status = 404 if key else 400
            await self._send_json(
                writer,
                status,
                {"error": "stream upgrades live at /jobs/{id}/stream"},
            )
            self.metrics.counter(
                "serve_http_requests_total",
                method=request.method,
                route="/jobs/{id}/stream",
                status=str(status),
            ).value += 1
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {wsproto.accept_key(key)}\r\n"
                "\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        transport = writer.transport
        if transport is not None:
            transport.set_write_buffer_limits(high=self.config.stream_buffer)
        gauge = self.metrics.gauge("serve_streams_open")
        gauge.set(gauge.value + 1)
        reason = "complete"
        try:
            reason = await self._pump_stream(job, reader, writer)
        except (ConnectionResetError, BrokenPipeError, OSError):
            reason = "client_gone"
        finally:
            gauge.set(max(0, gauge.value - 1))
            self.metrics.counter(
                "serve_stream_disconnects_total", reason=reason
            ).value += 1

    async def _pump_stream(
        self,
        job: Any,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> str:
        """Drive one stream to completion; returns the disconnect reason."""
        closed = asyncio.Event()
        listener = asyncio.ensure_future(
            self._listen_for_close(reader, writer, closed)
        )
        streamed_records = 0
        try:
            frames = bridge.stream_frames(
                job,
                chunk_size=self.config.chunk_size,
                status_interval=self.config.status_interval,
            )
            async for frame in frames:
                if closed.is_set():
                    return "client_close"
                writer.write(wsproto.encode_text(protocol.dumps(frame)))
                try:
                    await asyncio.wait_for(
                        writer.drain(), timeout=self.config.send_timeout
                    )
                except asyncio.TimeoutError:
                    # Slow consumer: the bounded buffer stayed full past the
                    # deadline. Policy disconnect, not an error.
                    writer.write(
                        wsproto.encode_close(
                            wsproto.CLOSE_POLICY_VIOLATION, "consumer too slow"
                        )
                    )
                    return "slow_consumer"
                if frame.get("type") == "records":
                    streamed_records += len(frame["records"])
            writer.write(wsproto.encode_close(wsproto.CLOSE_NORMAL, "done"))
            try:
                await asyncio.wait_for(writer.drain(), timeout=1.0)
            except asyncio.TimeoutError:
                pass
            return "complete"
        finally:
            listener.cancel()
            if streamed_records:
                self.metrics.counter(
                    "serve_records_streamed_total"
                ).value += streamed_records

    @staticmethod
    async def _listen_for_close(
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        closed: asyncio.Event,
    ) -> None:
        """Consume client frames: answer pings, notice close, drop the rest."""
        frames = wsproto.FrameReader()
        try:
            while True:
                data = await reader.read(4096)
                if not data:
                    closed.set()
                    return
                for frame in frames.feed(data):
                    if frame.opcode == wsproto.OP_CLOSE:
                        closed.set()
                        return
                    if frame.opcode == wsproto.OP_PING:
                        writer.write(
                            wsproto.encode_frame(wsproto.OP_PONG, frame.payload)
                        )
        except (
            wsproto.WebSocketError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            closed.set()

    # -- response plumbing ---------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        await self._send_response(
            writer,
            status,
            protocol.dumps(payload).encode("utf-8"),
            JSON_CONTENT_TYPE,
            extra_headers,
        )

    @staticmethod
    async def _send_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        head.append("\r\n")
        writer.write("\r\n".join(head).encode("latin-1") + body)
        await writer.drain()


async def run_server(config: ServeConfig, ready: Any = None) -> None:
    """Start a server and block until cancelled (the CLI entry point)."""
    server = PollutionServer(config)
    host, port = await server.start()
    if ready is not None:
        ready(host, port)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
