"""Async network serving: a stdlib-only HTTP/1.1 JSON front-end.

:class:`EngineServer` puts a network surface on anything that meets the
:class:`repro.engine.api.Engine` contract -- in process or over shard worker
processes, the server never asks which -- so the repo's thresholded
similarity machinery is reachable by concurrent clients without importing
the package:

* **per-query dispatch**: every admitted query is one ``engine.search``
  call on a pool of one thread per CPU the process may use.  Queries from
  different connections run side by side; nothing waits for companions.
* **admission control and backpressure**: at most ``max_pending`` requests
  may be in flight; excess requests are rejected immediately with HTTP 429
  and a ``Retry-After`` hint instead of growing an unbounded queue.
* **schema-versioned JSON endpoints** (:mod:`repro.engine.wire`):
  ``POST /search`` (thresholded selection), ``POST /search/topk`` (top-k),
  ``POST /mutate`` (batched upserts/deletes with explicit durability),
  ``POST /compact``, ``GET /healthz``, ``GET /stats`` and ``GET /manifest``.
* **exclusive writes**: searches share a read/write gate, a mutation or
  compaction holds it alone -- it starts once the searches in flight
  finish, and searches admitted after it wait for it -- so no query
  observes a half-applied mutation, not even one shard's part of a
  multi-shard batch.  With a WAL attached to the engine, a mutation
  response is written only after the engine's append-and-fsync returns:
  an acknowledged batch is on disk.
* **graceful drain**: :meth:`EngineServer.stop` stops accepting work,
  answers everything already admitted, then shuts the pool down; a
  killed shard worker surfaces as 503 on the affected queries without
  wedging the dispatch.

The server is asyncio + stdlib only.  :class:`ServerThread` runs it on a
background thread with its own event loop for tests, examples and the
blocking :class:`repro.engine.client.EngineClient`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.common import diag
from repro.common.obs import MetricsRegistry, new_trace_id
from repro.engine.api import Engine, Query
from repro.engine.wal import check_durability
from repro.engine.wire import (
    WIRE_SCHEMA_VERSION,
    WireFormatError,
    decode_compact,
    decode_mutate,
    decode_query,
    encode_response,
    format_session,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request-line + single-header size cap handed to ``asyncio.start_server``.
_LINE_LIMIT = 64 * 1024
_MAX_HEADERS = 100
#: Largest accepted request body (413 above it).
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: The ``Retry-After`` hint, in seconds, on 429/503 responses.
_RETRY_AFTER = {"Retry-After": "1"}
#: Capacity of the recent-traces ring (``/debug/traces``).
_TRACE_BUFFER = 128
#: Target good-request fraction of the serving SLO (burn rates on
#: ``/healthz`` and ``/debug/slo`` are relative to the remaining budget).
_SLO_OBJECTIVE = 0.99

#: Known endpoint paths; anything else is bucketed under "other" in the
#: per-endpoint stats so a path scanner cannot grow the dict unboundedly.
_ENDPOINTS = (
    "/search",
    "/search/topk",
    "/mutate",
    "/compact",
    "/healthz",
    "/stats",
    "/manifest",
    "/metrics",
    "/debug/traces",
    "/debug/profile",
    "/debug/slo",
)

#: Engine threads: one per CPU this process may run on (what ``nproc`` says).
_ENGINE_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Longest profiling window ``GET /debug/profile?seconds=N`` accepts.
_MAX_PROFILE_SECONDS = 30.0

#: What the engine raises for a query that is itself at fault (a payload of
#: the wrong dimension, an unattached backend): a 400 for that query alone.
_REQUEST_ERRORS = (ValueError, KeyError)


@dataclass
class ServerConfig:
    """Tunables of one :class:`EngineServer`.

    Attributes:
        host / port: listen address; port 0 binds an ephemeral port
            (read the real one from :attr:`EngineServer.address`).
        max_pending: admission-control bound on in-flight requests (waiting
            plus executing); excess requests get 429 + ``Retry-After``.
        drain_timeout_s: longest :meth:`EngineServer.stop` waits for
            admitted requests before shutting the pool down regardless.
        trace: record a span timeline for every search request (clients can
            also opt in per request with an ``X-Trace: 1`` header, or pin
            the id with ``X-Trace-Id``).
        slow_query_ms: when set, every request is traced, and one at or
            above this end-to-end latency is always kept in the trace ring
            (``/debug/traces``) -- span timeline plus query summary --
            where ordinary traces cannot evict it: the slow-query log.
        trace_budget: fraction of ordinary (fast, successful) traces kept in
            the ring; slow and error traces are always kept.  1.0 keeps
            everything, 0.01 keeps every 100th ordinary trace.
        slo_latency_ms: latency target of the SLO; a request slower than
            this counts against the error budget like a failed one.
            ``None`` tracks errors only.
        durability: default ack level for ``/mutate`` requests that do not
            ask for one (``"memory"`` or ``"wal"``); ``None`` defers to the
            engine's default (``"wal"`` whenever a WAL is attached).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 256
    drain_timeout_s: float = 30.0
    trace: bool = False
    slow_query_ms: float | None = None
    trace_budget: float = 1.0
    slo_latency_ms: float | None = None
    durability: str | None = None

    def __post_init__(self) -> None:
        check_durability(self.durability)
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ValueError("slow_query_ms must be non-negative")
        if not 0.0 <= self.trace_budget <= 1.0:
            raise ValueError("trace_budget must be in [0, 1]")
        if self.slo_latency_ms is not None and self.slo_latency_ms <= 0:
            raise ValueError("slo_latency_ms must be positive")


class ServerStats:
    """Serving counters of one :class:`EngineServer`.

    Registry-backed: :meth:`snapshot` is computed from a
    :class:`repro.common.obs.MetricsRegistry`, the same one ``GET /metrics``
    renders, so the two surfaces can never disagree.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._queries = r.counter("server_queries_total", "search queries answered 200")
        self._wait_hist = r.histogram(
            "server_coalesce_wait_seconds", "per-query wait from admission to the engine call"
        )
        self._routes: set[str] = set()

    # -- write path (single-threaded: everything runs on the event loop) ----

    def observe_request(self, route: str) -> None:
        self._routes.add(route)
        self.registry.counter("http_requests_total", "requests by route", route=route).inc()

    def observe_response(self, route: str, status: int, seconds: float) -> None:
        self.registry.counter(
            "http_responses_total", "responses by route and status", route=route, code=str(status)
        ).inc()
        self.registry.histogram(
            "http_request_seconds", "request handling latency", route=route
        ).observe(seconds)

    def observe_wait(self, seconds: float) -> None:
        self._wait_hist.observe(seconds)

    def observe_query(self) -> None:
        self._queries.inc()

    def observe_rejected(self, reason: str) -> None:
        self.registry.counter(
            "server_rejected_total", "rejected requests by reason", reason=reason
        ).inc()

    def observe_suppressed(self, site: str) -> None:
        """Count an error deliberately tolerated to keep serving.

        The keep-serving catches (dead shard workers during a drain, a
        scrape racing a worker respawn) must stay visible to operators:
        a climbing ``server_suppressed_errors_total`` is the signal that
        a subsystem is failing behind an endpoint that still answers 200.
        """
        self.registry.counter(
            "server_suppressed_errors_total", "errors tolerated to keep serving", site=site
        ).inc()

    def observe_error(self, kind: str) -> None:
        self.registry.counter(
            "server_errors_total", "failed requests by kind", kind=kind
        ).inc()

    def observe_mutation(self, kind: str) -> None:
        self.registry.counter(
            "server_mutations_total", "applied mutations by kind", kind=kind
        ).inc()

    # -- read path -----------------------------------------------------------

    def snapshot(self) -> dict:
        def count(name: str, **labels: str) -> int:
            instrument = self.registry.get(name, **labels)
            return int(instrument.value) if instrument is not None else 0

        per_endpoint = {
            route: count("http_requests_total", route=route) for route in sorted(self._routes)
        }
        return {
            "num_requests": sum(per_endpoint.values()),
            "num_queries": int(self._queries.value),
            "rejected_busy": count("server_rejected_total", reason="busy"),
            "rejected_invalid": count("server_rejected_total", reason="invalid"),
            "errors_unavailable": count("server_errors_total", kind="unavailable"),
            "errors_internal": count("server_errors_total", kind="internal"),
            "num_upserts": count("server_mutations_total", kind="upsert"),
            "num_deletes": count("server_mutations_total", kind="delete"),
            "num_compactions": count("server_mutations_total", kind="compact"),
            "per_endpoint": per_endpoint,
        }


class EngineServer:
    """An asyncio HTTP/1.1 JSON server over one engine.

    Args:
        engine: anything meeting the :class:`repro.engine.api.Engine`
            contract; every admitted query is one ``search`` call on it.
        config: serving tunables; ``None`` uses the defaults.
        own_engine: close the engine on :meth:`stop`.
    """

    def __init__(
        self,
        engine: Engine,
        config: ServerConfig | None = None,
        own_engine: bool = False,
    ):
        self.engine = engine
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        # Tail-based retention: slow (>= slow_query_ms) and error traces are
        # always kept, ordinary traces ride the trace_budget sampler.
        self.traces = diag.TailSampler(
            capacity=_TRACE_BUFFER,
            budget=self.config.trace_budget,
            slow_ms=self.config.slow_query_ms,
        )
        self.slo = diag.SloMonitor(objective=_SLO_OBJECTIVE, latency_ms=self.config.slo_latency_ms)
        # One /debug/profile window at a time: a second request waits for
        # the first to disarm instead of sharing (and cutting short) it.
        self._profile_lock = asyncio.Lock()
        self._own_engine = own_engine
        # The read/write gate, touched only on the event loop (see ``_run``).
        self._gate = asyncio.Lock()
        self._readers = 0
        self._no_readers = asyncio.Event()
        self._no_readers.set()
        self._in_flight = 0
        # Requests being handled right now (parse -> dispatch -> response
        # written); the drain waits on this, not just on admitted queries,
        # so a response mid-write is never cut off by the shutdown.
        self._active_requests = 0
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        # The engines are thread-safe; the gate keeps writes exclusive.
        self._executor = ThreadPoolExecutor(
            max_workers=_ENGINE_THREADS, thread_name_prefix="engine-batch"
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; available after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("the server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port, limit=_LINE_LIMIT
        )

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish admitted work, shut down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while (self._in_flight or self._active_requests) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # Past a timed-out drain, calls that never started were cancelled
        # with their connections; this waits only for the ones running.
        self._executor.shutdown(wait=True)
        if self._own_engine:
            self.engine.close()

    # -- dispatch ----------------------------------------------------------

    async def _run(self, call: Callable[[], Any], write: bool) -> tuple[Any, float, float]:
        """Run one engine call on the pool, behind the read/write gate.

        ``_gate`` is a FIFO turnstile: a search passes through it and
        counts itself in ``_readers``; a write holds it, waits for the
        searches in flight to finish, and runs alone -- so the searches
        admitted after a write wait for it.  Returns ``(result, wait_s,
        exec_s)``: admission to the start of the call, and the call itself.
        """
        admitted = time.perf_counter()
        self._in_flight += 1
        try:
            if write:
                async with self._gate:
                    await self._no_readers.wait()
                    return await self._call(call, admitted)
            await self._gate.acquire()
            self._gate.release()
            # No await since the turnstile: a writer woken by the release
            # runs only after this search is counted.
            self._readers += 1
            self._no_readers.clear()
            try:
                return await self._call(call, admitted)
            finally:
                self._readers -= 1
                if not self._readers:
                    self._no_readers.set()
        finally:
            self._in_flight -= 1

    async def _call(self, call: Callable[[], Any], admitted: float) -> tuple[Any, float, float]:
        def timed() -> tuple[Any, float]:
            started = time.perf_counter()
            return call(), started

        loop = asyncio.get_running_loop()
        result, started = await loop.run_in_executor(self._executor, timed)
        return result, started - admitted, time.perf_counter() - started

    # -- HTTP plumbing -----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            method, path, params, headers, body = request
            self._active_requests += 1
            try:
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                route = path if path in _ENDPOINTS else "other"
                self.stats.observe_request(route)
                started = time.perf_counter()
                status, payload, extra = await self._dispatch(
                    method, path, params, headers, body
                )
                self.stats.observe_response(route, status, time.perf_counter() - started)
                await self._write_response(writer, status, payload, keep_alive, extra)
            finally:
                self._active_requests -= 1
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, dict, dict, bytes] | None:
        try:
            request_line = await reader.readline()
        except ValueError:
            # How readline reports a line over _LINE_LIMIT; what follows it
            # cannot be framed, so the connection closes after the reply.
            await self._write_response(writer, 400, {"error": "header line too long"}, False, {})
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            await self._write_response(
                writer, 400, {"error": "malformed request line"}, False, {}
            )
            return None
        method, raw_path, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                line = await reader.readline()
            except ValueError:
                await self._write_response(
                    writer, 400, {"error": "header line too long"}, False, {}
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            await self._write_response(writer, 400, {"error": "too many headers"}, False, {})
            return None
        if "transfer-encoding" in headers:
            # The parser only supports Content-Length bodies; accepting a
            # chunked body as length 0 would desync the whole connection.
            await self._write_response(
                writer, 400, {"error": "Transfer-Encoding is not supported"}, False, {}
            )
            return None
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            await self._write_response(
                writer, 400, {"error": f"bad Content-Length {length_text!r}"}, False, {}
            )
            return None
        if length > _MAX_BODY_BYTES:
            await self._write_response(
                writer,
                413,
                {"error": f"body of {length} bytes exceeds {_MAX_BODY_BYTES}"},
                False,
                {},
            )
            return None
        body = await reader.readexactly(length) if length else b""
        path, _, query_string = raw_path.partition("?")
        params: dict[str, str] = {}
        for pair in query_string.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                params[key] = value
        return method, path, params, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        keep_alive: bool,
        extra_headers: dict[str, str],
    ) -> None:
        if isinstance(payload, str):
            # Prometheus text exposition (/metrics); everything else is JSON.
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- endpoints ---------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        params: dict[str, str],
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, dict | str, dict[str, str]]:
        if path in ("/search", "/search/topk"):
            if method != "POST":
                return 405, {"error": f"{path} takes POST"}, {"Allow": "POST"}
            return await self._handle_search(path, headers, body)
        if path in ("/mutate", "/compact"):
            if method != "POST":
                return 405, {"error": f"{path} takes POST"}, {"Allow": "POST"}
            return await self._handle_mutation(path, body)
        if path in _ENDPOINTS and method != "GET":
            return 405, {"error": f"{path} takes GET"}, {"Allow": "GET"}
        if path == "/healthz":
            health = self._healthz()
            # "failing" means some shard has zero live replicas: requests
            # against it cannot succeed, so load balancers should stop
            # sending traffic here.  "degraded" (reduced redundancy, every
            # shard still answers) stays 200: the node is serving.
            return (503 if health["status"] == "failing" else 200), health, {}
        if path == "/stats":
            return 200, self._stats_payload(), {}
        if path == "/manifest":
            return 200, self._manifest_payload(), {}
        if path == "/metrics":
            return 200, self._metrics_text(), {}
        if path == "/debug/traces":
            return 200, self._traces_payload(), {}
        if path == "/debug/profile":
            return await self._handle_profile(params)
        if path == "/debug/slo":
            return 200, self._slo_payload(), {}
        self.stats.observe_rejected("invalid")
        return 404, {"error": f"unknown path {path!r}"}, {}

    def _trace_id_for(self, headers: dict[str, str]) -> str | None:
        """Resolve this request's trace id (explicit, requested, or policy)."""
        explicit = headers.get("x-trace-id")
        if explicit:
            return explicit[:64]
        requested = headers.get("x-trace")
        if requested is not None and requested.strip().lower() not in ("", "0", "false", "no"):
            return new_trace_id()
        if self.config.trace or self.config.slow_query_ms is not None:
            return new_trace_id()
        return None

    def _admit_body(self, body: bytes) -> tuple[tuple[int, dict, dict[str, str]] | None, Any]:
        """The admission prologue of every POST: 503 while draining, 429 at
        ``max_pending``, 400 for a body that is not JSON.  Returns
        ``(refusal, parsed body)``; the refusal is ``None`` when admitted."""
        if self._draining:
            self.stats.observe_error("unavailable")
            return (503, {"error": "the server is draining"}, _RETRY_AFTER), None
        if self._in_flight >= self.config.max_pending:
            self.stats.observe_rejected("busy")
            error = f"{self._in_flight} queries in flight (limit {self.config.max_pending})"
            return (429, {"error": error}, _RETRY_AFTER), None
        try:
            return None, json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.stats.observe_rejected("invalid")
            return (400, {"error": f"request body is not valid JSON: {exc}"}, {}), None

    def _failure(
        self, exc: Exception, trace_id: str | None = None
    ) -> tuple[int, dict, dict[str, str]]:
        """The response for a failed engine call, counted by kind.

        A dead shard worker or a closed engine (``ShardWorkerError`` is a
        ``RuntimeError``) is a 503: the request is lost but the server
        keeps serving, and clients may retry elsewhere or later.  Engine-level
        validation the wire decoder cannot see (backend not attached, a
        payload of the wrong dimension) is that request's own 400.  Anything
        else is a 500, not a crash.  The trace id rides along on the 5xx so
        the failure is correlatable.
        """
        if isinstance(exc, RuntimeError):
            self.stats.observe_error("unavailable")
            status, payload, headers = 503, {"error": str(exc)}, _RETRY_AFTER
        elif isinstance(exc, _REQUEST_ERRORS):
            self.stats.observe_rejected("invalid")
            return 400, {"error": str(exc)}, {}
        else:
            self.stats.observe_error("internal")
            status, payload, headers = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        return status, payload, headers

    async def _handle_search(
        self, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        refusal, parsed = self._admit_body(body)
        if refusal is not None:
            return refusal
        try:
            query = decode_query(parsed)
            if path == "/search/topk":
                if query.k is None:
                    raise WireFormatError("/search/topk requires 'k'")
            elif query.k is not None:
                raise WireFormatError(
                    "/search answers thresholded queries; use /search/topk for 'k'"
                )
        except WireFormatError as exc:
            self.stats.observe_rejected("invalid")
            return 400, {"error": str(exc)}, {}
        trace_id = self._trace_id_for(headers)
        if trace_id is not None:
            query = replace(query, trace_id=trace_id)
        # Read-your-writes: the session token rides an HTTP header (not the
        # query body) so cached/encoded queries stay token-free; a replicated
        # engine uses it to skip replicas behind the caller's own writes.
        session = headers.get("x-session-token")
        if session:
            query = replace(query, session=session[:1024])
        started = time.perf_counter()
        try:
            response, wait_s, exec_s = await self._run(
                functools.partial(self.engine.search, query), write=False
            )
        except Exception as exc:  # noqa: BLE001 - answered by kind, never a crash
            failure = self._failure(exc, trace_id)
            if failure[0] >= 500:  # the server's fault: counts against the SLO
                self._observe_failure(query, trace_id, started, exc)
            return failure
        e2e_ms = (time.perf_counter() - started) * 1000.0
        self.stats.observe_wait(wait_s)
        self.stats.observe_query()
        self.slo.observe(e2e_ms)
        payload = encode_response(response)
        if trace_id is not None:
            payload["trace"] = self._request_trace(path, query, response, wait_s, exec_s, e2e_ms)
            self.traces.add(payload["trace"], e2e_ms=e2e_ms)
        return 200, payload, {}

    def _request_trace(
        self,
        path: str,
        query: Query,
        response: Any,
        wait_s: float,
        exec_s: float,
        e2e_ms: float,
    ) -> dict:
        """One request's diagnostic document: what was asked and what it
        cost (``query``, the line a slow-query log would carry), and the
        timeline -- the wait from admission to the engine call
        (``coalesce_wait``), then the call itself (``batch_exec``) with the
        engine's own span tree (which for a sharded engine holds the
        per-shard candidate/verify spans and the merge) embedded."""
        wait_ms = wait_s * 1000.0
        children = []
        engine_trace = getattr(response, "trace", None)
        if engine_trace:
            children.append(
                {
                    "name": engine_trace.get("name", "engine"),
                    "start_ms": 0.0,
                    "duration_ms": engine_trace.get("duration_ms", 0.0),
                    "children": engine_trace.get("spans", []),
                }
            )
        return {
            "trace_id": query.trace_id,
            "name": "request",
            "duration_ms": round(e2e_ms, 4),
            "query": {
                "ts": round(time.time(), 3),
                "route": path,
                "backend": query.backend,
                "tau": query.tau,
                "k": query.k,
                "algorithm": query.algorithm,
                "batch_size": 1,
                "num_results": response.num_results,
                "num_candidates": response.num_candidates,
                "num_generated": response.num_generated,
                "cached": response.cached,
            },
            "spans": [
                {
                    "name": "coalesce_wait",
                    "start_ms": 0.0,
                    "duration_ms": round(wait_ms, 4),
                    "children": [],
                },
                {
                    "name": "batch_exec",
                    "start_ms": round(wait_ms, 4),
                    "duration_ms": round(exec_s * 1000.0, 4),
                    "children": children,
                },
            ],
        }

    def _observe_failure(
        self, query: Query, trace_id: str | None, started: float, exc: Exception
    ) -> None:
        """Count a failed query against the SLO and always-keep its trace."""
        e2e_ms = (time.perf_counter() - started) * 1000.0
        self.slo.observe(e2e_ms, error=True)
        if trace_id is not None:
            self.traces.add(
                {
                    "trace_id": trace_id,
                    "name": "request",
                    "error": f"{type(exc).__name__}: {exc}",
                    "backend": query.backend,
                    "duration_ms": round(e2e_ms, 4),
                    "spans": [],
                },
                e2e_ms=e2e_ms,
                error=True,
            )

    async def _handle_mutation(self, path: str, body: bytes) -> tuple[int, dict, dict[str, str]]:
        """Apply one mutation batch or compaction, alone behind the gate.

        No search runs while it does, so every search sees either all of a
        mutation or none of it, and the admission-control / drain
        bookkeeping covers writes exactly like reads.  ``engine.mutate``
        appends the batch to the WAL and fsyncs before returning (at "wal"
        durability), and it returns before the response is written -- so a
        client ack always means the batch is on disk.
        """
        refusal, parsed = self._admit_body(body)
        if refusal is not None:
            return refusal
        try:
            if path == "/mutate":
                backend_name, ops, durability = decode_mutate(parsed)
                if durability is None:
                    durability = self.config.durability
                call = functools.partial(self.engine.mutate, backend_name, ops, durability)
                kinds = ["mutate", *(op["op"] for op in ops)]
            else:
                call = functools.partial(self.engine.compact, decode_compact(parsed))
                kinds = ["compact"]
        except WireFormatError as exc:
            self.stats.observe_rejected("invalid")
            return 400, {"error": str(exc)}, {}
        try:
            payload, _wait_s, _exec_s = await self._run(call, write=True)
        except Exception as exc:  # noqa: BLE001 - answered by kind, never a crash
            return self._failure(exc)
        for kind in kinds:
            self.stats.observe_mutation(kind)
        payload["schema_version"] = WIRE_SCHEMA_VERSION
        token = format_session(payload.get("wal_seq"))
        if token is not None:
            payload["session"] = token
        return 200, payload, {}

    def _healthz(self) -> dict:
        slo = self.slo.status()
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "schema_version": WIRE_SCHEMA_VERSION,
            "engine": type(self.engine).__name__,
            "in_flight": self._in_flight,
            "slo": {
                "breaching": slo["breaching"],
                "fast_burn_rate": slo["windows"]["fast"]["burn_rate"],
                "slow_burn_rate": slo["windows"]["slow"]["burn_rate"],
            },
        }
        if not self._draining:
            try:
                entries = self.engine.shard_health()
            except Exception:  # noqa: BLE001 - scoreboard must not take /healthz down
                self.stats.observe_suppressed("healthz_shard_health")
                entries = []
            # The replica overlay decides the grade: a shard with zero live
            # replicas makes the node "failing" (it cannot answer for that
            # id range); down-but-covered replicas or a catching-up sibling
            # make it "degraded".  Scoreboard grades (error ratios) never
            # escalate past degraded while replicas are live -- transparent
            # failover means an unhealthy window is survivable.
            degraded = False
            for entry in entries:
                live = entry.get("live_replicas")
                if live is not None:
                    if live == 0:
                        payload["status"] = "failing"
                        return payload
                    if live < entry.get("num_replicas", live):
                        degraded = True
                if entry.get("status") not in ("ok", "idle", None):
                    degraded = True
            if degraded:
                payload["status"] = "degraded"
        return payload

    def _stats_payload(self) -> dict:
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "server": self.stats.snapshot(),
            "config": {"max_pending": self.config.max_pending},
            "engine": self.engine.stats.snapshot(),
        }
        try:
            payload["replicas"] = self.engine.replica_status()
            # Per backend: WAL, checkpoint and background-compaction state,
            # last_error included -- the only place a failed background
            # compaction shows.
            payload["durability"] = {
                name: self.engine.durability_info(name)
                for name in self.engine.describe()["backends"]
            }
        except Exception:  # noqa: BLE001 - a respawn race must not take /stats down
            self.stats.observe_suppressed("engine_status")
        return payload

    def _metrics_text(self) -> str:
        registry = self.stats.registry
        registry.gauge("server_in_flight", "admitted queries in flight").set(self._in_flight)
        merged = MetricsRegistry()
        merged.merge_wire(registry.to_wire())
        try:
            merged.merge_wire(self.engine.metrics_wire())
        except Exception:  # noqa: BLE001 - a dead worker must not take /metrics down
            self.stats.observe_suppressed("engine_metrics_wire")
        return merged.render_prometheus()

    def _traces_payload(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "traces": self.traces.snapshot(32),
            "sampling": self.traces.stats(),
        }

    async def _handle_profile(
        self, params: dict[str, str]
    ) -> tuple[int, dict, dict[str, str]]:
        """``GET /debug/profile[?seconds=N]``: folded stacks per thread role.

        One on-demand window (default 1 s): arm a sampler in this process
        and, through the engine, in every live shard worker; sleep; collect;
        disarm -- in a ``finally``, so a window cancelled by a timed-out
        drain leaves no sampler running.  The handler only sleeps (sampling
        happens on daemon threads), so other requests keep flowing, and a
        worker that dies or is healed mid-window contributes no samples.
        """
        raw = params.get("seconds", "1")
        try:
            seconds = float(raw)
        except ValueError:
            return 400, {"error": f"bad seconds {raw!r}"}, {}
        if not 0 < seconds <= _MAX_PROFILE_SECONDS:
            return 400, {"error": f"seconds must be in (0, {_MAX_PROFILE_SECONDS:g}]"}, {}
        wires: list[dict] = []
        async with self._profile_lock:
            sampler = diag.SamplingProfiler().start()
            try:
                self.engine.start_profiling()
                await asyncio.sleep(seconds)
                wires = self.engine.profile_wire()
            except Exception:  # noqa: BLE001 - a closed engine must not take the endpoint down
                self.stats.observe_suppressed("worker_profile_wire")
            finally:
                sampler.stop()
                self.engine.stop_profiling()
        merged = diag.merge_profiles([sampler.snapshot(), *wires])
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "profile": merged,
            "folded": diag.render_folded(merged).splitlines(),
            "top": diag.top_self_frames(merged),
            "attribution": {
                role: round(share, 4)
                for role, share in diag.role_attribution(merged).items()
            },
        }
        return 200, payload, {}

    def _slo_payload(self) -> dict:
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "slo": self.slo.status(),
            "trace_sampling": self.traces.stats(),
        }
        try:
            payload["shards"] = self.engine.shard_health()
        except Exception:  # noqa: BLE001 - scoreboard must not take the endpoint down
            payload["shards"] = []
        return payload

    def _manifest_payload(self) -> dict:
        return {"schema_version": WIRE_SCHEMA_VERSION, **self.engine.describe()}


class ServerThread:
    """Run an :class:`EngineServer` on a background thread with its own loop.

    Used by tests, the quickstart example and anything else that wants a
    live HTTP endpoint inside one process::

        with ServerThread(engine) as handle:
            client = EngineClient(handle.url)
            ...

    ``stop()`` (or leaving the ``with`` block) drains the server gracefully
    and joins the thread.
    """

    def __init__(
        self,
        engine: Engine,
        config: ServerConfig | None = None,
        own_engine: bool = False,
    ):
        self.server = EngineServer(engine, config, own_engine=own_engine)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="engine-server", daemon=True
        )
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float | None = None) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
