"""The blocking client of the HTTP serving layer.

:class:`EngineClient` is the blocking counterpart of
:class:`repro.engine.server.EngineServer`: one persistent keep-alive
socket (``TCP_NODELAY``, one ``sendall`` per request, the body read to its
exact ``Content-Length``) speaking just the HTTP/1.1 subset the server
emits, domain payloads encoded through the same :mod:`repro.engine.wire`
codecs the server decodes with, and the server's HTTP error taxonomy
mapped back to typed exceptions:

* 400 -> :class:`RequestError` (the request itself is malformed),
* 429 -> :class:`ServerBusyError` (admission control; carries
  ``retry_after``),
* 503 -> :class:`ServerUnavailableError` (draining, or a dead shard
  worker; also carries ``retry_after``).

With ``retries > 0`` the client absorbs transient failures itself:
429/503 responses and connection-level errors are retried with capped
exponential backoff plus full jitter, honouring the server's
``Retry-After`` hint as a lower bound on the wait.  ``retries=0`` (the
default) keeps the historical fail-fast behaviour.  A response the client
cannot frame (connection closed early, short body, malformed status line)
closes the socket and raises a :class:`ConnectionError`, so it takes the
same retry path as a dropped connection.  The client also
tracks a **read-your-writes session token**: every acknowledged
``/mutate`` response carries the WAL sequence map the batch landed at,
and subsequent searches send it back as ``X-Session-Token`` so a
replicated engine never routes them to a replica that has not yet
applied the caller's own writes.  The client is stdlib-only.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import urlsplit

from repro.engine.api import Query
from repro.engine.wire import encode_mutate, encode_query, merge_session


class EngineClientError(Exception):
    """Base class of every error raised by the HTTP clients."""


class RequestError(EngineClientError):
    """The server rejected the request as malformed (HTTP 400/404/405/413)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServerBusyError(EngineClientError):
    """Admission control rejected the query (HTTP 429); retry later."""

    def __init__(self, message: str, retry_after: float | None):
        super().__init__(message)
        self.retry_after = retry_after


class ServerUnavailableError(EngineClientError):
    """The server is draining or lost a shard worker (HTTP 503)."""

    def __init__(self, message: str, retry_after: float | None):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class WireResponse:
    """One decoded ``/search`` or ``/search/topk`` answer.

    Mirrors the wire schema: ``ids``/``scores`` are exactly what the engine
    returned, ``batch_size`` is always 1 (each query is its own engine
    call), and ``raw`` keeps the full JSON body for forward compatibility.
    """

    ids: list[int]
    scores: list[float] | None
    tau_effective: float | int | None
    num_candidates: int
    engine_time_ms: float
    cached: bool
    batch_size: int
    raw: dict
    #: pre-chain-filter candidate count (None when the searcher does not
    #: report the funnel; see Response.num_generated)
    num_generated: int | None = None
    #: span timeline for the request (only present when tracing was asked
    #: for via ``trace=True`` / ``trace_id=`` or forced server-side)
    trace: dict | None = None

    @property
    def num_results(self) -> int:
        return len(self.ids)

    @classmethod
    def from_wire(cls, body: dict) -> "WireResponse":
        return cls(
            ids=list(body["ids"]),
            scores=None if body.get("scores") is None else list(body["scores"]),
            tau_effective=body.get("tau_effective"),
            num_candidates=body.get("num_candidates", 0),
            num_generated=body.get("num_generated"),
            engine_time_ms=body.get("engine_time_ms", 0.0),
            cached=body.get("cached", False),
            batch_size=body.get("batch_size", 1),
            trace=body.get("trace"),
            raw=body,
        )


def _parse_base_url(base_url: str) -> tuple[str, int]:
    parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
    if parts.scheme not in ("", "http"):
        raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
    if not parts.hostname:
        raise ValueError(f"no host in {base_url!r}")
    return parts.hostname, parts.port or 80


def parse_retry_after(value: str | None) -> float | None:
    """The ``Retry-After`` header as seconds, or ``None`` when unusable.

    Servers (and intermediaries) send missing, empty, HTTP-date or otherwise
    malformed values in the wild; 429/503 handling must degrade to "no hint"
    rather than raise while the typed error is being built.
    """
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


def _raise_for_status(status: int, body: dict, retry_after: float | None) -> None:
    message = body.get("error", "") if isinstance(body, dict) else str(body)
    if status == 429:
        raise ServerBusyError(message, retry_after)
    if status == 503:
        raise ServerUnavailableError(message, retry_after)
    raise RequestError(status, message)


#: Largest response head (status line + headers) the client accepts.
_MAX_HEAD_BYTES = 64 * 1024
_HEAD_END = b"\r\n\r\n"


def _encode_request(
    method: str,
    path: str,
    host: str,
    port: int,
    payload: dict | None,
    headers: dict[str, str] | None,
) -> bytes:
    """One HTTP/1.1 keep-alive request, head and JSON body, as a single byte string."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}", f"Content-Length: {len(body)}"]
    if body:
        lines.append("Content-Type: application/json")
    for name, value in (headers or {}).items():
        if "\r" in value or "\n" in value:
            raise ValueError(f"header {name} may not contain line breaks")
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _parse_head(head: bytes) -> tuple[int, dict[str, str], int]:
    """``(status, lower-cased headers, body length)`` of one response head.

    ``head`` is everything before the blank line.  Only what the engine
    server emits is understood: a ``Content-Length`` body, no
    ``Transfer-Encoding``.  Anything else raises :class:`ConnectionError`
    -- the bytes on this connection cannot be framed, so it must be
    dropped, whatever the request was.
    """
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1.") or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {status_line!r}")
    headers: dict[str, str] = {}
    for line in header_lines:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "")
    if "transfer-encoding" in headers or not length_text.isdigit():
        raise ConnectionError(f"response without a usable Content-Length ({length_text!r})")
    return int(parts[1]), headers, int(length_text)


def _read_response(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    """Read exactly one response off a blocking socket.

    The common case -- head and body in one segment -- is a single
    ``recv``; a large body (``/metrics``) is read to its exact
    ``Content-Length``, so nothing of the next response is consumed.
    """
    received = b""
    while (end := received.find(_HEAD_END)) < 0:
        if len(received) > _MAX_HEAD_BYTES:
            raise ConnectionError("response head too large")
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionResetError("the server closed the connection before answering")
        received += chunk
    status, headers, length = _parse_head(received[:end])
    body = received[end + len(_HEAD_END) :]
    if len(body) > length:
        raise ConnectionError(f"{len(body) - length} bytes after the response body")
    if len(body) < length:
        rest = bytearray(body)
        while len(rest) < length:
            chunk = sock.recv(min(length - len(rest), 1 << 20))
            if not chunk:
                raise ConnectionError(f"short body: {len(rest)} of {length} bytes")
            rest += chunk
        body = bytes(rest)
    return status, headers, body


class EngineClient:
    """A blocking HTTP client for one engine server.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8080"`` (or bare ``host:port``).
        timeout: socket timeout in seconds for connect and each request.
        retries: retry budget **per call** for transient failures -- 429
            (admission control), 503 (draining / failover in progress) and
            connection-level errors (server restarted, keep-alive dropped).
            0 fails fast exactly like the historical client.  A retried
            mutation is at-least-once: the server may have applied a batch
            whose ack was lost, so callers that retry writes should use
            explicit ids (upserts with ids and deletes are idempotent).
        backoff_base / backoff_cap: the attempt-``n`` retry sleeps a
            uniformly random time in ``[0, min(cap, base * 2**n)]`` (full
            jitter); a ``Retry-After`` hint raises the lower bound to the
            hinted wait (itself capped by ``backoff_cap``).

    One client owns one persistent connection and is **not** thread-safe;
    give each thread its own client.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff_base <= 0 or backoff_cap <= 0:
            raise ValueError("backoff_base and backoff_cap must be positive")
        self._host, self._port = _parse_base_url(base_url)
        self._timeout = timeout
        self._retries = retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._sock: socket.socket | None = None
        self._session: str | None = None
        #: transient failures absorbed by the retry loop (observability for
        #: load generators and the chaos harness)
        self.retries_used = 0

    @property
    def session(self) -> str | None:
        """The read-your-writes token tracked from acknowledged mutations."""
        return self._session

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "EngineClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _raw_request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, float | None]:
        request = _encode_request(method, path, self._host, self._port, payload, headers)
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(request)
            status, response_headers, data = _read_response(self._sock)
        except BaseException:
            # The connection is unusable (server restarted, keep-alive
            # dropped) or holds a half-read response; throw it away so the
            # next call reconnects instead of reading stale bytes.
            self.close()
            raise
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        return status, data, parse_retry_after(response_headers.get("retry-after"))

    def _retry_delay(self, attempt: int, retry_after: float | None) -> float:
        """Full-jitter capped exponential backoff, floored by Retry-After."""
        ceiling = min(self._backoff_cap, self._backoff_base * (2**attempt))
        delay = random.uniform(0.0, ceiling)
        if retry_after is not None:
            delay = max(delay, min(retry_after, self._backoff_cap))
        return delay

    def _retrying_raw(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, float | None]:
        """One request with the per-call retry budget applied.

        Retries connection-level errors and 429/503 answers; everything
        else (including 400s) returns/raises immediately -- a malformed
        request does not become valid by waiting.
        """
        attempt = 0
        while True:
            retry_after: float | None = None
            try:
                status, data, retry_after = self._raw_request(method, path, payload, headers)
            except (ConnectionError, TimeoutError):
                if attempt >= self._retries:
                    raise
            else:
                if status not in (429, 503) or attempt >= self._retries:
                    return status, data, retry_after
            time.sleep(self._retry_delay(attempt, retry_after))
            attempt += 1
            self.retries_used += 1

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        status, data, retry_after = self._retrying_raw(method, path, payload, headers)
        decoded = json.loads(data.decode("utf-8")) if data else {}
        if status != 200:
            _raise_for_status(status, decoded, retry_after)
        return decoded

    def _search(self, path: str, body: dict, trace: bool, trace_id: str | None) -> WireResponse:
        """One search request, with the trace and session headers it needs."""
        headers: dict[str, str] = {}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        elif trace:
            headers["X-Trace"] = "1"
        if self._session is not None:
            headers["X-Session-Token"] = self._session
        return WireResponse.from_wire(self._request("POST", path, body, headers=headers or None))

    # -- API ---------------------------------------------------------------

    def search(
        self,
        backend: str,
        payload: Any,
        tau: float | int | None = None,
        chain_length: int | None = None,
        algorithm: str = "ring",
        trace: bool = False,
        trace_id: str | None = None,
    ) -> WireResponse:
        """Thresholded selection over the wire (``POST /search``).

        ``trace=True`` asks the server to record a span timeline for this
        query (returned as ``WireResponse.trace``); ``trace_id`` does the
        same under a caller-chosen id, so one id can thread through logs
        on both sides of the wire.
        """
        query = Query(
            backend=backend,
            payload=payload,
            tau=tau,
            chain_length=chain_length,
            algorithm=algorithm,
        )
        return self._search("/search", encode_query(query), trace, trace_id)

    def search_topk(
        self,
        backend: str,
        payload: Any,
        k: int,
        tau: float | int | None = None,
        chain_length: int | None = None,
        algorithm: str = "ring",
        trace: bool = False,
        trace_id: str | None = None,
    ) -> WireResponse:
        """Top-k search over the wire (``POST /search/topk``)."""
        query = Query(
            backend=backend,
            payload=payload,
            tau=tau,
            k=k,
            chain_length=chain_length,
            algorithm=algorithm,
        )
        return self._search("/search/topk", encode_query(query), trace, trace_id)

    def search_wire(self, body: dict, topk: bool = False, trace: bool = False) -> WireResponse:
        """Send an already-encoded wire query (used by the load generator)."""
        return self._search("/search/topk" if topk else "/search", body, trace, None)

    def mutate(
        self,
        backend: str,
        ops: list[dict],
        durability: str | None = None,
    ) -> dict:
        """Apply one batch of mixed upserts/deletes (``POST /mutate``).

        Each op is ``{"op": "upsert", "record": <domain record>, "id":
        optional}`` or ``{"op": "delete", "id": int}``.  ``durability`` asks
        for an ack level (``"memory"`` or ``"wal"``); the response carries
        per-op ``results`` plus the effective ``durability`` and the WAL
        sequence number the batch was acknowledged at.

        An acknowledged mutation advances the client's read-your-writes
        session token (merged per shard, so tokens only move forward);
        later searches from this client carry it as ``X-Session-Token``.
        """
        body = self._request("POST", "/mutate", encode_mutate(backend, ops, durability))
        token = body.get("session")
        if isinstance(token, str) and token:
            self._session = merge_session(self._session, token)
        return body

    def compact(self, backend: str | None = None) -> dict:
        """Fold the server's delta store(s) into rebuilt indexes."""
        payload: dict | None = None
        if backend is not None:
            payload = {"backend": backend}
        return self._request("POST", "/compact", payload)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def manifest(self) -> dict:
        return self._request("GET", "/manifest")

    def metrics(self) -> str:
        """The server's Prometheus text exposition (``GET /metrics``)."""
        status, data, retry_after = self._retrying_raw("GET", "/metrics")
        text = data.decode("utf-8")
        if status != 200:
            try:
                decoded = json.loads(text) if text else {}
            except json.JSONDecodeError:
                decoded = {"error": text}
            _raise_for_status(status, decoded, retry_after)
        return text

    def traces(self) -> dict:
        """Recently recorded request traces (``GET /debug/traces``)."""
        return self._request("GET", "/debug/traces")

    def profile(self, seconds: float | None = None) -> dict:
        """Folded-stack profile of the server and its shard workers (``GET
        /debug/profile``), sampled over a window of ``seconds`` (server
        default 1 s, capped server-side); the call returns when it ends."""
        path = "/debug/profile"
        if seconds is not None:
            path = f"/debug/profile?seconds={seconds:g}"
        return self._request("GET", path)

    def slo(self) -> dict:
        """Burn-rate monitors and shard health (``GET /debug/slo``)."""
        return self._request("GET", "/debug/slo")
