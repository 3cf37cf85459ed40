"""The blocking client's HTTP exchange, error taxonomy and retry loop.

Everything here talks to canned socket servers: 429/503 handling must
survive missing or malformed ``Retry-After`` headers, transient failures
ride the retry budget, and the hand-rolled keep-alive exchange must frame
responses exactly (reuse, fragments, ``Connection: close``, unreadable
answers, large bodies).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.engine.client import (
    EngineClient,
    ServerBusyError,
    ServerUnavailableError,
    parse_retry_after,
)


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (None, None),
        ("", None),
        ("0", 0.0),
        ("1.5", 1.5),
        ("120", 120.0),
        ("soon", None),  # free-text garbage
        ("Wed, 21 Oct 2026 07:28:00 GMT", None),  # the HTTP-date form
        ("-3", None),  # negative hints are meaningless
        ("nan", None),
    ],
)
def test_parse_retry_after(value, expected):
    parsed = parse_retry_after(value)
    if expected is None:
        assert parsed is None
    else:
        assert parsed == expected


class _ScriptedServer:
    """A canned HTTP server that follows one script per accepted connection.

    A script is a list of answers, one per request read off that
    connection; an answer is a list of byte fragments, sent separately and
    a few milliseconds apart.  The connection closes when its script runs
    out, the listener when all scripts did.  A ``None`` script slams the
    connection shut without reading (a connection reset for the client).
    """

    def __init__(self, *scripts: list[list[bytes]] | None):
        self._scripts = scripts
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()
        self.url = f"http://{self.host}:{self.port}"
        self.accepted = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        with self._listener:
            for script in self._scripts:
                connection, _addr = self._listener.accept()
                self.accepted += 1
                with connection:
                    if script is None:
                        connection.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00"
                        )
                        continue
                    connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    for answer in script:
                        if not connection.recv(65536):
                            break
                        for fragment in answer:
                            connection.sendall(fragment)
                            time.sleep(0.005)

    def join(self) -> None:
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def _flaky_server(responses: list[bytes | None]) -> tuple[str, int, threading.Thread]:
    """Serve one canned response per accepted connection, in order.

    ``None`` resets the connection without answering.  Each response
    closes the connection, so every attempt reconnects -- the worst case
    for the retry loop.
    """
    server = _ScriptedServer(*(None if r is None else [[r]] for r in responses))
    return server.host, server.port, server.thread


def _canned_server(response: bytes) -> tuple[str, int, threading.Thread]:
    """One-shot TCP server answering any request with a fixed response."""
    return _flaky_server([response])


def _respond(status_line: str, headers: list[str], body: bytes, connection: str = "close") -> bytes:
    lines = [status_line, f"Content-Length: {len(body)}", f"Connection: {connection}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def test_busy_error_with_malformed_retry_after_degrades_to_none():
    body = b'{"error": "too busy"}'
    host, port, thread = _canned_server(
        _respond("HTTP/1.1 429 Too Many Requests", ["Retry-After: soon"], body)
    )
    client = EngineClient(f"http://{host}:{port}", timeout=5.0)
    with pytest.raises(ServerBusyError) as excinfo:
        client.search("strings", "x", tau=1)
    assert excinfo.value.retry_after is None
    thread.join(timeout=5)


def test_unavailable_error_with_missing_retry_after_degrades_to_none():
    body = b'{"error": "draining"}'
    host, port, thread = _canned_server(
        _respond("HTTP/1.1 503 Service Unavailable", [], body)
    )
    client = EngineClient(f"http://{host}:{port}", timeout=5.0)
    with pytest.raises(ServerUnavailableError) as excinfo:
        client.search("strings", "x", tau=1)
    assert excinfo.value.retry_after is None
    thread.join(timeout=5)


def test_busy_error_with_numeric_retry_after_still_parses():
    body = b'{"error": "too busy"}'
    host, port, thread = _canned_server(
        _respond("HTTP/1.1 429 Too Many Requests", ["Retry-After: 2.5"], body)
    )
    client = EngineClient(f"http://{host}:{port}", timeout=5.0)
    with pytest.raises(ServerBusyError) as excinfo:
        client.search("strings", "x", tau=1)
    assert excinfo.value.retry_after == 2.5
    thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Automatic retry: a flaky server that fails N times then answers
# ---------------------------------------------------------------------------


_OK_HEALTH = _respond("HTTP/1.1 200 OK", [], b'{"status": "ok"}')
_BUSY = _respond("HTTP/1.1 429 Too Many Requests", ["Retry-After: 0"], b'{"error": "busy"}')
_DOWN = _respond("HTTP/1.1 503 Service Unavailable", ["Retry-After: 0"], b'{"error": "failover"}')
_BAD = _respond("HTTP/1.1 400 Bad Request", [], b'{"error": "nope"}')


def test_retry_budget_absorbs_busy_then_succeeds():
    host, port, thread = _flaky_server([_BUSY, _BUSY, _OK_HEALTH])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0, retries=3, backoff_base=0.001)
    assert client.healthz()["status"] == "ok"
    assert client.retries_used == 2
    thread.join(timeout=5)


def test_retry_budget_absorbs_unavailable_then_succeeds():
    host, port, thread = _flaky_server([_DOWN, _OK_HEALTH])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0, retries=1, backoff_base=0.001)
    assert client.healthz()["status"] == "ok"
    thread.join(timeout=5)


def test_retry_budget_absorbs_connection_reset():
    host, port, thread = _flaky_server([None, None, _OK_HEALTH])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0, retries=2, backoff_base=0.001)
    assert client.healthz()["status"] == "ok"
    assert client.retries_used == 2
    thread.join(timeout=5)


def test_exhausted_retry_budget_raises_the_last_error():
    host, port, thread = _flaky_server([_BUSY, _BUSY, _BUSY])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0, retries=2, backoff_base=0.001)
    with pytest.raises(ServerBusyError):
        client.healthz()
    thread.join(timeout=5)


def test_zero_retries_keeps_fail_fast_behaviour():
    host, port, thread = _flaky_server([_DOWN])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0)
    with pytest.raises(ServerUnavailableError):
        client.healthz()
    assert client.retries_used == 0
    thread.join(timeout=5)


def test_permanent_errors_are_never_retried():
    # One canned 400: a second attempt would hang on accept(), so passing
    # fast proves no retry was attempted.
    host, port, thread = _flaky_server([_BAD])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0, retries=5, backoff_base=0.001)
    with pytest.raises(Exception, match="HTTP 400"):
        client.healthz()
    assert client.retries_used == 0
    thread.join(timeout=5)


def test_retry_budget_is_per_call():
    host, port, thread = _flaky_server([_BUSY, _OK_HEALTH, _BUSY, _OK_HEALTH])
    client = EngineClient(f"http://{host}:{port}", timeout=5.0, retries=1, backoff_base=0.001)
    assert client.healthz()["status"] == "ok"
    assert client.healthz()["status"] == "ok"  # the budget reset between calls
    assert client.retries_used == 2
    thread.join(timeout=5)


def test_retry_delay_honours_retry_after_as_a_floor():
    client = EngineClient("http://127.0.0.1:1", retries=1, backoff_base=0.001, backoff_cap=0.5)
    for attempt in range(4):
        assert client._retry_delay(attempt, 0.2) >= 0.2
        assert client._retry_delay(attempt, None) <= 0.5
    # A huge hint is capped so a hostile server cannot stall the client.
    assert client._retry_delay(0, 3600.0) == 0.5


def test_client_rejects_bad_retry_configuration():
    with pytest.raises(ValueError, match="retries"):
        EngineClient("http://127.0.0.1:1", retries=-1)
    with pytest.raises(ValueError, match="backoff"):
        EngineClient("http://127.0.0.1:1", backoff_base=0.0)


# ---------------------------------------------------------------------------
# The keep-alive exchange itself, against a scripted socket server
# ---------------------------------------------------------------------------


_OK_KEEP_ALIVE = _respond("HTTP/1.1 200 OK", [], b'{"status": "ok"}', connection="keep-alive")


def test_calls_reuse_one_connection():
    server = _ScriptedServer([[_OK_KEEP_ALIVE]] * 5)
    with EngineClient(server.url, timeout=5.0) as client:
        for _ in range(5):
            assert client.healthz()["status"] == "ok"
    server.join()
    assert server.accepted == 1


def test_response_arriving_in_fragments_decodes():
    body = b'{"status": "ok"}'
    answer = [
        b"HTTP/1.1 200 OK\r\n",
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n".encode("latin-1"),
        body,
    ]
    server = _ScriptedServer([answer, answer])
    with EngineClient(server.url, timeout=5.0) as client:
        assert client.healthz() == {"status": "ok"}
        assert client.healthz() == {"status": "ok"}  # nothing was left unread
    server.join()
    assert server.accepted == 1


def test_connection_close_is_honoured_and_the_next_call_reconnects():
    # The first script has a second answer the client must never ask for:
    # after "Connection: close" it reconnects instead of reusing the socket.
    server = _ScriptedServer([[_OK_HEALTH], [_BAD]], [[_OK_KEEP_ALIVE]])
    with EngineClient(server.url, timeout=5.0) as client:
        assert client.healthz()["status"] == "ok"
        assert client._sock is None
        assert client.healthz()["status"] == "ok"
    server.join()
    assert server.accepted == 2


_SHORT_BODY = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n" + b'{"status":'
_BAD_STATUS_LINE = b"BANANA 200 OK\r\nContent-Length: 2\r\n\r\n{}"


@pytest.mark.parametrize("retries", [0, 1])
@pytest.mark.parametrize(
    ("script", "warm_up_calls"),
    [
        pytest.param([[_OK_KEEP_ALIVE]], 1, id="closed-between-requests"),
        pytest.param([[_SHORT_BODY]], 0, id="short-body"),
        pytest.param([[_BAD_STATUS_LINE]], 0, id="malformed-status-line"),
    ],
)
def test_unreadable_response_is_a_connection_error(script, warm_up_calls, retries):
    """The socket is dropped; ``retries`` absorbs it, ``retries=0`` surfaces it."""
    scripts = [script, [[_OK_KEEP_ALIVE]]] if retries else [script]
    server = _ScriptedServer(*scripts)
    with EngineClient(server.url, timeout=5.0, retries=retries, backoff_base=0.001) as client:
        for _ in range(warm_up_calls):
            assert client.healthz()["status"] == "ok"
        if retries:
            assert client.healthz()["status"] == "ok"
            assert client.retries_used == 1
        else:
            with pytest.raises(ConnectionError):
                client.healthz()
            assert client._sock is None
    server.join()
    assert server.accepted == len(scripts)


def test_large_body_is_read_in_full_and_not_beyond():
    text = "".join(f"series_{i} {i}\n" for i in range(20000))
    assert len(text) >= 256 * 1024
    metrics = _respond("HTTP/1.1 200 OK", [], text.encode("utf-8"), connection="keep-alive")
    server = _ScriptedServer([[metrics], [_OK_KEEP_ALIVE]])
    with EngineClient(server.url, timeout=5.0) as client:
        assert client.metrics() == text
        assert client.healthz()["status"] == "ok"
    server.join()
    assert server.accepted == 1


def test_header_values_may_not_smuggle_line_breaks():
    client = EngineClient("http://127.0.0.1:1")
    with pytest.raises(ValueError, match="line breaks"):
        client.search("sets", [1], tau=1, trace_id="abc\r\nX-Session-Token: 0:99")
