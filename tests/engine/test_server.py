"""The HTTP serving layer: wire equality, dispatch, backpressure, drain."""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.engine import (
    EngineClient,
    Query,
    RequestError,
    Response,
    SearchEngine,
    ServerBusyError,
    ServerConfig,
    ServerThread,
    ServerUnavailableError,
    ShardedEngine,
    build_shards,
)
from repro.engine import server as server_module
from repro.engine.wire import WireFormatError, decode_query, encode_query

ALL_DOMAINS = ["hamming", "sets", "strings", "graphs"]


@pytest.fixture(scope="module")
def reference(datasets):
    engine = SearchEngine(cache_size=0)
    for name, dataset in datasets.items():
        engine.add_dataset(name, dataset)
    return engine


@pytest.fixture(scope="module")
def served(datasets):
    """One live HTTP server over all four domains, shared by the module."""
    engine = SearchEngine(cache_size=0)
    for name, dataset in datasets.items():
        engine.add_dataset(name, dataset)
    with ServerThread(engine) as handle:
        yield handle


@pytest.fixture()
def client(served):
    with EngineClient(served.url) as c:
        yield c


# ---------------------------------------------------------------------------
# Wire codec round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_wire_query_round_trip(name, query_payloads, taus, reference):
    query = Query(backend=name, payload=query_payloads[name][0], tau=taus[name])
    decoded = decode_query(encode_query(query))
    assert decoded.backend == name
    assert decoded.tau == taus[name]
    # The round-tripped payload answers identically to the original.
    assert reference.search(decoded).ids == reference.search(query).ids


def test_wire_preserves_int_float_tau_distinction():
    body = encode_query(Query(backend="sets", payload=[1, 2], tau=1))
    assert isinstance(decode_query(body).tau, int)
    body = encode_query(Query(backend="sets", payload=[1, 2], tau=1.0))
    assert isinstance(decode_query(body).tau, float)


@pytest.mark.parametrize(
    "body, match",
    [
        ([1, 2, 3], "JSON object"),
        ({"backend": "nope", "payload": [], "tau": 1}, "unknown backend"),
        ({"backend": "sets", "tau": 1}, "missing 'payload'"),
        ({"backend": "sets", "payload": "xyz", "tau": 1}, "payload"),
        ({"backend": "sets", "payload": [1], "tau": 1, "k": "five"}, "k must be"),
        ({"backend": "sets", "payload": [1], "tau": float("nan")}, "NaN"),
        ({"backend": "sets", "payload": [1], "tau": -2}, "non-negative"),
        ({"backend": "sets", "payload": [1]}, "threshold tau"),
        ({"backend": "sets", "payload": [1], "tau": 1, "algorithm": "gph"}, "algorithm"),
        ({"backend": "sets", "payload": [1], "tau": 1, "schema_version": 99}, "schema"),
    ],
)
def test_wire_decode_rejects_malformed_bodies(body, match):
    with pytest.raises(WireFormatError, match=match):
        decode_query(body)


# ---------------------------------------------------------------------------
# Served results are byte-identical to the in-process engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_served_threshold_identical_to_in_process(
    name, served, reference, query_payloads, taus
):
    with EngineClient(served.url) as client:
        for payload in query_payloads[name]:
            local = reference.search(Query(backend=name, payload=payload, tau=taus[name]))
            wire = client.search(name, payload, tau=taus[name])
            assert wire.ids == [int(obj_id) for obj_id in local.ids]
            assert wire.scores is None
            assert wire.tau_effective == local.tau_effective
            assert wire.num_candidates == local.num_candidates


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_served_topk_identical_to_in_process(name, served, reference, query_payloads, taus):
    k = 2 if name == "graphs" else 5
    with EngineClient(served.url) as client:
        for payload in query_payloads[name][:2]:
            local = reference.search(
                Query(backend=name, payload=payload, tau=taus[name], k=k)
            )
            wire = client.search_topk(name, payload, k=k, tau=taus[name])
            assert wire.ids == [int(obj_id) for obj_id in local.ids]
            assert wire.scores == [float(score) for score in local.scores]
            assert wire.tau_effective == local.tau_effective


# ---------------------------------------------------------------------------
# Introspection endpoints
# ---------------------------------------------------------------------------


def test_healthz_reports_ok(client):
    body = client.healthz()
    assert body["status"] == "ok"
    assert body["engine"] == "SearchEngine"


def test_manifest_describes_all_backends(client, datasets):
    body = client.manifest()
    assert set(body["backends"]) == set(ALL_DOMAINS)
    descriptor = body["backends"]["hamming"]["descriptor"]
    assert descriptor["num_objects"] == len(datasets["hamming"])
    assert "default_tau" in body["backends"]["sets"]


def test_stats_counts_requests_and_batches(served, client, query_payloads, taus):
    client.search("sets", query_payloads["sets"][0], tau=taus["sets"])
    body = client.stats()
    assert body["server"]["num_queries"] >= 1
    assert body["engine"]["num_queries"] >= 1
    assert body["config"]["max_pending"] == 256


# ---------------------------------------------------------------------------
# HTTP error taxonomy
# ---------------------------------------------------------------------------


def test_unknown_path_is_404(client):
    # /upsert and /delete were routes until wire v4; one-op writes are /mutate.
    for method, path in (("GET", "/nope"), ("POST", "/upsert"), ("POST", "/delete")):
        with pytest.raises(RequestError) as info:
            client._request(method, path, {"backend": "sets", "id": 0})
        assert info.value.status == 404


def test_wrong_method_is_405(client):
    with pytest.raises(RequestError) as info:
        client._request("POST", "/healthz", {"x": 1})
    assert info.value.status == 405


def test_malformed_query_is_400_with_reason(client):
    with pytest.raises(RequestError, match="unknown backend") as info:
        client.search_wire({"backend": "nope", "payload": [], "tau": 1})
    assert info.value.status == 400


def test_topk_endpoint_requires_k(client, query_payloads, taus):
    body = encode_query(
        Query(backend="sets", payload=query_payloads["sets"][0], tau=taus["sets"])
    )
    with pytest.raises(RequestError, match="requires 'k'"):
        client.search_wire(body, topk=True)


def test_search_endpoint_rejects_k(client, query_payloads):
    body = encode_query(Query(backend="sets", payload=query_payloads["sets"][0], k=3))
    with pytest.raises(RequestError, match="topk"):
        client.search_wire(body)


def test_non_object_body_is_400(client):
    with pytest.raises(RequestError, match="JSON object"):
        client.search_wire([1, 2, 3])


def test_infinite_tau_is_400_not_500(served, client, query_payloads):
    # json.loads accepts the non-standard Infinity literal; the validator
    # must turn it into a 400, not an OverflowError-driven 500.
    body = {"backend": "hamming", "payload": [0, 1], "tau": float("inf")}
    with pytest.raises(RequestError, match="finite") as info:
        client.search_wire(body)
    assert info.value.status == 400
    assert served.server.stats.snapshot()["errors_internal"] == 0


def _raw_http(served, request: bytes) -> bytes:
    import socket as socket_module

    host, port = served.address
    with socket_module.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        sock.settimeout(5)
        chunks = []
        while True:
            try:
                chunk = sock.recv(4096)
            except TimeoutError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_negative_content_length_is_400(served):
    reply = _raw_http(
        served,
        b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n"
        b"Connection: close\r\n\r\n",
    )
    assert reply.startswith(b"HTTP/1.1 400")
    assert b"Content-Length" in reply


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
    ],
    ids=["header", "request-line"],
)
def test_overlong_header_line_is_400(served, caplog, request_head):
    # A line over asyncio's 64 KiB stream limit makes readline() raise
    # ValueError, which must become a 400, not a dead connection task.
    with caplog.at_level("ERROR", logger="asyncio"):
        reply = _raw_http(served, request_head)
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply
        assert b"header line too long" in reply
        # The listener is unharmed: the next connection is served.
        assert _raw_http(
            served, b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        ).startswith(b"HTTP/1.1 200")
    assert "Unhandled exception" not in caplog.text


def test_chunked_transfer_encoding_is_rejected(served):
    reply = _raw_http(
        served,
        b"POST /search HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n"
        b"Connection: close\r\n\r\n7b\r\n",
    )
    assert reply.startswith(b"HTTP/1.1 400")
    assert b"Transfer-Encoding" in reply


def test_unknown_paths_bucket_as_other_in_stats(served, client):
    for path in ("/nope", "/admin", "/x" * 10):
        with pytest.raises(RequestError):
            client._request("GET", path)
    per_endpoint = served.server.stats.snapshot()["per_endpoint"]
    known = {"other", "/search", "/search/topk", "/healthz", "/stats", "/manifest"}
    assert set(per_endpoint) <= known
    assert per_endpoint["other"] >= 3


# ---------------------------------------------------------------------------
# Per-query dispatch and the read/write gate
# ---------------------------------------------------------------------------


class _BlockingEngine:
    """A stand-in engine whose searches block until released.

    Records the payload of every search it is handed and, in ``events``,
    the order in which searches and mutations reached it.  ``fail_payloads``
    raise instead, as an engine fault; ``bad_payloads`` are refused as a
    real engine refuses a query of the wrong dimension: with a
    ``ValueError``.  Mutations never block.
    """

    def __init__(self, fail_payloads=(), bad_payloads=()):
        self.release = threading.Event()
        self.payloads: list[list] = []
        self.events: list[tuple] = []
        self.running = 0
        self.fail_payloads = [list(payload) for payload in fail_payloads]
        self.bad_payloads = [list(payload) for payload in bad_payloads]
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return len(self.payloads)

    def search(self, query):
        with self._lock:
            self.payloads.append(query.payload)
            self.events.append(("search", query.payload))
            self.running += 1
        try:
            assert self.release.wait(timeout=30.0)
            if query.payload in self.fail_payloads:
                raise ZeroDivisionError("engine blew up")
            if query.payload in self.bad_payloads:
                raise ValueError(f"bad payload {query.payload}")
            return Response(query=query, ids=[], tau_effective=query.tau)
        finally:
            with self._lock:
                self.running -= 1

    def mutate(self, backend_name, ops, durability=None):
        with self._lock:
            self.events.append(("mutate", self.running))
        return {"results": [], "wal_seq": None}


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class _Callers:
    """Callers started one at a time, each once the previous was admitted.

    ``requests[i]`` is ``("search", payload)`` or ``("mutate", ops)``; a bare
    int is the search for ``[i]``.  ``outcomes[i]`` ends up as the
    ``WireResponse`` (or mutation body) or the raised exception of caller
    ``i``.
    """

    def __init__(self, handle, requests):
        self.outcomes: dict[int, object] = {}
        self.threads = []
        for index, request in enumerate(requests):
            if isinstance(request, int):
                request = ("search", [request])
            thread = threading.Thread(target=self._call, args=(handle.url, index, request))
            thread.start()
            self.threads.append(thread)
            assert _wait_for(lambda: handle.server._in_flight == index + 1)

    def _call(self, url, index, request):
        kind, body = request
        try:
            with EngineClient(url) as client:
                if kind == "search":
                    self.outcomes[index] = client.search("sets", body, tau=1)
                else:
                    self.outcomes[index] = client.mutate("sets", body)
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            self.outcomes[index] = exc

    def join(self):
        for thread in self.threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in self.threads)


def test_concurrent_queries_each_run_their_own_search():
    engine = _BlockingEngine()
    with ServerThread(engine) as handle:
        callers = _Callers(handle, range(6))
        # Every admitted query is its own engine call, as many at once as
        # the pool has threads; none waits for companions.
        assert _wait_for(lambda: engine.running == min(6, server_module._ENGINE_THREADS))
        engine.release.set()
        callers.join()
        assert sorted(engine.payloads) == [[index] for index in range(6)]
        assert [callers.outcomes[index].batch_size for index in range(6)] == [1] * 6
        snapshot = handle.server.stats.snapshot()
        assert snapshot["num_queries"] == 6
        assert "num_batches" not in snapshot


def test_serial_queries_dispatch_without_a_coalescing_wait():
    engine = _BlockingEngine()
    engine.release.set()
    with ServerThread(engine) as handle, EngineClient(handle.url) as client:
        responses = [client.search("sets", [i], tau=1, trace=True) for i in range(41)]
    assert all(response.batch_size == 1 for response in responses)
    waits_ms = sorted(response.trace["spans"][0]["duration_ms"] for response in responses)
    assert responses[0].trace["spans"][0]["name"] == "coalesce_wait"
    # An idle pool starts the call at once: no timer to sit out.
    assert waits_ms[len(waits_ms) // 2] < 0.5


def test_engine_exception_fails_exactly_its_query():
    engine = _BlockingEngine(fail_payloads=[[1]])
    with ServerThread(engine) as handle:
        callers = _Callers(handle, range(4))
        engine.release.set()
        callers.join()
        assert sorted(engine.payloads) == [[0], [1], [2], [3]]
        for index in (0, 2, 3):
            assert callers.outcomes[index].ids == []
        failure = callers.outcomes[1]
        assert isinstance(failure, RequestError) and failure.status == 500
        assert "engine blew up" in str(failure)
        assert handle.server.stats.snapshot()["errors_internal"] == 1
        # The dispatch lives on: the next query is answered.
        with EngineClient(handle.url) as client:
            assert client.search("sets", [9], tau=1).batch_size == 1


def test_bad_query_fails_alone():
    engine = _BlockingEngine(bad_payloads=[[2]])
    with ServerThread(engine) as handle:
        callers = _Callers(handle, range(5))
        engine.release.set()
        callers.join()
        # Each query reached the engine exactly once; only the offender failed.
        assert sorted(engine.payloads) == [[0], [1], [2], [3], [4]]
        for index in (0, 1, 3, 4):
            assert callers.outcomes[index].ids == []
        failure = callers.outcomes[2]
        assert isinstance(failure, RequestError) and failure.status == 400
        assert "bad payload [2]" in str(failure)
        assert handle.server.stats.snapshot()["rejected_invalid"] == 1
        assert handle.server.stats.snapshot()["errors_internal"] == 0
        with EngineClient(handle.url) as client:
            assert client.search("sets", [9], tau=1).batch_size == 1
            with pytest.raises(RequestError) as info:
                client.search("sets", [2], tau=1)
            assert info.value.status == 400


def test_a_write_runs_alone_between_the_searches_around_it():
    engine = _BlockingEngine()
    delete_one = [{"op": "delete", "id": 5}]
    with ServerThread(engine) as handle:
        # A search blocked in the engine, a write admitted behind it, and a
        # search admitted behind the write.
        callers = _Callers(handle, [0, ("mutate", delete_one), 1])
        # The write waits for the search in flight, and the later search
        # waits for the write, though the pool has room for it.
        time.sleep(0.05)
        assert engine.events == [("search", [0])]
        engine.release.set()
        callers.join()
        assert engine.events == [("search", [0]), ("mutate", 0), ("search", [1])]
        assert callers.outcomes[0].ids == [] and callers.outcomes[2].ids == []
        assert handle.server.stats.snapshot()["num_deletes"] == 1


def test_backpressure_rejects_with_429_and_retry_after():
    engine = _BlockingEngine()
    config = ServerConfig(max_pending=2)
    with ServerThread(engine, config) as handle:
        results = []

        def one():
            with EngineClient(handle.url) as client:
                results.append(client.search("sets", [1, 2], tau=1))

        threads = [threading.Thread(target=one) for _ in range(2)]
        threads[0].start()
        assert _wait_for(lambda: handle.server._in_flight == 1)
        threads[1].start()
        assert _wait_for(lambda: handle.server._in_flight == 2)

        # The admission bound is reached: the next query is turned away
        # immediately with a Retry-After hint, not queued.
        with EngineClient(handle.url) as client:
            with pytest.raises(ServerBusyError) as info:
                client.search("sets", [3], tau=1)
        assert info.value.retry_after is not None
        assert handle.server.stats.snapshot()["rejected_busy"] == 1

        engine.release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 2
        # Rejected requests never reached the engine.
        assert handle.server.stats.snapshot()["num_queries"] == 2


def test_graceful_drain_answers_in_flight_queries():
    engine = _BlockingEngine()
    handle = ServerThread(engine).start()
    url = handle.url
    # Four admitted queries, as many in the engine as the pool has threads:
    # the drain must see all of them through, then stop.
    callers = _Callers(handle, range(4))
    assert handle.server._in_flight == 4

    stopper = threading.Thread(target=handle.stop)
    stopper.start()
    time.sleep(0.05)
    assert stopper.is_alive()
    engine.release.set()
    stopper.join(timeout=10)
    callers.join()
    assert not stopper.is_alive()
    assert [callers.outcomes[index].ids for index in range(4)] == [[]] * 4
    assert sorted(engine.payloads) == [[0], [1], [2], [3]]
    with pytest.raises((ConnectionError, OSError)):
        EngineClient(url, timeout=1.0).healthz()


def test_timed_out_drain_abandons_what_never_started(caplog):
    engine = _BlockingEngine()
    handle = ServerThread(engine, ServerConfig(drain_timeout_s=0.05)).start()
    # A search blocked in the engine holds a write and a second search at
    # the gate: neither of them ever starts.
    callers = _Callers(handle, [0, ("mutate", [{"op": "delete", "id": 5}]), 1])

    stopper = threading.Thread(target=handle.stop)
    stopper.start()
    # Past the drain deadline the connections are dropped; stop() then only
    # waits for the call the pool is still running.
    assert _wait_for(lambda: handle.server._in_flight == 0)
    engine.release.set()
    stopper.join(timeout=10)
    callers.join()
    assert not stopper.is_alive()
    assert engine.events == [("search", [0])]
    assert all(isinstance(callers.outcomes[i], ConnectionError) for i in range(3))
    assert not [record for record in caplog.records if record.name == "asyncio"]


def test_draining_server_rejects_new_queries_with_503():
    engine = _BlockingEngine()
    engine.release.set()
    with ServerThread(engine) as handle:
        with EngineClient(handle.url) as client:
            client.healthz()
            handle.server._draining = True
            with pytest.raises(ServerUnavailableError, match="draining"):
                client.search("sets", [1], tau=1)
            assert client.healthz()["status"] == "draining"
        handle.server._draining = False


# ---------------------------------------------------------------------------
# Sharded engine behind the server: a dead worker maps to 503
# ---------------------------------------------------------------------------


def test_dead_shard_worker_maps_to_503_without_wedging(tmp_path, datasets, taus):
    directory = str(tmp_path / "strings-shards")
    build_shards("strings", datasets["strings"], directory, 2)
    engine = ShardedEngine(directory)
    with ServerThread(engine, own_engine=True) as handle:
        with EngineClient(handle.url) as client:
            ok = client.search("strings", datasets["strings"].record(0), tau=taus["strings"])
            assert ok.num_results >= 1  # the record itself matches at tau >= 0

            # Kill one shard's worker process out from under the engine.
            victim = engine.replica_status()[0]["replicas"][0]["pid"]
            os.kill(victim, signal.SIGKILL)

            with pytest.raises(ServerUnavailableError, match="shard"):
                client.search("strings", datasets["strings"].record(0), tau=taus["strings"])

            # The server survives: health and stats still answer, and the
            # failure is accounted as unavailability, not a crash.  With no
            # replica left for shard 0, /healthz reports "failing" as a 503
            # so load balancers stop routing here.
            with pytest.raises(ServerUnavailableError):
                client.healthz()
            status, data, _retry = client._raw_request("GET", "/healthz")
            assert status == 503
            assert json.loads(data)["status"] == "failing"
            assert handle.server.stats.snapshot()["errors_unavailable"] >= 1
            with pytest.raises(ServerUnavailableError):
                client.search("strings", datasets["strings"].record(1), tau=taus["strings"])


# ---------------------------------------------------------------------------
# Served writes are atomic with respect to served reads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", [0, 2])
def test_served_writes_are_atomic_for_concurrent_readers(tmp_path, datasets, num_shards):
    """Every write batch deletes, or re-upserts, one id in each shard's
    range; no reader may see one of the pair without the other (a sharded
    ``/mutate`` applies its per-shard sub-batches in parallel)."""
    record = datasets["sets"].record(0)
    pair = {10, 100}  # one id per shard of 150 records split in two
    if num_shards:
        directory = str(tmp_path / "shards")
        build_shards("sets", datasets["sets"], directory, num_shards)
        engine = ShardedEngine(directory)
    else:
        engine = SearchEngine(cache_size=0)
        engine.add_dataset("sets", datasets["sets"])
    upserts = [{"op": "upsert", "record": record, "id": obj_id} for obj_id in sorted(pair)]
    deletes = [{"op": "delete", "id": obj_id} for obj_id in sorted(pair)]
    torn: list[set] = []
    reads = [0]
    done = threading.Event()

    def read(url):
        with EngineClient(url) as client:
            while not done.is_set():
                seen = pair & set(client.search("sets", record, tau=1.0).ids)
                reads[0] += 1
                if seen not in (set(), pair):
                    torn.append(seen)

    with ServerThread(engine, own_engine=True) as handle:
        with EngineClient(handle.url) as writer:
            writer.mutate("sets", upserts)
            readers = [threading.Thread(target=read, args=(handle.url,)) for _ in range(3)]
            for thread in readers:
                thread.start()
            try:
                for batch in range(60):
                    writer.mutate("sets", deletes if batch % 2 == 0 else upserts)
            finally:
                done.set()
                for thread in readers:
                    thread.join(timeout=30)
    assert reads[0] > 0
    assert torn == []
