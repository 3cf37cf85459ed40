"""Observability across the stack: traces, metrics, the slow ring, overhead."""

from __future__ import annotations

import json
import time
import timeit

import pytest

from repro.common import obs
from repro.common.obs import MetricsRegistry, span, span_tree_coverage
from repro.engine import (
    EngineClient,
    Query,
    SearchEngine,
    ServerConfig,
    ServerThread,
    ShardedEngine,
    build_shards,
)


def _find_spans(nodes, name):
    """Every span named ``name`` anywhere in a span forest."""
    found = []
    for node in nodes:
        if node.get("name") == name:
            found.append(node)
        found.extend(_find_spans(node.get("children", ()), name))
    return found


# ---------------------------------------------------------------------------
# in-process engine tracing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["hamming", "sets", "strings", "graphs"])
def test_traced_query_returns_span_tree(name, engine, query_payloads, taus):
    query = Query(
        backend=name, payload=query_payloads[name][0], tau=taus[name], trace_id="t-1"
    )
    response = engine.search(query)
    doc = response.trace
    assert doc is not None and doc["trace_id"] == "t-1"
    searcher = _find_spans(doc["spans"], "searcher")
    assert len(searcher) == 1
    stages = {child["name"] for child in searcher[0]["children"]}
    assert {"candidates", "verify"} <= stages
    # The searcher dominates an in-process query.
    assert searcher[0]["duration_ms"] <= doc["duration_ms"]


def test_untraced_query_has_no_trace(engine, query_payloads, taus):
    query = Query(backend="sets", payload=query_payloads["sets"][0], tau=taus["sets"])
    assert engine.search(query).trace is None


def test_tracing_does_not_change_answers(engine, query_payloads, taus):
    plain = Query(backend="strings", payload=query_payloads["strings"][0], tau=taus["strings"])
    traced = Query(
        backend="strings",
        payload=query_payloads["strings"][0],
        tau=taus["strings"],
        trace_id="t-2",
    )
    a = engine.search(plain)
    b = engine.search(traced)
    assert a.ids == b.ids
    assert a.num_candidates == b.num_candidates


def test_cache_hit_traces_fresh_and_never_serves_stale_timeline(
    engine, query_payloads, taus
):
    payload = query_payloads["sets"][1]
    first = engine.search(
        Query(backend="sets", payload=payload, tau=taus["sets"], trace_id="miss-id")
    )
    assert not first.cached and first.trace["trace_id"] == "miss-id"
    hit = engine.search(
        Query(backend="sets", payload=payload, tau=taus["sets"], trace_id="hit-id")
    )
    assert hit.cached
    # A fresh timeline for the hit, not a replay of the miss's trace.
    assert hit.trace["trace_id"] == "hit-id"
    assert _find_spans(hit.trace["spans"], "cache_hit")
    # An untraced request never inherits the cached response's timeline.
    assert engine.search(Query(backend="sets", payload=payload, tau=taus["sets"])).trace is None


def test_topk_rungs_nest_under_one_trace(engine, query_payloads):
    query = Query(
        backend="hamming", payload=query_payloads["hamming"][0], k=5, trace_id="topk-id"
    )
    response = engine.search(query)
    doc = response.trace
    assert doc["trace_id"] == "topk-id"
    rungs = [node for node in doc["spans"] if node["name"].startswith("rung[")]
    assert rungs, f"no rung spans in {[s['name'] for s in doc['spans']]}"
    # Every escalation rung ran inside this trace, not as nested trace docs.
    assert _find_spans(doc["spans"], "rank")


def test_engine_metrics_wire_matches_stats(engine, query_payloads, taus):
    engine.reset_stats()
    for payload in query_payloads["sets"][:3]:
        engine.search(Query(backend="sets", payload=payload, tau=taus["sets"]))
    wire = engine.metrics_wire()
    registry = MetricsRegistry.merged([wire])
    snap = engine.stats.snapshot()
    assert registry.get("engine_queries_total").value == snap["num_queries"] == 3
    hist = registry.get("engine_query_seconds", backend="sets")
    assert hist is not None and hist.count == 3
    # Registry-derived quantiles are what /stats reports (satellite: one
    # bookkeeping path).
    assert hist.quantile(0.5) * 1000.0 == pytest.approx(snap["per_backend"]["sets"]["p50_ms"])


def test_reset_stats_keeps_the_state_gauges(engine):
    engine.mutate("strings", [{"op": "upsert", "record": "fresh"}, {"op": "delete", "id": 0}])
    names = (
        "engine_store_epoch",
        "engine_mutation_epoch",
        "engine_delta_records",
        "engine_delta_tombstones",
    )

    def gauges(backend: str) -> list:
        found = [engine.stats.registry.get(name, backend=backend) for name in names]
        return [gauge and gauge.value for gauge in found]

    assert gauges("strings") == [1.0, 1.0, 1.0, 1.0]
    engine.reset_stats()
    assert gauges("strings") == [1.0, 1.0, 1.0, 1.0]
    # Every attached backend is re-observed, not only the mutated one.
    assert gauges("hamming") == [1.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# sharded engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_sets(tmp_path_factory, datasets):
    directory = str(tmp_path_factory.mktemp("obs_shards") / "sets")
    build_shards("sets", datasets["sets"], directory, 2)
    with ShardedEngine(directory) as engine:
        yield engine


def test_sharded_trace_embeds_per_shard_stage_spans(sharded_sets, query_payloads, taus):
    query = Query(
        backend="sets",
        payload=query_payloads["sets"][0],
        tau=taus["sets"],
        trace_id="sh-1",
    )
    response = sharded_sets.search(query)
    doc = response.trace
    assert doc["trace_id"] == "sh-1" and doc["name"] == "sharded"
    fanout = _find_spans(doc["spans"], "fanout")
    assert len(fanout) == 1
    shard_spans = [
        child for child in fanout[0]["children"] if child["name"].startswith("shard[")
    ]
    assert len(shard_spans) == 2
    for shard_span in shard_spans:
        assert _find_spans(shard_span["children"], "candidates")
        assert _find_spans(shard_span["children"], "verify")
    assert _find_spans(doc["spans"], "merge")


def test_sharded_metrics_merge_worker_registries(sharded_sets, query_payloads, taus):
    sharded_sets.reset_stats()
    queries = [
        Query(backend="sets", payload=payload, tau=taus["sets"])
        for payload in query_payloads["sets"][:4]
    ]
    for query in queries:
        sharded_sets.search(query)
    registry = MetricsRegistry.merged([sharded_sets.metrics_wire()])
    assert registry.get("sharded_queries_total").value == len(queries)
    # Every query fans out to both shard workers; the merged histogram saw
    # every worker-side sample (satellite: merged == unsharded observer).
    assert registry.get("engine_queries_total").value >= 2 * len(queries)
    hist = registry.get("engine_query_seconds", backend="sets")
    assert hist.count >= 2 * len(queries)
    assert hist.quantile(0.95) >= hist.quantile(0.5) >= 0.0
    per_shard = sharded_sets.stats.snapshot()["per_shard"]
    assert sum(entry["worker_errors"] for entry in per_shard) == 0


# ---------------------------------------------------------------------------
# served stack
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(datasets):
    engine = SearchEngine(cache_size=0)
    for name, dataset in datasets.items():
        engine.add_dataset(name, dataset)
    with ServerThread(engine) as handle:
        yield handle


@pytest.fixture()
def client(served):
    with EngineClient(served.url) as c:
        yield c


def test_served_trace_spans_cover_request_latency(client, query_payloads, taus):
    """Acceptance: coalesce wait + batch exec account for the e2e latency."""
    best = 0.0
    for payload in query_payloads["sets"][:5]:
        response = client.search("sets", payload, tau=taus["sets"], trace=True)
        doc = response.trace
        assert doc is not None and doc["name"] == "request"
        names = [node["name"] for node in doc["spans"]]
        assert names == ["coalesce_wait", "batch_exec"]
        engine_spans = _find_spans(doc["spans"], "engine")
        assert engine_spans and _find_spans(engine_spans[0]["children"], "searcher")
        best = max(best, span_tree_coverage(doc))
    assert best >= 0.95, f"span coverage {best:.3f} < 0.95"


def test_served_trace_id_header_threads_through(client, query_payloads, taus):
    response = client.search(
        "sets", query_payloads["sets"][0], tau=taus["sets"], trace_id="my-id-42"
    )
    assert response.trace["trace_id"] == "my-id-42"
    # And it is retrievable from the server's debug ring.
    traces = client.traces()["traces"]
    assert "my-id-42" in [doc["trace_id"] for doc in traces]


def test_untraced_served_response_carries_no_trace(client, query_payloads, taus):
    response = client.search("sets", query_payloads["sets"][0], tau=taus["sets"])
    assert response.trace is None
    assert "trace" not in response.raw


def test_metrics_endpoint_is_monotone_prometheus(client, query_payloads, taus):
    def scrape() -> dict[str, float]:
        samples = {}
        for line in client.metrics().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            # Traced histograms may append an OpenMetrics exemplar.
            name, _, value = obs.strip_exemplar(line).rpartition(" ")
            samples[name] = float(value)
        return samples

    before = scrape()
    assert any(key.startswith("http_requests_total") for key in before)
    for payload in query_payloads["sets"][:3]:
        client.search("sets", payload, tau=taus["sets"])
    after = scrape()
    for key, value in before.items():
        if "_total" in key or "_count" in key or "_bucket" in key:
            assert after.get(key, 0.0) >= value, f"{key} went backwards"
    key = 'http_requests_total{route="/search"}'
    assert after[key] >= before.get(key, 0.0) + 3
    # The engine's registry is merged into the same exposition.
    assert any(key.startswith("engine_query_seconds_count") for key in after)


def test_served_2shard_trace_and_error_trace_id(tmp_path, datasets, query_payloads, taus):
    directory = str(tmp_path / "shards")
    build_shards("sets", datasets["sets"], directory, 2)
    engine = ShardedEngine(directory)
    try:
        with ServerThread(engine) as handle:
            with EngineClient(handle.url) as client:
                response = client.search(
                    "sets", query_payloads["sets"][0], tau=taus["sets"], trace=True
                )
                doc = response.trace
                shard_spans = _find_spans(doc["spans"], "shard[0]")
                assert shard_spans and _find_spans(doc["spans"], "shard[1]")
                assert _find_spans(doc["spans"], "candidates")
                assert span_tree_coverage(doc) > 0.5
                # Kill the workers underneath the server: the 5xx payload
                # must carry the request's trace id (satellite 2).
                engine.close()
                status, data, _retry = client._raw_request(
                    "POST",
                    "/search",
                    {
                        "backend": "sets",
                        "payload": list(query_payloads["sets"][0]),
                        "tau": taus["sets"],
                    },
                    headers={"X-Trace-Id": "err-id-7"},
                )
                assert status in (500, 503)
                body = json.loads(data.decode("utf-8"))
                assert body["trace_id"] == "err-id-7"
                metrics = client.metrics()
                assert "server_errors_total" in metrics
    finally:
        engine.close()


def test_slow_query_threshold_traces_every_request_into_the_slow_ring(
    datasets, query_payloads, taus
):
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("sets", datasets["sets"])
    with ServerThread(engine, ServerConfig(slow_query_ms=0.0)) as handle:
        with EngineClient(handle.url) as client:
            response = client.search("sets", query_payloads["sets"][0], tau=taus["sets"])
            # slow_query_ms forces tracing even without an X-Trace header.
            assert response.trace is not None
            body = client.traces()
    assert body["sampling"]["kept_slow"] == 1 and len(body["traces"]) == 1
    entry = body["traces"][0]
    assert entry == response.trace
    assert entry["query"]["route"] == "/search" and entry["query"]["backend"] == "sets"
    assert _find_spans(entry["spans"], "batch_exec")
    assert entry["query"]["num_candidates"] >= entry["query"]["num_results"]


# ---------------------------------------------------------------------------
# disabled-path overhead
# ---------------------------------------------------------------------------


def test_disabled_tracing_overhead_is_negligible(datasets, query_payloads, taus):
    """Satellite: tracing off must cost <2% of an uncached query."""
    per_span_s = min(timeit.repeat(lambda: span("x"), number=20000, repeat=5)) / 20000
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("sets", datasets["sets"])
    query = Query(backend="sets", payload=query_payloads["sets"][0], tau=taus["sets"])
    engine.search(query)  # warm
    latencies = []
    for _ in range(7):
        start = time.perf_counter()
        engine.search(query)
        latencies.append(time.perf_counter() - start)
    typical = sorted(latencies)[len(latencies) // 2]
    # Generous bound: far more guard checks per query than the pipeline has.
    assert 16 * per_span_s < 0.02 * typical, (
        f"no-op span costs {per_span_s * 1e9:.0f} ns; 16 of them exceed 2% "
        f"of a {typical * 1e3:.3f} ms query"
    )
