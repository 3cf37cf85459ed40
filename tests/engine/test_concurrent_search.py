"""Concurrent searches answer exactly as serial ones do, on both topologies.

The server runs every query as its own ``engine.search`` on a thread pool,
so both engines must give byte-identical answers and exact statistics
under concurrent callers -- from a cold start, where the threads race to
build the same searcher, with the result cache on -- and the sharded
engine's own counters must lose no update.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.obs import MetricsRegistry
from repro.engine import Query, SearchEngine, ShardedEngine, build_shards

ALL_DOMAINS = ["hamming", "sets", "strings", "graphs"]
THREADS = 4


def _queries(name, query_payloads, taus, topk):
    payloads = query_payloads[name][:4]
    if not topk:
        return [Query(backend=name, payload=payload, tau=taus[name]) for payload in payloads]
    # Graph edit distance is exponential in the ladder's tau: two shallow
    # top-2 queries keep the graphs ladder cheap.
    k, payloads = (2, payloads[:2]) if name == "graphs" else (5, payloads)
    return [Query(backend=name, payload=payload, tau=taus[name], k=k) for payload in payloads]


def _open(topology, name, datasets, directory):
    if topology == "sharded":
        return ShardedEngine(directory, cache_size=64)
    engine = SearchEngine(cache_size=64)
    engine.add_dataset(name, datasets[name])
    return engine


def _lookups(engine, topology):
    """Engine-level ``(tau-selections served, cache hits, cache misses)``,
    summed over the shard workers of a sharded engine."""
    registry = (
        MetricsRegistry.merged([engine.metrics_wire()])
        if topology == "sharded"
        else engine.stats.registry
    )
    return tuple(
        int(registry.get(metric).value)
        for metric in (
            "engine_queries_total",
            "engine_cache_hits_total",
            "engine_cache_misses_total",
        )
    )


def _answers(responses):
    return [
        ([int(obj_id) for obj_id in response.ids], response.scores) for response in responses
    ]


@contextlib.contextmanager
def _frequent_thread_switches():
    """Switch threads every microsecond, so a lost update has a chance to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _concurrently(engine, queries):
    """``queries`` from ``THREADS`` threads started together, answers in order."""
    start = threading.Barrier(THREADS)

    def one(position):
        if position < THREADS:
            start.wait(timeout=30)
        return engine.search(queries[position])

    with _frequent_thread_switches(), ThreadPoolExecutor(max_workers=THREADS) as pool:
        return list(pool.map(one, range(len(queries))))


@pytest.mark.parametrize("topology", ["plain", "sharded"])
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_concurrent_searches_answer_as_serial_ones(
    tmp_path, datasets, query_payloads, taus, name, topology
):
    directory = str(tmp_path / name)
    if topology == "sharded":
        build_shards(name, datasets[name], directory, 2)
    # Every query three times over: the repeats are cache hits, or race the
    # first answer when they run at the same time.
    threshold = _queries(name, query_payloads, taus, topk=False) * 3
    topk = _queries(name, query_payloads, taus, topk=True) * 3

    serial = _open(topology, name, datasets, directory)
    try:
        expected = _answers(serial.search(query) for query in threshold + topk)
    finally:
        serial.close()

    engine = _open(topology, name, datasets, directory)
    calls = [0]
    if topology == "plain":
        # Count every lookup, top-k rungs included (run_topk calls back into
        # engine.search); a top-k query that races its own first answer runs
        # its ladder again, so the count is not known in advance.
        search = engine.search
        counter = threading.Lock()

        def counted(query):
            with counter:
                calls[0] += 1
            return search(query)

        engine.search = counted
    try:
        responses = _concurrently(engine, threshold)
        # Each engine (each shard worker) answered every threshold query
        # once, from the index or from the cache.
        served, hits, _misses = _lookups(engine, topology)
        num_engines = 2 if topology == "sharded" else 1
        assert served + hits == num_engines * len(threshold)
        responses += _concurrently(engine, topk)
        _served, hits, misses = _lookups(engine, topology)
        if topology == "plain":
            assert hits + misses == calls[0]
        else:
            snapshot = engine.stats.snapshot()
            assert snapshot["num_queries"] == len(responses)
            assert [shard["num_queries"] for shard in snapshot["per_shard"]] == [
                len(responses)
            ] * 2
    finally:
        engine.close()
    assert [response.query for response in responses] == threshold + topk
    assert _answers(responses) == expected


def test_sharded_stats_count_every_query_under_concurrent_callers(tmp_path, datasets, taus):
    directory = str(tmp_path / "stats")
    build_shards("hamming", datasets["hamming"], directory, 2)
    query = Query(backend="hamming", payload=datasets["hamming"].vectors[0], tau=taus["hamming"])
    with ShardedEngine(directory) as engine:
        _concurrently(engine, [query] * 200)
        snapshot = engine.stats.snapshot()
        assert engine.stats.registry.get("sharded_queries_total").value == 200
        assert [shard["num_queries"] for shard in snapshot["per_shard"]] == [200, 200]
