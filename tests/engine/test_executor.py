"""Query execution: thread safety, the LRU cache, and statistics."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Query, SearchEngine

from .conftest import delete, upsert


def _workload_queries(query_payloads, taus, name, algorithm="ring"):
    return [
        Query(backend=name, payload=payload, tau=taus[name], algorithm=algorithm)
        for payload in query_payloads[name]
    ]


@pytest.mark.parametrize("name", ["hamming", "sets", "strings", "graphs"])
def test_batch_matches_sequential_execution(engine, query_payloads, taus, name):
    queries = _workload_queries(query_payloads, taus, name)
    sequential = [engine.search(query) for query in queries]
    engine.clear_cache()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(engine.search, queries))
    for a, b in zip(sequential, parallel):
        assert sorted(a.ids) == sorted(b.ids)


def test_parallel_batch_preserves_order(engine, query_payloads, taus):
    queries = _workload_queries(query_payloads, taus, "hamming")
    with ThreadPoolExecutor(max_workers=3) as pool:
        responses = list(pool.map(engine.search, queries))
    for query, response in zip(queries, responses):
        assert response.query.payload is query.payload


def test_mixed_domain_batch(engine, query_payloads, taus):
    queries = [
        _workload_queries(query_payloads, taus, name)[0]
        for name in ("hamming", "sets", "strings", "graphs")
    ]
    responses = [engine.search(query) for query in queries]
    assert [response.query.backend for response in responses] == [
        "hamming",
        "sets",
        "strings",
        "graphs",
    ]


def test_lru_cache_hit_returns_same_results(engine, query_payloads, taus):
    query = _workload_queries(query_payloads, taus, "strings")[0]
    first = engine.search(query)
    second = engine.search(query)
    assert not first.cached
    assert second.cached
    assert second.ids == first.ids
    snapshot = engine.stats.snapshot()
    assert snapshot["cache_hits"] == 1
    assert snapshot["cache_misses"] == 1
    # Statistics count served (non-cached) queries only.
    assert snapshot["num_queries"] == 1


def test_cache_distinguishes_parameters(engine, query_payloads):
    payload = query_payloads["hamming"][0]
    base = Query(backend="hamming", payload=payload, tau=8)
    engine.search(base)
    for other in (
        Query(backend="hamming", payload=payload, tau=9),
        Query(backend="hamming", payload=payload, tau=8, chain_length=2),
        Query(backend="hamming", payload=payload, tau=8, algorithm="baseline"),
    ):
        assert not engine.search(other).cached
    assert engine.search(base).cached


def test_cache_distinguishes_int_and_float_tau(engine, query_payloads):
    """For sets, tau=1 (overlap) and tau=1.0 (Jaccard) are different queries."""
    payload = query_payloads["sets"][0]
    engine.search(Query(backend="sets", payload=payload, tau=1))
    jacc = engine.search(Query(backend="sets", payload=payload, tau=1.0))
    assert not jacc.cached


def test_lru_eviction(datasets, query_payloads, taus):
    engine = SearchEngine(cache_size=1)
    engine.add_dataset("strings", datasets["strings"])
    queries = _workload_queries(query_payloads, taus, "strings")[:2]
    engine.search(queries[0])
    assert engine.search(queries[0]).cached
    engine.search(queries[1])  # evicts queries[0]
    assert not engine.search(queries[0]).cached


def test_cache_disabled(datasets, query_payloads, taus):
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("strings", datasets["strings"])
    query = _workload_queries(query_payloads, taus, "strings")[0]
    engine.search(query)
    assert not engine.search(query).cached


def test_replacing_a_dataset_invalidates_its_cache(datasets, query_payloads, taus):
    from repro.strings import StringDataset

    engine = SearchEngine()
    engine.add_dataset("strings", datasets["strings"])
    query = _workload_queries(query_payloads, taus, "strings")[0]
    engine.search(query)
    engine.add_dataset("strings", StringDataset(["completely", "different"]))
    assert not engine.search(query).cached


def test_stats_aggregate_per_backend(engine, query_payloads, taus):
    for name in ("hamming", "sets"):
        for query in _workload_queries(query_payloads, taus, name):
            engine.search(query)
    snapshot = engine.stats.snapshot()
    assert set(snapshot["per_backend"]) == {"hamming", "sets"}
    assert snapshot["per_backend"]["hamming"]["num_queries"] == len(query_payloads["hamming"])
    assert snapshot["per_backend"]["sets"]["num_queries"] == len(query_payloads["sets"])
    assert snapshot["engine_time_s"] > 0.0
    assert snapshot["num_queries"] == sum(
        backend["num_queries"] for backend in snapshot["per_backend"].values()
    )


def test_engine_results_match_direct_searchers(engine, datasets, query_payloads):
    """The engine is a serving layer: per-domain semantics are unchanged."""
    from repro.hamming import RingHammingSearcher

    searcher = RingHammingSearcher(datasets["hamming"], chain_length=3)
    for payload in query_payloads["hamming"]:
        direct = searcher.search(payload, 16)
        served = engine.search(Query(backend="hamming", payload=payload, tau=16, chain_length=3))
        assert served.ids == list(direct.results)
        assert served.num_candidates == direct.num_candidates


# ---------------------------------------------------------------------------
# Canonical cache keys: semantically equal payloads must share one entry
# ---------------------------------------------------------------------------


def test_cache_key_canonical_for_token_set_payloads(engine, query_payloads, taus):
    """list / set / frozenset / duplicated-token payloads hit one entry."""
    tokens = list(query_payloads["sets"][0])
    first = engine.search(Query(backend="sets", payload=tokens, tau=taus["sets"]))
    for variant in (set(tokens), frozenset(tokens), tokens + tokens[:1], tuple(tokens)):
        response = engine.search(Query(backend="sets", payload=variant, tau=taus["sets"]))
        assert response.cached, f"payload variant {type(variant).__name__} missed the cache"
        assert response.ids == first.ids


def test_cache_key_canonical_for_numpy_vector_payloads(engine, query_payloads, taus):
    import numpy as np

    vector = np.asarray(query_payloads["hamming"][0], dtype=np.uint8)
    first = engine.search(Query(backend="hamming", payload=vector, tau=taus["hamming"]))
    for variant in (
        [int(bit) for bit in vector],
        vector.astype(np.int64),
        vector.astype(bool),
    ):
        response = engine.search(Query(backend="hamming", payload=variant, tau=taus["hamming"]))
        assert response.cached, f"payload dtype {type(variant).__name__} missed the cache"
        assert response.ids == first.ids


def test_cache_key_canonical_for_graph_payloads(engine, query_payloads, taus):
    """The same graph assembled in a different insertion order must hit."""
    from repro.graphs.graph import Graph

    graph = query_payloads["graphs"][0]
    reordered = Graph()
    for vertex in reversed(graph.vertices):
        reordered.add_vertex(vertex, graph.vertex_label(vertex))
    for u, v, label in reversed(graph.edges()):
        reordered.add_edge(v, u, label)  # swapped endpoints: same edge
    first = engine.search(Query(backend="graphs", payload=graph, tau=taus["graphs"]))
    response = engine.search(Query(backend="graphs", payload=reordered, tau=taus["graphs"]))
    assert response.cached
    assert response.ids == first.ids


def test_cache_key_canonical_for_string_payloads(engine, query_payloads, taus):
    payload = query_payloads["strings"][0]
    first = engine.search(Query(backend="strings", payload=payload, tau=taus["strings"]))
    response = engine.search(Query(backend="strings", payload=str(payload), tau=taus["strings"]))
    assert response.cached
    assert response.ids == first.ids


# ---------------------------------------------------------------------------
# Cache invalidation: mutations and store replacement evict stale state
# ---------------------------------------------------------------------------


def test_mutation_evicts_stale_cached_responses(engine, query_payloads, taus):
    payload = query_payloads["strings"][0]
    query = Query(backend="strings", payload=payload, tau=taus["strings"])
    engine.search(query)
    assert engine.search(query).cached
    new_id = upsert(engine, "strings", str(payload))  # an exact match, distance 0
    refreshed = engine.search(query)
    assert not refreshed.cached, "a cached Response survived an upsert"
    assert new_id in refreshed.ids
    delete(engine, "strings", new_id)
    after_delete = engine.search(query)
    assert not after_delete.cached, "a cached Response survived a delete"
    assert new_id not in after_delete.ids


def test_mutation_keeps_other_backends_cached(engine, query_payloads, taus):
    """Invalidation is per backend, not a global cache wipe."""
    strings_query = Query(
        backend="strings", payload=query_payloads["strings"][0], tau=taus["strings"]
    )
    hamming_query = Query(
        backend="hamming", payload=query_payloads["hamming"][0], tau=taus["hamming"]
    )
    engine.search(strings_query)
    engine.search(hamming_query)
    upsert(engine, "strings", "brand new record")
    assert not engine.search(strings_query).cached
    assert engine.search(hamming_query).cached


def test_store_replacement_evicts_responses_and_searchers(query_payloads, taus):
    """Replacing a dataset drops both cached Responses and stale searchers."""
    from repro.strings import StringDataset

    engine = SearchEngine(cache_size=32)
    engine.add_dataset("strings", StringDataset(["alpha", "beta", "gamma"], kappa=2))
    query = Query(backend="strings", payload="alpha", tau=0, algorithm="linear")
    assert engine.search(query).ids == [0]
    assert engine.search(query).cached
    engine.add_dataset("strings", StringDataset(["delta", "alpha"], kappa=2))
    refreshed = engine.search(query)
    # A stale searcher would still scan the old record list; a stale cache
    # entry would replay [0].  Both must be gone.
    assert not refreshed.cached
    assert refreshed.ids == [1]


def test_compaction_that_finishes_after_a_reload_is_discarded():
    """A rebuild of a store that was replaced meanwhile must not be installed."""
    from repro.engine import get_backend, register_backend
    from repro.strings import StringDataset

    original = get_backend("strings")
    engine = SearchEngine(cache_size=8)

    class ReloadsDuringRebuild(type(original)):
        def apply_mutations(self, store, delta):
            rebuilt = super().apply_mutations(store, delta)
            engine.add_dataset("strings", StringDataset(["zeta", "eta", "theta"], kappa=2))
            return rebuilt

    engine.add_dataset("strings", StringDataset(["alpha", "beta", "gamma", "delta"], kappa=2))
    upsert(engine, "strings", "epsilon")
    register_backend(ReloadsDuringRebuild(), replace=True)
    try:
        summary = engine.compact("strings")
    finally:
        register_backend(original, replace=True)
    assert summary["compacted"] is False and summary["delta_records"] == 0
    assert engine.store("strings").records == ["zeta", "eta", "theta"]
    assert engine.search(Query(backend="strings", payload="zeta", tau=1)).ids == [0, 1]
    # Nothing is left in flight: writes and compactions carry on.
    assert upsert(engine, "strings", "iota") == 3
    assert engine.compact("strings")["compacted"] is True
    assert engine.store("strings").records == ["zeta", "eta", "theta", "iota"]


def test_compaction_evicts_stale_searchers(engine, query_payloads, taus):
    """After compact the main store changed: searchers must be rebuilt."""
    payload = query_payloads["sets"][0]
    query = Query(backend="sets", payload=payload, tau=taus["sets"])
    before = engine.search(query)
    doomed = min(before.ids, default=0)
    delete(engine, "sets", doomed)
    engine.compact("sets")
    after = engine.search(query)
    # Compaction shifts main positions: a stale searcher would emit wrong
    # ids, and a stale cache entry would replay the pre-delete answer.
    assert not after.cached
    assert doomed not in after.ids
    assert sorted(after.ids) == sorted(obj_id for obj_id in before.ids if obj_id != doomed)


def test_searcher_cache_is_a_bounded_lru(datasets, query_payloads):
    """A threshold sweep must not pin one built index per value forever."""
    from repro.engine.executor import MAX_SEARCHERS

    engine = SearchEngine(cache_size=0)
    engine.add_dataset("sets", datasets["sets"])
    payload = query_payloads["sets"][0]
    hot = Query(backend="sets", payload=payload, tau=0.5)
    taus = [0.3 + step / 100 for step in range(40)]
    for tau in taus:
        swept = engine.search(Query(backend="sets", payload=payload, tau=tau))
        oracle = engine.search(Query(backend="sets", payload=payload, tau=tau, algorithm="linear"))
        assert sorted(swept.ids) == sorted(oracle.ids)
        engine.search(hot)  # in use throughout, so never the least recently used
        assert len(engine._searchers) <= MAX_SEARCHERS
    assert len(engine._searchers) == MAX_SEARCHERS
    kept = {key[3][0] for key in engine._searchers}  # key[3] is (tau, is_int)
    assert 0.5 in kept and taus[0] not in kept
    # An evicted index is rebuilt on demand and answers as before.
    again = engine.search(Query(backend="sets", payload=payload, tau=taus[0]))
    oracle = engine.search(Query(backend="sets", payload=payload, tau=taus[0], algorithm="linear"))
    assert sorted(again.ids) == sorted(oracle.ids)
    engine.close()
