"""Sharded serving: shard layout, exact merging, worker-process equality."""

from __future__ import annotations

import json
import os

import pytest

from repro.common.obs import MetricsRegistry
from repro.engine import Query, SearchEngine, build_shards, get_backend
from repro.engine.persistence import load_container
from repro.engine.sharding import (
    ShardedEngine,
    ShardWorkerError,
    load_shards_manifest,
    merge_threshold,
    merge_topk,
    shard_dirname,
    split_ranges,
)

ALL_DOMAINS = ["hamming", "sets", "strings", "graphs"]


# ---------------------------------------------------------------------------
# Shard layout
# ---------------------------------------------------------------------------


def test_split_ranges_covers_and_balances():
    assert split_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
    assert split_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert split_ranges(5, 1) == [(0, 5)]


def test_split_ranges_caps_shards_at_objects():
    # Every shard must hold at least one object.
    assert split_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_split_ranges_rejects_bad_arguments():
    with pytest.raises(ValueError, match="empty"):
        split_ranges(0, 2)
    with pytest.raises(ValueError, match="num_shards"):
        split_ranges(5, 0)


# ---------------------------------------------------------------------------
# Merging (pure functions)
# ---------------------------------------------------------------------------


def test_merge_threshold_unions_and_sorts():
    parts = [{"ids": [7, 2]}, {"ids": []}, {"ids": [11, 9]}]
    assert merge_threshold(parts) == [2, 7, 9, 11]


def test_merge_topk_orders_by_score_then_id():
    parts = [
        {"ids": [4, 0], "scores": [1.0, 3.0]},
        {"ids": [10, 12], "scores": [1.0, 1.0]},
    ]
    ids, scores = merge_topk(parts, 3)
    # Score ties (1.0) break by global id: 4 < 10 < 12.
    assert ids == [4, 10, 12]
    assert scores == [1.0, 1.0, 1.0]


def test_merge_topk_tie_break_matches_single_shard_order():
    # Identical scores everywhere: the merge must yield ascending global ids,
    # exactly what sorted(zip(scores, ids)) produces in the unsharded path.
    parts = [
        {"ids": [1, 5], "scores": [2.0, 2.0]},
        {"ids": [0, 3], "scores": [2.0, 2.0]},
    ]
    ids, scores = merge_topk(parts, 4)
    assert ids == [0, 1, 3, 5]
    assert scores == [2.0] * 4


def test_merge_topk_trims_to_k():
    parts = [{"ids": [0, 1, 2], "scores": [0.0, 1.0, 2.0]}]
    ids, scores = merge_topk(parts, 2)
    assert ids == [0, 1]
    assert scores == [0.0, 1.0]


# ---------------------------------------------------------------------------
# Build + persistence round trip
# ---------------------------------------------------------------------------


def test_build_shards_writes_manifest_and_containers(tmp_path, datasets):
    directory = str(tmp_path / "strings-shards")
    manifest = build_shards("strings", datasets["strings"], directory, 3)
    assert manifest["num_shards"] == 3
    assert manifest["num_objects"] == len(datasets["strings"])
    ranges = [(shard["lo"], shard["hi"]) for shard in manifest["shards"]]
    assert ranges == split_ranges(len(datasets["strings"]), 3)

    reloaded = load_shards_manifest(directory)
    assert reloaded == manifest

    # Every shard is a regular, independently loadable index container whose
    # store holds exactly its id range.
    for shard in manifest["shards"]:
        container = load_container(os.path.join(directory, shard["path"]))
        assert container.backend.name == "strings"
        assert len(container.store) == shard["hi"] - shard["lo"]
        assert container.store.records == (datasets["strings"].records[shard["lo"] : shard["hi"]])


def test_build_shards_persists_queries_and_default_tau(tmp_path, datasets):
    directory = str(tmp_path / "sets-shards")
    manifest = build_shards("sets", datasets["sets"], directory, 2, queries=[[1, 2, 3], [4, 5]])
    assert manifest["num_queries"] == 2
    # The sets default tau is a Jaccard float; JSON must keep it a float
    # (an int would silently switch the predicate to overlap counting).
    assert isinstance(load_shards_manifest(directory)["default_tau"], float)
    assert get_backend("sets").load_queries(directory) == [[1, 2, 3], [4, 5]]
    with ShardedEngine(directory) as engine:
        described = engine.describe()
        assert described["backends"]["sets"]["default_tau"] == manifest["default_tau"]
        assert described["shards"] == manifest


def test_loading_a_non_sharded_directory_fails(tmp_path):
    with pytest.raises(FileNotFoundError, match="shards.json"):
        ShardedEngine(str(tmp_path))


def test_unsupported_shards_format_rejected(tmp_path, datasets):
    directory = str(tmp_path / "g")
    build_shards("graphs", datasets["graphs"], directory, 2)
    path = os.path.join(directory, "shards.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["format_version"] = 99
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(ValueError, match="unsupported shards format"):
        ShardedEngine(directory)


def test_shard_dirnames_are_stable():
    assert shard_dirname(0) == "shard-0000"
    assert shard_dirname(12) == "shard-0012"


# ---------------------------------------------------------------------------
# Sharded serving equals unsharded serving (worker processes, all four domains)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_engines(tmp_path_factory, datasets):
    """One 3-shard engine per domain, shared by the equality tests."""
    root = tmp_path_factory.mktemp("sharded")
    engines = {}
    for name in ALL_DOMAINS:
        directory = str(root / name)
        build_shards(name, datasets[name], directory, 3)
        engines[name] = ShardedEngine(directory)
    yield engines
    for engine in engines.values():
        engine.close()


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_sharded_threshold_equals_unsharded(name, engine, sharded_engines, query_payloads, taus):
    for payload in query_payloads[name]:
        query = Query(backend=name, payload=payload, tau=taus[name])
        unsharded = engine.search(query)
        sharded = sharded_engines[name].search(query)
        assert sharded.ids == sorted(int(obj_id) for obj_id in unsharded.ids)
        assert sharded.scores is None


@pytest.mark.parametrize("name", ["hamming", "sets", "strings"])
def test_sharded_topk_equals_unsharded(name, engine, sharded_engines, query_payloads):
    for payload in query_payloads[name]:
        query = Query(backend=name, payload=payload, k=5)
        unsharded = engine.search(query)
        sharded = sharded_engines[name].search(query)
        assert sharded.ids == [int(obj_id) for obj_id in unsharded.ids]
        assert sharded.scores == pytest.approx(unsharded.scores)


def test_sharded_topk_equals_unsharded_graphs(tmp_path):
    # Every shard escalates its GED ladder until it holds k results, so
    # distant shards of the aids-like fixture would pay exponential
    # verification at high thresholds.  A dataset of small mutually close
    # graphs keeps every shard's ladder shallow while still exercising the
    # cross-shard merge, score ties and id tie-breaks.
    from repro.graphs import Graph, GraphDataset

    labels = ["C", "N", "O", "S"]
    graphs = []
    for index in range(12):
        graph = Graph()
        for vertex in range(4):
            graph.add_vertex(vertex, labels[(index + vertex) % len(labels)])
        for vertex in range(3):
            graph.add_edge(vertex, vertex + 1, "b" if index % 3 else "a")
        graphs.append(graph)
    dataset = GraphDataset(graphs)

    unsharded = SearchEngine(cache_size=0)
    unsharded.add_dataset("graphs", dataset)
    directory = str(tmp_path / "tiny-graphs")
    build_shards("graphs", dataset, directory, 3)
    with ShardedEngine(directory) as sharded_engine:
        for payload in graphs[:3]:
            query = Query(backend="graphs", payload=payload, k=4)
            reference = unsharded.search(query)
            sharded = sharded_engine.search(query)
            assert sharded.ids == [int(obj_id) for obj_id in reference.ids]
            assert sharded.scores == pytest.approx(reference.scores)


def test_search_batch_preserves_order_and_results(engine, sharded_engines, query_payloads, taus):
    queries = [
        Query(backend="sets", payload=payload, tau=taus["sets"])
        for payload in query_payloads["sets"]
    ] * 3
    batch = sharded_engines["sets"].search_batch(queries, chunk_size=2)
    assert len(batch) == len(queries)
    for query, response in zip(queries, batch):
        assert response.query is query
        expected = sorted(int(obj_id) for obj_id in engine.search(query).ids)
        assert response.ids == expected


def test_sharded_stats_observe_shards_and_merge(sharded_engines, query_payloads, taus):
    engine = sharded_engines["hamming"]
    engine.reset_stats()
    queries = [
        Query(backend="hamming", payload=payload, tau=taus["hamming"])
        for payload in query_payloads["hamming"]
    ]
    engine.search_batch(queries)
    snapshot = engine.stats.snapshot()
    assert snapshot["num_queries"] == len(queries)
    assert len(snapshot["per_shard"]) == 3
    assert all(shard["num_queries"] == len(queries) for shard in snapshot["per_shard"])
    assert snapshot["merge_time_s"] >= 0.0
    # The workers' own registries cross the process boundary merged.
    merged = MetricsRegistry.merged([engine.metrics_wire()])
    assert merged.get("engine_queries_total").value >= 3 * len(queries)


def test_mismatched_backend_query_rejected(sharded_engines):
    query = Query(backend="strings", payload="abc", tau=1)
    with pytest.raises(ValueError, match="serves backend"):
        sharded_engines["hamming"].search(query)


def test_closed_engine_refuses_queries(tmp_path, datasets):
    directory = str(tmp_path / "s")
    build_shards("strings", datasets["strings"], directory, 2)
    engine = ShardedEngine(directory)
    engine.close()
    with pytest.raises(RuntimeError, match="closed"):
        engine.search(Query(backend="strings", payload="abc", tau=1))


# ---------------------------------------------------------------------------
# Failure paths: dead workers surface structured errors; close is idempotent
# ---------------------------------------------------------------------------


def _kill_shard_worker(engine: ShardedEngine, shard_id: int) -> None:
    import os
    import signal

    os.kill(engine.replica_status()[shard_id]["replicas"][0]["pid"], signal.SIGKILL)


def test_killed_worker_surfaces_shard_worker_error(tmp_path, datasets, taus):
    directory = str(tmp_path / "kill")
    build_shards("strings", datasets["strings"], directory, 2)
    with ShardedEngine(directory) as engine:
        query = Query(backend="strings", payload=datasets["strings"].record(0), tau=taus["strings"])
        engine.search(query)  # healthy first
        _kill_shard_worker(engine, 1)
        with pytest.raises(ShardWorkerError, match="shard 1") as info:
            engine.search(query)
        assert info.value.shard_id == 1


def test_killed_worker_mid_batch_fails_structured(tmp_path, datasets, taus):
    directory = str(tmp_path / "kill-batch")
    build_shards("strings", datasets["strings"], directory, 2)
    with ShardedEngine(directory) as engine:
        queries = [
            Query(backend="strings", payload=datasets["strings"].record(i), tau=taus["strings"])
            for i in range(4)
        ]
        assert len(engine.search_batch(queries)) == 4
        _kill_shard_worker(engine, 0)
        with pytest.raises(ShardWorkerError, match="shard 0"):
            engine.search_batch(queries, chunk_size=1)
        # Every call routed to the broken shard names it the same way.
        with pytest.raises(ShardWorkerError, match="shard 0"):
            engine.mutation_info()


def test_close_is_idempotent_and_double_exit_safe(tmp_path, datasets):
    directory = str(tmp_path / "close")
    build_shards("strings", datasets["strings"], directory, 2)
    engine = ShardedEngine(directory)
    engine.close()
    engine.close()  # second close is a no-op, not an error
    engine.__exit__(None, None, None)
    engine.__exit__(None, None, None)

    with ShardedEngine(directory) as reopened:
        reopened.close()
    # __exit__ after an explicit close inside the block already ran: fine.
    reopened.close()


def test_close_after_worker_death_is_clean(tmp_path, datasets):
    directory = str(tmp_path / "close-dead")
    build_shards("strings", datasets["strings"], directory, 2)
    engine = ShardedEngine(directory)
    _kill_shard_worker(engine, 0)
    engine.close()
    engine.close()
