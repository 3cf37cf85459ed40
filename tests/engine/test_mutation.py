"""Online mutation: delta/tombstone overlays must be invisible to answers.

The contract under test: after *any* interleaving of upserts and deletes,
threshold and top-k answers are byte-identical (ids and scores) to an index
rebuilt from scratch over the surviving records -- per domain, unsharded and
2-shard, in-process and over HTTP through :class:`EngineClient`.
"""

from __future__ import annotations

import contextlib
import os
import random

import numpy as np
import pytest

from repro.datasets.molecules import aids_like
from repro.engine import Query, SearchEngine
from repro.engine.client import EngineClient, RequestError
from repro.engine.mutation import DeltaStore
from repro.engine.server import ServerThread
from repro.engine.sharding import ShardedEngine, build_shards, load_shards_manifest
from repro.graphs import GraphDataset
from repro.hamming import BinaryVectorDataset
from repro.sets import SetDataset
from repro.strings import StringDataset

from .conftest import delete, upsert

DOMAINS = ("hamming", "sets", "strings", "graphs")

#: Threshold / top-k parameters per domain (graphs kept small: exact GED).
PARAMS = {
    "hamming": dict(tau=16, k=5),
    "sets": dict(tau=0.6, k=4),
    "strings": dict(tau=2, k=4),
    "graphs": dict(tau=2, k=3),
}


# ---------------------------------------------------------------------------
# Record generation and reference rebuilds
# ---------------------------------------------------------------------------


def _record_pool(domain: str, rng: random.Random, datasets):
    """An endless stream of fresh records for one domain.

    Graph records are drawn from the same clustered family as the dataset:
    top-k escalation over graphs is exponential in the threshold, so the
    queries must keep near neighbours for the ladder to stop early -- the
    same property the serving workloads have.
    """
    if domain == "hamming":
        while True:
            yield np.array([rng.randint(0, 1) for _ in range(64)], dtype=np.uint8)
    elif domain == "sets":
        while True:
            yield [rng.randint(0, 80) for _ in range(rng.randint(2, 9))]
    elif domain == "strings":
        alphabet = "abcdefghij"
        while True:
            yield "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
    else:
        graphs = [graph.copy() for graph in datasets["graphs"].graphs]
        graphs += aids_like(num_graphs=12, num_queries=1, seed=909).graphs
        while True:
            yield graphs[rng.randrange(len(graphs))]


def _initial_records(domain: str, datasets) -> list:
    store = datasets[domain]
    if domain == "hamming":
        return [np.array(row, dtype=np.uint8) for row in store.vectors]
    if domain == "sets":
        return [list(record) for record in store.raw_records]
    if domain == "strings":
        return list(store.records)
    return list(store.graphs)


def _rebuild(domain: str, records: dict) -> tuple[SearchEngine, list[int]]:
    """A from-scratch engine over the surviving records, plus the id map.

    The rebuilt dataset is dense (ids ``0..m-1``); ``live`` maps its dense
    ids back to the mutated engine's sparse external ids.  The map is
    monotone, so ``(score, id)`` tie-breaking agrees between the two.
    """
    live = sorted(records)
    rows = [records[obj_id] for obj_id in live]
    if domain == "hamming":
        dataset = BinaryVectorDataset(np.asarray(rows, dtype=np.uint8), num_parts=4)
    elif domain == "sets":
        dataset = SetDataset(rows, num_classes=4)
    elif domain == "strings":
        dataset = StringDataset(rows, kappa=2)
    else:
        dataset = GraphDataset(rows)
    engine = SearchEngine(cache_size=0)
    engine.add_dataset(domain, dataset)
    return engine, live


def _apply_random_mutations(
    target, domain: str, records: dict, rng: random.Random, datasets, steps: int = 55
) -> dict:
    """Drive ``steps`` random upserts/deletes; returns the surviving records.

    ``target`` is anything with the uniform mutation surface -- a
    :class:`SearchEngine`, a :class:`ShardedEngine`, or an
    :class:`EngineClient` (whose methods take the backend name first too).
    """
    pool = _record_pool(domain, rng, datasets)
    next_id = max(records, default=-1) + 1
    for _ in range(steps):
        action = rng.random()
        if action < 0.5 or not records:
            record = next(pool)
            assigned = upsert(target, domain, record)
            assert assigned == next_id
            records[assigned] = record
            next_id += 1
        elif action < 0.75:
            obj_id = rng.choice(sorted(records))
            record = next(pool)
            assert upsert(target, domain, record, obj_id) == obj_id
            records[obj_id] = record
        else:
            obj_id = rng.choice(sorted(records))
            assert delete(target, domain, obj_id) is True
            del records[obj_id]
    return records


def _seed_topk_neighbours(target, domain: str, payloads, records: dict) -> dict:
    """Guarantee every graph query keeps ``k`` near neighbours.

    Exact GED escalation is exponential in the threshold: if the random
    mutations wipe out a query's cluster, top-k walks the ladder to the
    escalation cap and a unit test turns into minutes of branch-and-bound.
    Upserting ``k`` copies of each query pins the ladder to its first rung
    -- and exercises delta/main tie-breaking on equal scores as a bonus.
    In a sharded engine every shard walks its *own* ladder, so the copies
    are spread over the id space: ``k`` overwrites of low (first-shard) ids
    plus ``k`` appends (which route to the last shard).
    """
    if domain != "graphs":
        return records
    k = PARAMS["graphs"]["k"]
    for index, payload in enumerate(payloads):
        for low_id in range(index * k, index * k + k):
            assert upsert(target, domain, payload.copy(), low_id) == low_id
            records[low_id] = payload.copy()
        for _ in range(k):
            assigned = upsert(target, domain, payload.copy())
            records[assigned] = payload.copy()
    return records


def _assert_matches_rebuild(engine, client, domain, payloads, records) -> None:
    """Threshold + top-k answers equal a from-scratch rebuild, both surfaces."""
    reference, live = _rebuild(domain, records)
    tau, k = PARAMS[domain]["tau"], PARAMS[domain]["k"]
    taus = [tau, 2] if domain == "sets" else [tau]  # cover overlap taus too
    for payload in payloads:
        for threshold in taus:
            mutated = engine.search(Query(backend=domain, payload=payload, tau=threshold))
            expected = reference.search(Query(backend=domain, payload=payload, tau=threshold))
            expected_ids = sorted(live[dense] for dense in expected.ids)
            assert mutated.ids == expected_ids
            if client is not None:
                served = client.search(domain, payload, tau=threshold)
                assert served.ids == expected_ids
        mutated = engine.search(Query(backend=domain, payload=payload, k=k))
        expected = reference.search(Query(backend=domain, payload=payload, k=k))
        assert mutated.ids == [live[dense] for dense in expected.ids]
        assert mutated.scores == expected.scores
        if client is not None:
            served = client.search_topk(domain, payload, k=k)
            assert served.ids == mutated.ids
            assert served.scores == mutated.scores


# ---------------------------------------------------------------------------
# The equivalence matrix: 4 domains x {plain, 2-shard} x {in-process, HTTP}
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", ["plain", "sharded"])
@pytest.mark.parametrize("domain", DOMAINS)
def test_mutated_engine_matches_rebuild(domain, topology, datasets, query_payloads, tmp_path):
    """Either topology: mutations over HTTP, answers checked on both surfaces."""
    rng = random.Random(42)
    if topology == "plain":
        engine = SearchEngine(cache_size=64)
        engine.add_dataset(domain, datasets[domain])
    else:
        directory = str(tmp_path / f"{domain}-shards")
        build_shards(domain, datasets[domain], directory, 2)
        engine = ShardedEngine(directory, cache_size=16)
    records = dict(enumerate(_initial_records(domain, datasets)))
    with ServerThread(engine, own_engine=True) as handle, EngineClient(handle.url) as client:
        # Mutations travel over HTTP (POST /mutate) for real; a sharded
        # engine routes each one to the shard owning its id.
        records = _apply_random_mutations(client, domain, records, rng, datasets)
        records = _seed_topk_neighbours(client, domain, query_payloads[domain], records)
        _assert_matches_rebuild(engine, client, domain, query_payloads[domain], records)
        # Compaction must not change a single answer.
        summary = engine.compact(domain)
        assert summary["compacted"] is True
        assert summary["delta_records"] == 0 and summary["num_tombstones"] == 0
        _assert_matches_rebuild(engine, client, domain, query_payloads[domain], records)


# ---------------------------------------------------------------------------
# Persistence: delta + tombstones survive save/load and flush/reload
# ---------------------------------------------------------------------------


def test_plain_container_roundtrips_live_delta(engine, query_payloads, tmp_path):
    directory = str(tmp_path / "sets-idx")
    upsert(engine, "sets", [1, 2, 3, 4])
    delete(engine, "sets", 0)
    manifest = engine.save_index("sets", directory)
    assert manifest["format_version"] == 5
    assert manifest["mutations"]["delta_records"] == 1
    restored = SearchEngine(cache_size=0)
    restored.load_index(directory)
    assert restored.mutation_info("sets") == engine.mutation_info("sets")
    for payload in query_payloads["sets"]:
        query = Query(backend="sets", payload=payload, tau=0.5)
        assert restored.search(query).ids == engine.search(query).ids
    # Ids keep advancing from the persisted high-water mark.
    assert upsert(restored, "sets", [9, 9, 1]) == engine.delta("sets").next_id


def test_unmutated_container_writes_no_overlay(engine, tmp_path):
    directory = str(tmp_path / "idx")
    manifest = engine.save_index("strings", directory)
    assert manifest["format_version"] == 5 and manifest["wal_seq"] == 0
    assert "mutations" not in manifest
    assert not os.path.exists(os.path.join(directory, "mutations.json"))


def test_sharded_flush_reloads_mutations(datasets, query_payloads, tmp_path):
    directory = str(tmp_path / "strings-shards")
    build_shards("strings", datasets["strings"], directory, 2)
    rng = random.Random(7)
    records = dict(enumerate(_initial_records("strings", datasets)))
    with ShardedEngine(directory) as engine:
        records = _apply_random_mutations(engine, "strings", records, rng, datasets, steps=30)
        engine.flush()
        assert load_shards_manifest(directory)["format_version"] == 2
        next_id = engine.mutation_info()["next_id"]
    with ShardedEngine(directory) as restored:
        _assert_matches_rebuild(restored, None, "strings", query_payloads["strings"], records)
        assert upsert(restored, "strings", "freshly appended") == next_id


# ---------------------------------------------------------------------------
# DeltaStore unit behaviour and validation
# ---------------------------------------------------------------------------


def test_delta_store_upsert_delete_lifecycle():
    def one(delta, op):
        delta, [result] = delta.apply([op])
        return delta, result.get("deleted", result["id"])

    delta = DeltaStore.fresh(3)
    assert delta.is_identity and delta.num_live == 3
    delta, assigned = one(delta, {"op": "upsert", "record": "new", "id": None})
    assert assigned == 3 and delta.num_live == 4 and delta.mutated
    delta, assigned = one(delta, {"op": "upsert", "record": "overwrite", "id": 1})
    assert assigned == 1
    assert delta.dead[1] and delta.records[1] == "overwrite"
    assert delta.num_live == 4  # overwrite does not change the population
    delta, deleted = one(delta, {"op": "delete", "id": 3})
    assert deleted and delta.num_live == 3
    same, deleted = one(delta, {"op": "delete", "id": 3})
    assert not deleted and same is delta  # double delete: no-op, same overlay
    ids, rows = delta.live_records(["a", "b", "c"])
    assert ids == [0, 1, 2] and rows == ["a", "overwrite", "c"]


def test_upsert_rejects_invalid_records(engine):
    with pytest.raises(ValueError, match="dimension"):
        upsert(engine, "hamming", np.zeros(7, dtype=np.uint8))
    with pytest.raises(ValueError, match="token"):
        upsert(engine, "sets", 17)
    with pytest.raises(ValueError, match="at least one token"):
        upsert(engine, "sets", [])
    with pytest.raises(ValueError, match="string"):
        upsert(engine, "strings", 42)
    with pytest.raises(ValueError, match="Graph"):
        upsert(engine, "graphs", "not a graph")
    with pytest.raises(ValueError, match="non-negative"):
        upsert(engine, "strings", "fine", -3)


@pytest.mark.parametrize("topology", ["plain", "sharded", "served"])
def test_sets_tokens_outside_int64_are_refused(topology, datasets, query_payloads, tmp_path):
    """A sets token is an integer that fits in int64.  One that does not is
    refused when it arrives -- a ValueError in process, a 400 over HTTP --
    instead of being acknowledged and then failing every later query with
    an OverflowError (a 500 for every query)."""
    payload = query_payloads["sets"][0]
    with contextlib.ExitStack() as stack:
        if topology == "sharded":
            directory = str(tmp_path / "shards")
            build_shards("sets", datasets["sets"], directory, 2)
            engine = stack.enter_context(ShardedEngine(directory, replicas=1))
        else:
            engine = stack.enter_context(SearchEngine(cache_size=0))
            engine.add_dataset("sets", datasets["sets"])
        expected = engine.search(Query(backend="sets", payload=payload, tau=0.6)).ids
        target, refused = engine, ValueError
        bad_records = [[1, 2, 2**64], [1, -(2**63) - 1], [1, 2.5], [1, True], [1, "2"]]
        if topology == "served":
            handle = stack.enter_context(ServerThread(engine))
            target, refused = stack.enter_context(EngineClient(handle.url)), RequestError
            # The client encoder passes ints through as they are, but sends
            # 2.5, True and "2" as 2, 1 and 2.
            bad_records = bad_records[:2]

        def search(tokens):
            if topology == "served":
                return target.search("sets", tokens, tau=0.6).ids
            return engine.search(Query(backend="sets", payload=tokens, tau=0.6)).ids

        for record in bad_records:
            with pytest.raises(refused) as refusal:
                upsert(target, "sets", record)
            with pytest.raises(refused) as query_refusal:
                search(record)
            if topology == "served":
                assert refusal.value.status == query_refusal.value.status == 400
            assert search(payload) == expected
        assert engine.mutation_info("sets")["mutated"] is False
        assert search([2**63 - 1, -(2**63)]) == []


@pytest.mark.parametrize("topology", ["plain", "sharded"])
def test_a_strings_payload_that_is_not_a_string_is_refused(topology, tmp_path):
    """A strings query payload is a ``str``; anything else is refused with
    ValueError before it reaches the result cache, where ``b'abc'`` would
    otherwise share a key with the string "b'abc'" and serve it the answer."""
    dataset = StringDataset(["b'abc'", "abc"], kappa=2)
    with contextlib.ExitStack() as stack:
        if topology == "sharded":
            directory = str(tmp_path / "shards")
            build_shards("strings", dataset, directory, 2)
            engine = stack.enter_context(ShardedEngine(directory, cache_size=4))
        else:
            engine = stack.enter_context(SearchEngine(cache_size=4))
            engine.add_dataset("strings", dataset)
        for payload in (b"abc", 123, None, ["a"]):
            with pytest.raises(ValueError, match="a strings payload must be a string"):
                engine.search(Query(backend="strings", payload=payload, tau=0))
        answer = engine.search(Query(backend="strings", payload="b'abc'", tau=0))
        assert answer.ids == [0] and not answer.cached


def test_strings_delta_of_near_duplicates_matches_linear_rebuild(datasets, query_payloads):
    """~300 near-duplicates of the queries in the delta: the delta scan's
    length + q-gram count filter must keep every true match at tau 0-4."""
    rng = random.Random(29)
    alphabet = "abcdefghij"
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("strings", datasets["strings"])
    records = dict(enumerate(_initial_records("strings", datasets)))
    ops = []
    for index in range(300):
        text = list(query_payloads["strings"][index % len(query_payloads["strings"])])
        for _ in range(rng.randint(0, 4)):
            position = rng.randrange(len(text) + 1)
            kind = rng.choice("isd")
            if kind == "i":
                text.insert(position, rng.choice(alphabet))
            elif position < len(text) and len(text) > 1:
                if kind == "s":
                    text[position] = rng.choice(alphabet)
                else:
                    del text[position]
        ops.append({"op": "upsert", "record": "".join(text), "id": None})
    ops += [{"op": "upsert", "record": ops[0]["record"], "id": 3}, {"op": "delete", "id": 5}]
    for result, op in zip(engine.mutate("strings", ops)["results"], ops):
        if op["op"] == "upsert":
            records[result["id"]] = op["record"]
        else:
            del records[op["id"]]
    assert engine.mutation_info("strings")["delta_records"] == 301
    reference, live = _rebuild("strings", records)
    for payload in query_payloads["strings"]:
        for tau in range(5):
            got = engine.search(Query(backend="strings", payload=payload, tau=tau))
            expected = reference.search(
                Query(backend="strings", payload=payload, tau=tau, algorithm="linear")
            )
            assert got.ids == sorted(live[dense] for dense in expected.ids), tau


def test_delete_of_unknown_id_is_false(engine):
    assert delete(engine, "strings", 10**6) is False
    assert engine.mutation_info("strings")["mutated"] is False


def test_compact_refuses_to_empty_a_store():
    engine = SearchEngine()
    engine.add_dataset("strings", StringDataset(["solo"], kappa=2))
    delete(engine, "strings", 0)
    with pytest.raises(ValueError, match="zero live"):
        engine.compact("strings")
    # The tombstoned store still answers (with nothing) instead of crashing.
    assert engine.search(Query(backend="strings", payload="solo", tau=1)).ids == []


def test_compact_without_mutations_is_a_noop(engine):
    summary = engine.compact("hamming")
    assert summary["compacted"] is False

