"""The :class:`repro.engine.api.Engine` contract, held to both topologies.

One suite, parametrized over {a ``SearchEngine`` opened from a container,
a ``ShardedEngine`` over 2 shards of the same data}, in process and through
``ServerThread`` + ``EngineClient``: same methods, same signatures, same
return keys (the sharded engine may add ``shards`` / ``per_shard``), so
nothing above an engine has to ask which one it holds.
"""

from __future__ import annotations

import contextlib
import inspect
import shutil
import time

import pytest

from repro.datasets.tokens import zipfian_set_workload
from repro.engine import (
    Engine,
    EngineClient,
    Query,
    RequestError,
    SearchEngine,
    ServerThread,
    ShardedEngine,
    build_shards,
    get_backend,
    open_engine,
    register_backend,
)
from repro.engine.mutation import MAX_ID
from repro.sets import SetDataset
from repro.strings import StringDataset

from .conftest import upsert

TOPOLOGIES = ("plain", "sharded")
#: Where a write can enter: either engine in process, or over HTTP.
WRITERS = ("plain", "sharded", "served")
#: Keys only the sharded engine's answers carry.
SHARDED_EXTRAS = {"shards", "per_shard"}


@pytest.fixture(scope="module")
def built(tmp_path_factory, datasets, query_payloads):
    """The sets dataset as a plain container and as 2 shards, built once."""
    root = tmp_path_factory.mktemp("contract")
    directories = {name: str(root / name) for name in TOPOLOGIES}
    engine = SearchEngine()
    engine.add_dataset("sets", datasets["sets"])
    engine.save_index("sets", directories["plain"], queries=query_payloads["sets"])
    build_shards(
        "sets", datasets["sets"], directories["sharded"], 2, queries=query_payloads["sets"]
    )
    return directories


@pytest.fixture()
def fresh(built, tmp_path):
    """A private, mutable copy of each built index: ``fresh(topology)``."""

    def copy(topology: str) -> str:
        target = str(tmp_path / topology)
        shutil.copytree(built[topology], target)
        return target

    return copy


@pytest.fixture()
def opened(fresh):
    """Both topologies opened through :func:`open_engine`, closed afterwards."""
    engines = {topology: open_engine(fresh(topology)) for topology in TOPOLOGIES}
    yield engines
    for engine in engines.values():
        engine.close()


def _assert_same_keys(answers: dict[str, dict]) -> None:
    plain, sharded = set(answers["plain"]), set(answers["sharded"])
    assert plain == sharded - SHARDED_EXTRAS, (plain, sharded)


# ---------------------------------------------------------------------------
# Same methods, same signatures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [SearchEngine, ShardedEngine])
def test_engine_classes_bind_the_protocol_signatures(cls):
    declared = {
        name: member
        for name, member in vars(Engine).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }
    assert {"search", "mutate", "compact", "flush", "describe", "close"} <= set(declared)
    assert isinstance(vars(cls)["stats"], property)
    for name, member in declared.items():
        parameters = list(inspect.signature(member).parameters.values())[1:]
        signature = inspect.signature(getattr(cls, name))
        # Called with everything the protocol names, by name ...
        signature.bind(None, **{p.name: None for p in parameters})
        # ... and with only what the protocol requires (an engine may take
        # extra keywords, but never demand them).
        signature.bind(None, **{p.name: None for p in parameters if p.default is p.empty})


def test_open_engine_picks_the_topology(opened):
    assert type(opened["plain"]) is SearchEngine
    assert type(opened["sharded"]) is ShardedEngine


# ---------------------------------------------------------------------------
# Same return keys, in process and over HTTP
# ---------------------------------------------------------------------------


def test_answers_have_the_same_keys_in_process(opened):
    # With nothing to fold, the no-op summary already has every key.
    noop = {t: engine.compact() for t, engine in opened.items()}
    assert not any(summary["compacted"] for summary in noop.values())
    _assert_same_keys(noop)
    for engine in opened.values():
        engine.mutate("sets", [{"op": "upsert", "record": [901, 902]}, {"op": "delete", "id": 3}])
    for method in ("describe", "mutation_info", "durability_info"):
        _assert_same_keys({t: getattr(engine, method)() for t, engine in opened.items()})
    folded = {t: engine.compact() for t, engine in opened.items()}
    for summary in folded.values():
        assert summary["compacted"] is True and summary["folded_records"] == 1
    _assert_same_keys(folded)
    assert set(folded["plain"]) == set(noop["plain"])
    for engine in opened.values():
        described = engine.describe()["backends"]["sets"]
        assert set(described) == {"descriptor", "default_tau"}
        assert described["descriptor"]["num_objects"] == 150
        assert engine.shard_health() is not None and engine.profile_wire() == []


def test_endpoints_have_the_same_keys_over_http(opened, query_payloads):
    bodies: dict[str, dict[str, dict]] = {}
    for topology, engine in opened.items():
        with ServerThread(engine) as handle, EngineClient(handle.url) as client:
            tau = client.manifest()["backends"]["sets"]["default_tau"]
            assert client.search("sets", query_payloads["sets"][0], tau=tau).ids is not None
            upsert(client, "sets", [901, 902, 903])
            bodies[topology] = {
                "manifest": client.manifest(),
                "compact": client.compact(),
                "stats": client.stats(),
                "healthz": client.healthz(),
            }
    for endpoint in ("manifest", "compact", "stats", "healthz"):
        _assert_same_keys({t: body[endpoint] for t, body in bodies.items()})
    assert all(body["compact"]["compacted"] is True for body in bodies.values())
    _assert_same_keys({t: body["stats"]["durability"]["sets"] for t, body in bodies.items()})
    assert bodies["plain"]["stats"]["replicas"] == []
    assert len(bodies["sharded"]["stats"]["replicas"]) == 2


# ---------------------------------------------------------------------------
# backend=None is "the one attached backend"
# ---------------------------------------------------------------------------


def test_backend_none_resolves_to_the_one_backend(opened):
    for engine in opened.values():
        assert engine.mutation_info() == engine.mutation_info("sets")
        assert engine.durability_info()["backend"] == "sets"
        assert engine.wait_for_compaction(timeout=1.0) is True
        assert engine.compact()["backend"] == "sets"
    with pytest.raises(ValueError, match="serves backend 'sets'"):
        opened["sharded"].mutation_info("strings")


def test_backend_none_is_an_error_without_exactly_one(engine):
    # conftest's engine serves all four domains.
    for call in (engine.compact, engine.mutation_info, engine.durability_info):
        with pytest.raises(ValueError, match="4 backends .graphs, hamming, sets, strings."):
            call()
    with pytest.raises(ValueError, match="0 backends .none."):
        SearchEngine().mutation_info()
    with ServerThread(engine) as handle, EngineClient(handle.url) as client:
        with pytest.raises(RequestError, match="pass 'backend'"):
            client.compact()
        assert client.compact("sets")["compacted"] is False
        # /stats reports durability per backend, so it needs no default.
        assert set(client.stats()["durability"]) == {"graphs", "hamming", "sets", "strings"}


# ---------------------------------------------------------------------------
# open -> mutate -> flush -> reopen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_open_mutate_flush_reopen_round_trips(topology, fresh, query_payloads):
    directory = fresh(topology)
    engine = open_engine(directory)
    try:
        outcome = engine.mutate(
            "sets", [{"op": "upsert", "record": [901, 902, 903]}, {"op": "delete", "id": 0}]
        )
        upserted = outcome["results"][0]["id"]
        assert upserted == 150 and outcome["results"][1]["deleted"] is True
        engine.flush()
        info = engine.mutation_info()
    finally:
        engine.close()
    reopened = open_engine(directory)
    try:
        assert reopened.mutation_info() == info
        assert info["delta_records"] == 1 and info["num_tombstones"] == 1
        hit = reopened.search(Query(backend="sets", payload=[901, 902, 903], tau=1.0))
        assert hit.ids == [upserted]
        assert reopened.mutate("sets", [{"op": "upsert", "record": [7]}])["results"][0]["id"] == 151
    finally:
        reopened.close()
    # The stored query workload rides through a flush untouched.
    assert get_backend("sets").load_queries(directory) == query_payloads["sets"]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_a_one_op_batch_reports_the_assigned_id_and_the_deleted_flag(topology, opened):
    """``mutate`` is the only write call: what a caller unwraps from one op."""
    engine = opened[topology]
    appended = engine.mutate("sets", [{"op": "upsert", "record": [901, 902]}])["results"]
    assert appended == [{"op": "upsert", "id": 150}] and type(appended[0]["id"]) is int
    overwritten = engine.mutate("sets", [{"op": "upsert", "record": [903], "id": 7}])["results"]
    assert overwritten == [{"op": "upsert", "id": 7}] and type(overwritten[0]["id"]) is int
    for expected in (True, False):  # the second delete finds nothing live
        deleted = engine.mutate("sets", [{"op": "delete", "id": 150}])["results"]
        assert deleted == [{"op": "delete", "id": 150, "deleted": expected}]
        assert deleted[0]["deleted"] is expected


# ---------------------------------------------------------------------------
# One op validator: ids are never coerced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["upsert", "delete"])
@pytest.mark.parametrize("bad_id", [2.9, True, "7", -1], ids=repr)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_mutate_rejects_ids_that_are_not_non_negative_ints(topology, bad_id, kind, fresh):
    engine = open_engine(fresh(topology))
    try:
        before = engine.mutation_info()
        op = {"op": kind, "id": bad_id}
        if kind == "upsert":
            op["record"] = [1, 2, 3]
        with pytest.raises(ValueError, match="object ids are non-negative"):
            engine.mutate("sets", [{"op": "upsert", "record": [4, 5]}, op])
        assert engine.mutation_info() == before
    finally:
        engine.close()


@contextlib.contextmanager
def _writer(topology: str, directory: str, **options):
    """``(engine, target, refused)``: the engine opened over ``directory``
    (``options`` go to :func:`open_engine`), what to send writes to, and
    the error a refused write raises there.  ``served`` is the sharded
    engine behind ``ServerThread`` + ``EngineClient``."""
    with contextlib.ExitStack() as stack:
        engine = open_engine(directory, **options)
        stack.callback(engine.close)
        if topology != "served":
            yield engine, engine, ValueError
            return
        handle = stack.enter_context(ServerThread(engine))
        yield engine, stack.enter_context(EngineClient(handle.url)), RequestError


def _build(topology: str, backend: str, dataset, directory: str) -> str:
    if topology == "plain":
        with SearchEngine() as builder:
            builder.add_dataset(backend, dataset)
            builder.save_index(backend, directory)
    else:
        build_shards(backend, dataset, directory, 2)
    return directory


@pytest.mark.parametrize("topology", WRITERS)
def test_a_refused_upsert_spends_no_id(topology, tmp_path):
    """A batch whose record the store refuses assigns nothing: the next
    append still gets the next id, in every topology (over HTTP ``42`` is
    refused at decode and ``""`` by the store)."""
    dataset = StringDataset(["ant", "bee", "cat", "dog"], kappa=2)
    directory = _build(topology, "strings", dataset, str(tmp_path / topology))
    with _writer(topology, directory) as (engine, target, refused):
        for record in (42, ""):
            with pytest.raises(refused, match="string"):
                upsert(target, "strings", record)
        assert engine.mutation_info()["next_id"] == 4
        assert upsert(target, "strings", "eel") == 4


@pytest.mark.parametrize("topology", WRITERS)
def test_ids_are_int64_and_refused_past_it(topology, fresh, query_payloads):
    """An explicit id past ``2**63 - 1`` and an append once the id space is
    spent are refused before any state or WAL change (400 over HTTP); the
    largest id itself is served and compacted."""
    with _writer(topology, fresh("plain" if topology == "plain" else "sharded")) as opened:
        engine, target, refused = opened
        before = engine.mutation_info()
        too_big = [
            [{"op": "upsert", "record": [1, 2], "id": MAX_ID + 1}],
            [{"op": "delete", "id": 2**70}],
        ]
        for ops in too_big:
            with pytest.raises(refused, match="int64") as refusal:
                _raw_mutate(target, ops)
            if topology == "served":
                assert refusal.value.status == 400
        assert engine.mutation_info() == before
        assert upsert(target, "sets", [901, 902], MAX_ID) == MAX_ID
        spent = engine.mutation_info()
        assert spent["next_id"] == MAX_ID + 1
        with pytest.raises(refused, match="no fresh object id") as refusal:
            _raw_mutate(target, [{"op": "upsert", "record": [7]}, {"op": "delete", "id": 0}])
        if topology == "served":
            assert refusal.value.status == 400
        assert engine.mutation_info() == spent
        hit = engine.search(Query(backend="sets", payload=[901, 902], tau=1.0)).ids
        assert hit == [MAX_ID]
        assert engine.compact()["compacted"] is True
        assert engine.search(Query(backend="sets", payload=[901, 902], tau=1.0)).ids == hit


def _raw_mutate(target, ops: list[dict]) -> dict:
    """``ops`` as sent, past the client's own encoder checks when served."""
    if isinstance(target, EngineClient):
        return target._request("POST", "/mutate", {"backend": "sets", "ops": ops})
    return target.mutate("sets", ops)


def _index_of(topology: str) -> str:
    """The built layout a writer topology opens (served is sharded)."""
    return "plain" if topology == "plain" else "sharded"


def _wal_last_seqs(engine) -> list[int]:
    """The last appended seq of every WAL the engine owns (one per shard)."""
    info = engine.durability_info()
    return [entry["wal"]["last_seq"] for entry in info.get("per_shard", [info])]


# ---------------------------------------------------------------------------
# One durability rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", WRITERS)
def test_one_durability_refusal_on_every_topology(topology, fresh, tmp_path):
    """An unknown level, and ``"wal"`` without a log, are refused with one
    message each, before anything is applied or logged (400 over HTTP)."""
    ops = [{"op": "upsert", "record": [901, 902]}, {"op": "delete", "id": 3}]
    unknown = r"unknown durability 'fsync' \(accepted: memory, wal\)$"
    refusals = [
        ({"wal_dir": str(tmp_path / "wal")}, "fsync", unknown),
        ({}, "wal", "durability 'wal' requires a WAL attached to backend 'sets'$"),
    ]
    directory = fresh(_index_of(topology))
    for options, level, message in refusals:
        with _writer(topology, directory, **options) as opened:
            engine, target, refused = opened

            def state():
                return engine.mutation_info(), options and _wal_last_seqs(engine)

            before = state()
            with pytest.raises(refused, match=message) as refusal:
                target.mutate("sets", ops, level)
            if topology == "served":
                assert refusal.value.status == 400
            assert state() == before


# ---------------------------------------------------------------------------
# One background-compaction trigger
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", WRITERS)
def test_wait_for_compaction_means_the_same_on_every_topology(topology, fresh, tmp_path):
    """A batch past the policy's floor is folded by the time
    ``wait_for_compaction()`` returns; closing mid-compaction is clean."""
    directory, wal_dir = fresh(_index_of(topology)), str(tmp_path / "wal")
    appends = [{"op": "upsert", "record": [1000 + i, 2000 + i]} for i in range(300)]
    with _writer(topology, directory, wal_dir=wal_dir, auto_compact=True) as opened:
        engine, target, _refused = opened
        target.mutate("sets", appends)
        assert engine.wait_for_compaction(timeout=60.0) is True
        info = engine.durability_info()
        assert info["auto_compaction"]["compactions"] == 1
        assert info["auto_compaction"]["last_error"] is None
        assert info["delta"]["delta_records"] == 0
        # A second fold is in flight when the engine closes.
        target.mutate("sets", appends)
    with open_engine(directory, wal_dir=wal_dir) as reopened:
        assert reopened.mutation_info()["num_live"] == 150 + 600


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """2 400 sets records as a plain container and as 2 shards: a linear
    read generates at least 1 000 candidates on every shard."""
    workload = zipfian_set_workload(2400, 5, seed=16)
    root = tmp_path_factory.mktemp("wide")
    directories = {name: str(root / name) for name in TOPOLOGIES}
    _build("plain", "sets", SetDataset(workload.records), directories["plain"])
    _build("sharded", "sets", SetDataset(workload.records), directories["sharded"])
    return directories, list(workload.queries)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_the_compaction_policy_honours_the_cost_crossover(topology, wide, tmp_path):
    """300 delta records cost less than half of a 1 000-candidate funnel,
    so after linear reads neither topology folds them."""
    directories, payloads = wide
    directory = str(tmp_path / topology)
    shutil.copytree(directories[topology], directory)
    engine = open_engine(directory, wal_dir=str(tmp_path / "wal"), auto_compact=True)
    with engine:
        for payload in payloads:
            query = Query(backend="sets", payload=payload, tau=0.5, algorithm="linear")
            assert engine.search(query).num_candidates >= 2 * 1000  # 1 000 per shard
        appends = [{"op": "upsert", "record": [1000 + i, 2000 + i]} for i in range(300)]
        engine.mutate("sets", appends)
        assert engine.wait_for_compaction(timeout=60.0) is True
        if topology == "sharded":
            # A fold decided off the write path, by a periodic sweep, would
            # land within this window.
            time.sleep(2.5)
        info = engine.durability_info()
        assert info["auto_compaction"]["compactions"] == 0
        assert info["delta"]["delta_records"] == 300


# ---------------------------------------------------------------------------
# Threshold ids: ascending and equal in both engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", get_backend("sets").algorithms)
def test_threshold_ids_are_ascending_and_equal_in_both_engines(algorithm, opened, query_payloads):
    payloads = query_payloads["sets"]
    ops = [
        {"op": "upsert", "record": list(payloads[0])},
        {"op": "upsert", "record": list(payloads[1]), "id": 3},
        *({"op": "delete", "id": obj_id} for obj_id in (0, 5, 77, 140)),
    ]
    for mutated in (False, True):
        if mutated:
            for engine in opened.values():
                engine.mutate("sets", ops)
        for payload in payloads:
            query = Query(backend="sets", payload=payload, tau=0.5, algorithm=algorithm)
            plain, sharded = (opened[t].search(query).ids for t in TOPOLOGIES)
            assert plain == sharded == sorted(plain), (algorithm, mutated)


# ---------------------------------------------------------------------------
# A failed background compaction is visible on /stats
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_failed_background_compaction_shows_on_stats(topology, fresh, tmp_path):
    original = get_backend("sets")

    class FullDisk(type(original)):
        def apply_mutations(self, store, delta):
            raise OSError("no space left on device")

    # Registered before the engine opens, so forked shard workers inherit it.
    register_backend(FullDisk(), replace=True)
    try:
        engine = open_engine(fresh(topology), wal_dir=str(tmp_path / "wal"), auto_compact=True)
        with ServerThread(engine, own_engine=True) as handle, EngineClient(handle.url) as client:
            # One batch past the policy's 256-record floor (on a sharded
            # index the fresh ids all land on the last shard).
            ops = [{"op": "upsert", "record": [1000 + i, 2000 + i]} for i in range(256)]
            client.mutate("sets", ops)
            deadline = time.monotonic() + 30.0
            auto: dict = {}
            while time.monotonic() < deadline:
                auto = client.stats()["durability"]["sets"]["auto_compaction"]
                if auto["last_error"]:
                    break
                time.sleep(0.1)
            assert auto["enabled"] is True
            assert "no space left on device" in auto["last_error"]
            assert auto["compactions"] == 0
            # The failure cost nothing that was acknowledged.
            assert client.search("sets", [1000, 2000], tau=1.0).ids == [150]
    finally:
        register_backend(original, replace=True)



# ---------------------------------------------------------------------------
# A record the store cannot hold is refused before it is acknowledged
# ---------------------------------------------------------------------------

UNHASHABLE_LABEL_GRAPHS = [
    {"vertices": [[1, "C"], [2, ["N"]]], "edges": [[1, 2, "x"]]},
    {"vertices": [[1, "C"], [2, {"element": "N"}]], "edges": [[1, 2, "x"]]},
    {"vertices": [[1, "C"], [2, "N"]], "edges": [[1, 2, ["x"]]]},
    {"vertices": [[1, "C"], [2, "N"]], "edges": [[1, 2, {"order": 2}]]},
]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_unhashable_graph_labels_are_refused_as_record_and_as_query(
    topology, datasets, query_payloads, tmp_path
):
    backend = get_backend("graphs")
    for wire in UNHASHABLE_LABEL_GRAPHS:
        with pytest.raises(ValueError, match="hashable"):
            backend.record_from_wire(wire)
        with pytest.raises(ValueError, match="hashable"):
            backend.payload_from_wire(wire)
    directory = str(tmp_path / topology)
    if topology == "plain":
        with SearchEngine() as builder:
            builder.add_dataset("graphs", datasets["graphs"])
            builder.save_index("graphs", directory)
    else:
        build_shards("graphs", datasets["graphs"], directory, 2)
    engine = open_engine(directory)
    with ServerThread(engine, own_engine=True) as handle, EngineClient(handle.url) as client:
        payload = query_payloads["graphs"][0]
        before = client.search("graphs", payload, tau=3).ids
        info = engine.mutation_info()
        for wire in UNHASHABLE_LABEL_GRAPHS:
            ops = [{"op": "upsert", "id": 99, "record": wire}]
            with pytest.raises(RequestError, match="hashable") as refused:
                client._request("POST", "/mutate", {"backend": "graphs", "ops": ops})
            assert refused.value.status == 400
            with pytest.raises(RequestError, match="hashable") as refused:
                client.search_wire({"backend": "graphs", "payload": wire, "tau": 3})
            assert refused.value.status == 400
        # Nothing was logged or applied, and the backend keeps answering.
        assert engine.mutation_info() == info
        assert client.search("graphs", payload, tau=3).ids == before
