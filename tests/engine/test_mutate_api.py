"""The batched mutation API: engine surface, wire schema v2, atomic saves.

`SearchEngine.mutate` applies a whole batch under one writer-lock pass and
acknowledges it with one WAL append; `upsert`/`delete` are one-op shims over
it, on the engine, the sharded engine, the HTTP server and the client alike.
The wire schema bumped to v2 for ``POST /mutate`` and the ``durability``
field; v1 bodies must keep decoding unchanged.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import Query, SearchEngine
from repro.engine.client import EngineClient, RequestError
from repro.engine.persistence import atomic_write_json
from repro.engine.server import ServerConfig, ServerThread
from repro.engine.wire import (
    SUPPORTED_WIRE_SCHEMA_VERSIONS,
    WIRE_SCHEMA_VERSION,
    WireFormatError,
    decode_mutate,
    decode_query,
    encode_mutate,
)

from .conftest import delete, upsert

# ---------------------------------------------------------------------------
# Engine surface
# ---------------------------------------------------------------------------


def test_mutate_applies_a_batch_in_order(engine):
    outcome = engine.mutate(
        "sets",
        [
            {"op": "upsert", "record": [1, 2, 3]},
            {"op": "upsert", "record": [4, 5], "id": 0},
            {"op": "delete", "id": 1},
            {"op": "delete", "id": 10**6},
        ],
    )
    next_id = engine.delta("sets").next_id
    assert outcome["backend"] == "sets"
    assert outcome["results"] == [
        {"op": "upsert", "id": next_id - 1},
        {"op": "upsert", "id": 0},
        {"op": "delete", "id": 1, "deleted": True},
        {"op": "delete", "id": 10**6, "deleted": False},
    ]
    # No WAL attached: the batch is acknowledged at memory durability and
    # carries no log sequence number.
    assert outcome["durability"] == "memory"
    assert outcome["wal_seq"] is None
    info = engine.mutation_info("sets")
    assert info["delta_records"] == 2 and info["num_tombstones"] == 2


def test_mutate_validates_the_whole_batch_before_applying(engine):
    before = engine.mutation_info("sets")
    with pytest.raises(ValueError, match="empty"):
        engine.mutate("sets", [])
    with pytest.raises(ValueError, match="unknown mutation op"):
        engine.mutate("sets", [{"op": "replace", "record": [1]}])
    with pytest.raises(ValueError, match="delete ops require an id"):
        engine.mutate("sets", [{"op": "delete"}])
    with pytest.raises(ValueError, match="token"):
        # First op is fine, second is malformed: nothing may apply.
        engine.mutate("sets", [{"op": "upsert", "record": [1, 2]}, {"op": "upsert", "record": 9}])
    assert engine.mutation_info("sets") == before


def test_mutate_durability_levels(engine, tmp_path):
    with pytest.raises(ValueError, match="unknown durability"):
        engine.mutate("sets", [{"op": "delete", "id": 0}], durability="fsync")
    with pytest.raises(ValueError, match="requires a WAL"):
        engine.mutate("sets", [{"op": "delete", "id": 0}], durability="wal")
    engine.attach_wal("sets", str(tmp_path / "sets.wal"))
    relaxed = engine.mutate("sets", [{"op": "delete", "id": 0}], durability="memory")
    assert relaxed["durability"] == "memory" and relaxed["wal_seq"] == 1
    # With a WAL attached the default hardens to fsync-before-ack.
    strict = engine.mutate("sets", [{"op": "upsert", "record": [7, 8]}])
    assert strict["durability"] == "wal" and strict["wal_seq"] == 2
    info = engine.durability_info("sets")
    assert info["default_durability"] == "wal"
    assert info["wal"]["attached"] and info["wal"]["last_seq"] == 2


def test_upsert_and_delete_are_one_op_batches(engine):
    assigned = upsert(engine, "strings", "shimmed")
    assert delete(engine, "strings", assigned) is True
    counter = engine.stats.registry.get("engine_mutation_batches_total", backend="strings")
    assert counter is not None and counter.value >= 2


# ---------------------------------------------------------------------------
# Wire schema v2 + v1 back-compat
# ---------------------------------------------------------------------------


def test_mutate_wire_roundtrip():
    body = encode_mutate(
        "sets",
        [{"op": "upsert", "record": [3, 1, 2]}, {"op": "delete", "id": 4}],
        durability="memory",
    )
    assert body["schema_version"] == WIRE_SCHEMA_VERSION
    name, ops, durability = decode_mutate(body)
    assert name == "sets" and durability == "memory"
    assert ops[0]["op"] == "upsert" and ops[0]["id"] is None
    assert ops[1] == {"op": "delete", "id": 4}


def test_v1_bodies_still_decode():
    assert 1 in SUPPORTED_WIRE_SCHEMA_VERSIONS
    query = decode_query(
        {"schema_version": 1, "backend": "sets", "payload": [1, 2], "tau": 1}
    )
    assert query.tau == 1
    # v1 predates /mutate, but a v1-stamped mutate body is a subset of v2
    # semantics and decodes the same way.
    name, ops, durability = decode_mutate(
        {"schema_version": 1, "backend": "sets", "ops": [{"op": "delete", "id": 0}]}
    )
    assert name == "sets" and durability is None and len(ops) == 1


def test_unsupported_schema_versions_are_rejected():
    with pytest.raises(WireFormatError, match="schema"):
        decode_query({"schema_version": 99, "backend": "sets", "payload": [1], "tau": 1})
    with pytest.raises(WireFormatError, match="schema"):
        decode_mutate({"schema_version": 99, "backend": "sets", "ops": [{"op": "delete", "id": 0}]})


def test_decode_mutate_names_the_bad_op_position():
    with pytest.raises(WireFormatError, match="non-empty"):
        decode_mutate({"backend": "sets", "ops": []})
    with pytest.raises(WireFormatError, match=r"ops\[1\]"):
        decode_mutate(
            {"backend": "sets", "ops": [{"op": "delete", "id": 0}, {"op": "merge"}]}
        )
    with pytest.raises(WireFormatError, match="durability"):
        decode_mutate(
            {"backend": "sets", "ops": [{"op": "delete", "id": 0}], "durability": "disk"}
        )


# ---------------------------------------------------------------------------
# POST /mutate over HTTP
# ---------------------------------------------------------------------------


def test_mutate_endpoint_and_client_shims(engine, tmp_path):
    engine.attach_wal("sets", str(tmp_path / "sets.wal"))
    with ServerThread(engine) as handle, EngineClient(handle.url) as client:
        outcome = client.mutate(
            "sets",
            # Tokens far outside the workload's vocabulary, so the threshold
            # answer below is exactly the new record.
            [{"op": "upsert", "record": [901, 902, 903]}, {"op": "delete", "id": 0}],
        )
        assert outcome["schema_version"] == WIRE_SCHEMA_VERSION
        assert outcome["durability"] == "wal" and outcome["wal_seq"] == 1
        assert outcome["results"][1] == {"op": "delete", "id": 0, "deleted": True}
        upserted = outcome["results"][0]["id"]
        assert client.search("sets", [901, 902, 903], tau=3).ids == [upserted]
        # One-op batches ride the same path end to end.
        assigned = upsert(client, "sets", [1, 3, 5], durability="memory")
        assert delete(client, "sets", assigned) is True


def test_mutate_endpoint_rejects_malformed_batches(engine):
    with ServerThread(engine) as handle, EngineClient(handle.url) as client:
        with pytest.raises(RequestError, match="ops"):
            client._request("POST", "/mutate", {"backend": "sets", "ops": []})
        # The client's encoder runs the engines' validator, so the same batch
        # through the public method never leaves the process.
        with pytest.raises(ValueError, match="ops"):
            client.mutate("sets", [])


def test_server_config_sets_the_default_durability(engine, tmp_path):
    engine.attach_wal("sets", str(tmp_path / "sets.wal"))
    config = ServerConfig(durability="memory")
    with ServerThread(engine, config) as handle, EngineClient(handle.url) as client:
        # The request names no level; the server's configured default wins
        # over the engine's (which would harden to "wal").
        relaxed = client.mutate("sets", [{"op": "delete", "id": 1}])
        assert relaxed["durability"] == "memory"
        explicit = client.mutate("sets", [{"op": "delete", "id": 2}], durability="wal")
        assert explicit["durability"] == "wal"


def test_server_config_rejects_bad_durability():
    with pytest.raises(ValueError, match="durability"):
        ServerConfig(durability="disk")


# ---------------------------------------------------------------------------
# Atomic persistence: a failed save never corrupts the old container
# ---------------------------------------------------------------------------


def test_failed_save_leaves_the_old_container_intact(engine, tmp_path, monkeypatch):
    directory = str(tmp_path / "idx")
    upsert(engine, "sets", [1, 2, 3])
    engine.save_index("sets", directory)
    before = SearchEngine()
    before.load_index(directory)
    baseline = before.mutation_info("sets")

    upsert(engine, "sets", [4, 5, 6])
    import repro.engine.persistence as persistence

    real_replace = os.replace
    calls = {"n": 0}

    def failing_replace(src, dst):
        calls["n"] += 1
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(persistence.os, "replace", failing_replace)
    with pytest.raises(OSError, match="No space left"):
        engine.save_index("sets", directory)
    monkeypatch.setattr(persistence.os, "replace", real_replace)
    assert calls["n"] >= 1
    # Nothing was replaced and no temp files linger: the directory still
    # loads exactly the previously saved state.
    assert not [name for name in os.listdir(directory) if name.endswith(".tmp")]
    after = SearchEngine()
    after.load_index(directory)
    assert after.mutation_info("sets") == baseline


def test_atomic_write_json_cleans_up_its_temp_on_failure(tmp_path, monkeypatch):
    import repro.engine.persistence as persistence

    target = str(tmp_path / "doc.json")
    atomic_write_json(target, {"v": 1})

    def failing_replace(src, dst):
        raise OSError("injected")

    monkeypatch.setattr(persistence.os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        atomic_write_json(target, {"v": 2})
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["doc.json"]
    import json

    with open(target, encoding="utf-8") as handle:
        assert json.load(handle) == {"v": 1}


def test_search_answers_see_the_batch_immediately(engine):
    engine.mutate(
        "strings",
        [{"op": "upsert", "record": "needle", "id": 0}, {"op": "upsert", "record": "needlf"}],
    )
    response = engine.search(Query(backend="strings", payload="needle", tau=1))
    assert 0 in response.ids and len(response.ids) >= 2
