"""Write-ahead log durability: acknowledged writes survive any crash.

Two layers under test.  The WAL file itself (`repro.engine.wal`): appends
are length-prefixed and checksummed, recovery reads the longest valid
prefix, and every torn or corrupted tail is discarded -- never a record
after it.  And the engines above it: after a crash (simulated by reopening
the checkpointed container and replaying the log, or by killing a shard
worker outright), threshold and top-k answers are byte-identical to an
index rebuilt from scratch over exactly the acknowledged mutations -- per
domain, plain and 2-shard.
"""

from __future__ import annotations

import os
import random
import signal

import pytest

from repro.engine import Query, SearchEngine
from repro.engine.sharding import ShardedEngine, ShardWorkerError, build_shards
from repro.engine.wal import (
    AutoCompactionPolicy,
    WalCorruptionError,
    WriteAheadLog,
    read_wal,
    wal_summary,
)
from tests.engine.conftest import upsert
from tests.engine.test_mutation import (
    DOMAINS,
    _assert_matches_rebuild,
    _initial_records,
    _record_pool,
    _seed_topk_neighbours,
)


# ---------------------------------------------------------------------------
# WAL file format: append, recover, truncate
# ---------------------------------------------------------------------------


def _ops(*ids: int) -> list[dict]:
    return [{"op": "upsert", "id": obj_id, "record": [obj_id]} for obj_id in ids]


def test_wal_appends_and_rereads_batches(tmp_path):
    path = str(tmp_path / "a.wal")
    wal = WriteAheadLog(path)
    assert wal.append("sets", _ops(0)) == 1
    assert wal.append("sets", _ops(1, 2)) == 2
    wal.close()
    reopened = WriteAheadLog(path)
    assert reopened.tail_discarded is None
    batches = reopened.batches()
    assert [batch.seq for batch in batches] == [1, 2]
    assert list(batches[1].ops) == _ops(1, 2)
    # Sequence numbering resumes after the last valid batch.
    assert reopened.append("sets", _ops(3)) == 3
    reopened.close()


def test_wal_discards_torn_final_record(tmp_path):
    path = str(tmp_path / "torn.wal")
    wal = WriteAheadLog(path)
    wal.append("sets", _ops(0))
    wal.append("sets", _ops(1))
    wal.close()
    # Crash mid-write: the last record loses its final bytes.
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 3)
    batches, valid_end, size, tail_error = read_wal(path)
    assert [batch.seq for batch in batches] == [1]
    assert "torn" in tail_error
    assert valid_end < size
    recovered = WriteAheadLog(path)
    assert recovered.last_seq == 1
    assert "torn" in recovered.tail_discarded
    # The invalid suffix is gone from disk and appends continue cleanly.
    assert os.path.getsize(path) == valid_end
    assert recovered.append("sets", _ops(9)) == 2
    recovered.close()
    with WriteAheadLog(path) as replay:
        assert [batch.seq for batch in replay.batches()] == [1, 2]


def test_wal_torn_header_is_discarded_too(tmp_path):
    path = str(tmp_path / "header.wal")
    wal = WriteAheadLog(path)
    wal.append("sets", _ops(0))
    end = os.path.getsize(path)
    wal.close()
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        handle.write(b"\x09\x00")  # 2 of the 8 header bytes made it to disk
    batches, valid_end, _size, tail_error = read_wal(path)
    assert [batch.seq for batch in batches] == [1]
    assert valid_end == end and "header" in tail_error


def test_wal_checksum_corruption_stops_replay_at_prefix(tmp_path):
    path = str(tmp_path / "crc.wal")
    wal = WriteAheadLog(path)
    wal.append("sets", _ops(0))
    first_end = os.path.getsize(path)
    wal.append("sets", _ops(1))
    wal.append("sets", _ops(2))
    wal.close()
    # Flip one payload byte of the middle record: its CRC no longer matches,
    # so replay must stop there -- batch 3 is unreachable even though its own
    # bytes are intact (its position can no longer be trusted).
    with open(path, "r+b") as handle:
        handle.seek(first_end + 8 + 2)
        byte = handle.read(1)
        handle.seek(first_end + 8 + 2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    batches, valid_end, _size, tail_error = read_wal(path)
    assert [batch.seq for batch in batches] == [1]
    assert valid_end == first_end and "checksum" in tail_error
    recovered = WriteAheadLog(path)
    assert recovered.last_seq == 1 and "checksum" in recovered.tail_discarded
    recovered.close()


def test_wal_empty_file_recovers_to_a_fresh_log(tmp_path):
    path = str(tmp_path / "empty.wal")
    open(path, "wb").close()
    batches, valid_end, _size, tail_error = read_wal(path)
    assert batches == [] and valid_end == 0 and "magic" in tail_error
    wal = WriteAheadLog(path)
    assert wal.last_seq == 0
    assert wal.append("sets", _ops(0)) == 1
    wal.close()
    with WriteAheadLog(path) as replay:
        assert [batch.seq for batch in replay.batches()] == [1]


def test_wal_rejects_foreign_magic(tmp_path):
    path = str(tmp_path / "not-a-wal")
    with open(path, "wb") as handle:
        handle.write(b"NOTAWAL!plus trailing bytes")
    with pytest.raises(WalCorruptionError, match="magic"):
        read_wal(path)
    with pytest.raises(WalCorruptionError, match="magic"):
        WriteAheadLog(path)


def test_wal_truncate_upto_keeps_newer_batches(tmp_path):
    path = str(tmp_path / "rotate.wal")
    wal = WriteAheadLog(path)
    for seq in range(1, 4):
        assert wal.append("sets", _ops(seq)) == seq
    wal.truncate_upto(2)
    assert [batch.seq for batch in wal.batches()] == [3]
    # Numbering is preserved across the rotation.
    assert wal.append("sets", _ops(9)) == 4
    wal.close()
    summary = wal_summary(path)
    assert summary["num_batches"] == 2 and summary["last_seq"] == 4


def test_wal_summary_reports_tail_damage(tmp_path):
    path = str(tmp_path / "sum.wal")
    wal = WriteAheadLog(path)
    wal.append("sets", [{"op": "upsert", "id": 0, "record": [1]}, {"op": "delete", "id": 7}])
    wal.close()
    with open(path, "ab") as handle:
        handle.write(b"\x01")
    summary = wal_summary(path)
    assert summary["num_batches"] == 1
    assert summary["batches"][0]["upserts"] == 1
    assert summary["batches"][0]["deletes"] == 1
    assert summary["discarded_bytes"] == 1
    assert "torn" in summary["tail_error"]


def test_auto_compaction_policy_crossover():
    policy = AutoCompactionPolicy(min_delta_records=4, cost_ratio=0.5, max_delta_records=100)
    assert not policy.should_compact(3, 1.0)  # below the floor: never
    assert policy.should_compact(200, 10_000.0)  # above the cap: always
    assert policy.should_compact(10, 0.0)  # no query signal: fold eagerly
    assert policy.should_compact(50, 60.0)  # 50 >= 0.5 * 60
    assert not policy.should_compact(10, 1000.0)  # delta scan still cheap
    with pytest.raises(ValueError):
        AutoCompactionPolicy(min_delta_records=10, max_delta_records=5)


# ---------------------------------------------------------------------------
# Batched mutation driver (tracks the acknowledged reference state)
# ---------------------------------------------------------------------------


def _apply_batched_mutations(
    target, domain: str, records: dict, rng: random.Random, datasets, num_batches: int = 12
) -> dict:
    """Drive random ``mutate`` batches; returns the surviving records.

    Every acknowledged op is mirrored into ``records``, the reference the
    recovery assertions rebuild from.
    """
    pool = _record_pool(domain, rng, datasets)
    next_id = max(records, default=-1) + 1
    for _ in range(num_batches):
        ops: list[dict] = []
        expected: list[tuple[str, int]] = []
        for _ in range(rng.randint(1, 4)):
            action = rng.random()
            if action < 0.5 or not records:
                record = next(pool)
                ops.append({"op": "upsert", "record": record})
                expected.append(("upsert", next_id))
                records[next_id] = record
                next_id += 1
            elif action < 0.75:
                obj_id = rng.choice(sorted(records))
                record = next(pool)
                ops.append({"op": "upsert", "record": record, "id": obj_id})
                expected.append(("upsert", obj_id))
                records[obj_id] = record
            else:
                obj_id = rng.choice(sorted(records))
                ops.append({"op": "delete", "id": obj_id})
                expected.append(("delete", obj_id))
                del records[obj_id]
        outcome = target.mutate(domain, ops)
        assert outcome["durability"] == "wal"
        for (kind, obj_id), result in zip(expected, outcome["results"]):
            assert result["op"] == kind and result["id"] == obj_id
            if kind == "delete":
                assert result["deleted"] is True
    return records


# ---------------------------------------------------------------------------
# The crash-recovery property: 4 domains x {plain, 2-shard}
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS)
def test_wal_replay_recovers_plain_engine(domain, datasets, query_payloads, tmp_path):
    """Reopening checkpoint + WAL serves exactly the acknowledged writes."""
    rng = random.Random(31 + len(domain))
    directory = str(tmp_path / "idx")
    wal_path = str(tmp_path / f"{domain}.wal")
    seed = SearchEngine()
    seed.add_dataset(domain, datasets[domain])
    seed.save_index(domain, directory)

    engine = SearchEngine()
    engine.load_index(directory)
    engine.attach_wal(domain, wal_path)
    records = dict(enumerate(_initial_records(domain, datasets)))
    records = _apply_batched_mutations(engine, domain, records, rng, datasets)
    records = _seed_topk_neighbours(engine, domain, query_payloads[domain], records)
    # Crash: the engine is dropped without save_index (close() only drops
    # the file handle, exactly like process death).  Recovery loads the
    # stale checkpoint and replays the log.
    engine.close()
    with SearchEngine() as recovered:
        recovered.load_index(directory)
        info = recovered.attach_wal(domain, wal_path)
        assert info["checkpoint_seq"] == 0 and info["replayed_batches"] > 0
        _assert_matches_rebuild(recovered, None, domain, query_payloads[domain], records)


@pytest.mark.parametrize("domain", DOMAINS)
def test_wal_replay_recovers_sharded_engine(domain, datasets, query_payloads, tmp_path):
    """2-shard: each worker replays its own log on reopen; answers are exact."""
    rng = random.Random(77 + len(domain))
    directory = str(tmp_path / "shards")
    wal_dir = str(tmp_path / "wal")
    build_shards(domain, datasets[domain], directory, 2)
    records = dict(enumerate(_initial_records(domain, datasets)))
    with ShardedEngine(directory, wal_dir=wal_dir) as engine:
        records = _apply_batched_mutations(engine, domain, records, rng, datasets)
        records = _seed_topk_neighbours(engine, domain, query_payloads[domain], records)
        next_id = engine.mutation_info()["next_id"]
        # Crash: workers are torn down without flush.
    with ShardedEngine(directory, wal_dir=wal_dir) as recovered:
        _assert_matches_rebuild(recovered, None, domain, query_payloads[domain], records)
        # The id high-water mark was rebuilt from the replayed overlays.
        assert upsert(recovered, domain, next(_record_pool(domain, rng, datasets))) == next_id


def test_wal_replay_is_idempotent(datasets, query_payloads, tmp_path):
    """Replaying the same log twice yields the same state (explicit ids)."""
    directory = str(tmp_path / "idx")
    wal_path = str(tmp_path / "sets.wal")
    seed = SearchEngine()
    seed.add_dataset("sets", datasets["sets"])
    seed.save_index("sets", directory)
    writer = SearchEngine()
    writer.load_index(directory)
    writer.attach_wal("sets", wal_path)
    writer.mutate("sets", [{"op": "upsert", "record": [1, 2, 3]}, {"op": "delete", "id": 0}])
    writer.mutate("sets", [{"op": "upsert", "record": [4, 5], "id": 1}])

    once = SearchEngine()
    once.load_index(directory)
    once.attach_wal("sets", wal_path)
    twice = SearchEngine()
    twice.load_index(directory)
    twice.attach_wal("sets", wal_path)
    twice.detach_wal("sets")
    twice.attach_wal("sets", wal_path)  # checkpoint still 0: full replay again
    assert once.mutation_info("sets") == twice.mutation_info("sets")
    for payload in query_payloads["sets"]:
        query = Query(backend="sets", payload=payload, tau=0.5)
        assert twice.search(query).ids == once.search(query).ids
    for instance in (writer, once, twice):
        instance.close()


def test_wal_torn_tail_recovers_the_acknowledged_prefix(datasets, query_payloads, tmp_path):
    """A batch whose bytes never fully hit disk is dropped; the prefix serves."""
    rng = random.Random(5)
    directory = str(tmp_path / "idx")
    wal_path = str(tmp_path / "sets.wal")
    seed = SearchEngine()
    seed.add_dataset("sets", datasets["sets"])
    seed.save_index("sets", directory)
    engine = SearchEngine()
    engine.load_index(directory)
    engine.attach_wal("sets", wal_path)
    records = dict(enumerate(_initial_records("sets", datasets)))
    records = _apply_batched_mutations(engine, "sets", records, rng, datasets, num_batches=6)
    prefix_end = os.path.getsize(wal_path)
    prefix_records = dict(records)
    # One more batch, then a crash that tears its tail off mid-write.
    engine.mutate("sets", [{"op": "upsert", "record": [9, 9, 9]}, {"op": "delete", "id": 2}])
    engine.close()
    with open(wal_path, "r+b") as handle:
        handle.truncate(os.path.getsize(wal_path) - 2)
    with SearchEngine() as recovered:
        recovered.load_index(directory)
        info = recovered.attach_wal("sets", wal_path)
        assert info["replayed_batches"] == 6
        assert os.path.getsize(wal_path) == prefix_end
        _assert_matches_rebuild(recovered, None, "sets", query_payloads["sets"], prefix_records)


def test_checkpoint_truncates_wal_and_replay_resumes_after_it(
    datasets, query_payloads, tmp_path
):
    """save_index folds acked batches into the container; only newer ones replay."""
    directory = str(tmp_path / "idx")
    wal_path = str(tmp_path / "strings.wal")
    engine = SearchEngine()
    engine.add_dataset("strings", datasets["strings"])
    engine.save_index("strings", directory)
    engine.attach_wal("strings", wal_path)
    engine.mutate("strings", [{"op": "upsert", "record": "durable"}])
    engine.mutate("strings", [{"op": "delete", "id": 0}])
    manifest = engine.save_index("strings", directory)  # checkpoint at seq 2
    assert manifest["format_version"] == 5 and manifest["wal_seq"] == 2
    assert wal_summary(wal_path)["num_batches"] == 0
    engine.mutate("strings", [{"op": "upsert", "record": "after checkpoint"}])

    with SearchEngine() as recovered:
        recovered.load_index(directory)
        info = recovered.attach_wal("strings", wal_path)
        assert info["checkpoint_seq"] == 2 and info["replayed_batches"] == 1
        assert recovered.mutation_info("strings") == engine.mutation_info("strings")
    engine.close()


def test_sharded_worker_kill_and_respawn_replays_acked_writes(
    datasets, query_payloads, tmp_path
):
    """kill -9 on a shard worker loses nothing that was acknowledged."""
    rng = random.Random(13)
    directory = str(tmp_path / "shards")
    wal_dir = str(tmp_path / "wal")
    build_shards("sets", datasets["sets"], directory, 2)
    records = dict(enumerate(_initial_records("sets", datasets)))
    with ShardedEngine(directory, wal_dir=wal_dir) as engine:
        records = _apply_batched_mutations(engine, "sets", records, rng, datasets)
        victim = 0
        os.kill(engine.replica_status()[victim]["replicas"][0]["pid"], signal.SIGKILL)
        with pytest.raises(ShardWorkerError):
            engine.search(Query(backend="sets", payload=[1, 2, 3], tau=2))
        engine.respawn_shard(victim)
        _assert_matches_rebuild(engine, None, "sets", query_payloads["sets"], records)


def test_auto_compaction_checkpoints_without_changing_answers(
    datasets, query_payloads, tmp_path
):
    """Background folding swaps the container atomically and truncates the WAL."""
    rng = random.Random(99)
    directory = str(tmp_path / "idx")
    wal_path = str(tmp_path / "sets.wal")
    engine = SearchEngine()
    engine.add_dataset("sets", datasets["sets"])
    engine.save_index("sets", directory)
    engine.attach_wal("sets", wal_path)
    engine.enable_auto_compaction(
        "sets", AutoCompactionPolicy(min_delta_records=1, cost_ratio=0.001, max_delta_records=8)
    )
    records = dict(enumerate(_initial_records("sets", datasets)))
    records = _apply_batched_mutations(engine, "sets", records, rng, datasets, num_batches=8)
    assert engine.wait_for_compaction("sets", timeout=30.0)
    info = engine.durability_info("sets")
    assert info["auto_compaction"]["compactions"] >= 1
    assert info["auto_compaction"]["last_error"] is None
    _assert_matches_rebuild(engine, None, "sets", query_payloads["sets"], records)
    engine.close()
    # The checkpoint made replay unnecessary for the folded prefix.
    with SearchEngine() as recovered:
        recovered.load_index(directory)
        recovered.attach_wal("sets", wal_path)
        _assert_matches_rebuild(recovered, None, "sets", query_payloads["sets"], records)


def test_crash_mid_compaction_swap_recovers_exactly(
    datasets, query_payloads, tmp_path
):
    """kill -9 in the swap window loses nothing that was acknowledged.

    The vulnerable instant of a replicated compaction is between the
    container checkpoint landing on disk (the atomic rename) and the
    shared WAL being truncated past it: a crash there leaves a *newer*
    container under an *un-truncated* log.  Replay must skip the folded
    prefix (idempotence via the checkpoint seq) and apply only the tail,
    yielding answers byte-identical to a from-scratch rebuild of exactly
    the acknowledged ops.
    """
    rng = random.Random(23)
    directory = str(tmp_path / "shards")
    wal_dir = str(tmp_path / "wal")
    build_shards("sets", datasets["sets"], directory, 2)
    records = dict(enumerate(_initial_records("sets", datasets)))
    with ShardedEngine(directory, wal_dir=wal_dir, replicas=2) as engine:
        records = _apply_batched_mutations(engine, "sets", records, rng, datasets)
        # Freeze the crash point: the checkpoint rename happens, the WAL
        # truncation never does -- exactly what power loss mid-swap leaves.
        for rset in engine._sets:
            rset.wal.truncate_upto = lambda seq: None
        engine.compact()
        # A few more acked batches after the interrupted swap, then the
        # hard crash: every replica of every shard dies mid-flight.
        records = _apply_batched_mutations(
            engine, "sets", records, rng, datasets, num_batches=3
        )
        for entry in engine.replica_status():
            for replica in entry["replicas"]:
                if replica["pid"] is not None:
                    os.kill(replica["pid"], signal.SIGKILL)
    with ShardedEngine(directory, wal_dir=wal_dir, replicas=2) as recovered:
        _assert_matches_rebuild(recovered, None, "sets", query_payloads["sets"], records)
    # Single-replica reopen reads the same lineage: the recovery contract
    # does not depend on the replica count the crash happened under.
    with ShardedEngine(directory, wal_dir=wal_dir) as downgraded:
        _assert_matches_rebuild(downgraded, None, "sets", query_payloads["sets"], records)
