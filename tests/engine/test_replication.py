"""Replicated shards: failover, self-healing, read-your-writes, rolling compaction.

Every test runs against a real ``ShardedEngine`` with ``replicas > 1`` --
one single-worker process pool per replica sharing the shard's WAL lineage
-- because the properties under test are all about what happens *between*
processes: a SIGKILLed replica must be invisible to readers (transparent
failover), the supervisor must respawn it and readmit it only once its
``applied_seq`` caught up with the WAL, and a rolling compaction must keep
the write path live while each replica drains in turn.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.common import diag
from repro.engine import Query, build_shards
from repro.engine.replication import CATCHING_UP, DEAD, LIVE, REPLICA_STATES, RESPAWNING
from repro.engine.sharding import ShardedEngine, ShardWorkerError
from repro.engine.wire import format_session, merge_session, parse_session
from tests.engine.test_mutation import (
    _assert_matches_rebuild,
    _initial_records,
    _record_pool,
)
from tests.engine.test_wal import _apply_batched_mutations

DOMAIN = "sets"


def _replicated(tmp_path, datasets, replicas: int = 2, shards: int = 2) -> ShardedEngine:
    directory = str(tmp_path / "shards")
    wal_dir = str(tmp_path / "wal")
    build_shards(DOMAIN, datasets[DOMAIN], directory, shards)
    return ShardedEngine(directory, wal_dir=wal_dir, replicas=replicas)


def _replica_pid(engine: ShardedEngine, shard_id: int, replica: int) -> int:
    entry = engine.replica_status()[shard_id]["replicas"][replica]
    assert entry["pid"] is not None
    return entry["pid"]


def _wait_until(predicate, timeout: float = 20.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# Construction rules and status surfaces
# ---------------------------------------------------------------------------


def test_replicas_require_a_wal_lineage(tmp_path, datasets):
    directory = str(tmp_path / "shards")
    build_shards(DOMAIN, datasets[DOMAIN], directory, 2)
    with pytest.raises(ValueError, match="wal_dir"):
        ShardedEngine(directory, replicas=2)
    with pytest.raises(ValueError, match="replicas"):
        ShardedEngine(directory, replicas=0)


def test_replica_status_reports_every_replica(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine:
        status = engine.replica_status()
        assert [entry["shard_id"] for entry in status] == [0, 1]
        for entry in status:
            assert entry["num_replicas"] == 2
            assert entry["wal_last_seq"] == 0
            assert len(entry["replicas"]) == 2
            for replica in entry["replicas"]:
                assert replica["state"] in REPLICA_STATES
                assert replica["state"] == LIVE
                assert replica["pid"] is not None
                assert replica["applied_seq"] == 0
                assert replica["generation"] == 0


def test_replicated_answers_match_single_replica(tmp_path, datasets, query_payloads, taus):
    directory = str(tmp_path / "shards")
    build_shards(DOMAIN, datasets[DOMAIN], directory, 2)
    with ShardedEngine(directory) as single:
        with ShardedEngine(
            directory, wal_dir=str(tmp_path / "wal"), replicas=2
        ) as replicated:
            for payload in query_payloads[DOMAIN]:
                query = Query(backend=DOMAIN, payload=payload, tau=taus[DOMAIN])
                assert replicated.search(query).ids == single.search(query).ids
                topk = Query(backend=DOMAIN, payload=payload, k=5)
                assert replicated.search(topk).ids == single.search(topk).ids


# ---------------------------------------------------------------------------
# Transparent failover: a SIGKILLed replica is invisible to readers
# ---------------------------------------------------------------------------


def test_search_survives_replica_kill_transparently(tmp_path, datasets, query_payloads, taus):
    with _replicated(tmp_path, datasets) as engine:
        query = Query(
            backend=DOMAIN, payload=query_payloads[DOMAIN][0], tau=taus[DOMAIN]
        )
        healthy = engine.search(query).ids
        os.kill(_replica_pid(engine, 0, 0), signal.SIGKILL)
        # No user-visible error: the routed call retries on the sibling.
        for _ in range(4):
            assert engine.search(query).ids == healthy
        assert engine.stats.snapshot()["per_shard"][0]["failovers"] >= 1


def test_writes_survive_replica_kill(tmp_path, datasets, query_payloads):
    rng = random.Random(3)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets) as engine:
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=4)
        os.kill(_replica_pid(engine, 0, 0), signal.SIGKILL)
        # Writes keep landing: the dead replica is dropped from the fan-out
        # and the batch still reaches the WAL through the survivor.
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=4)
        _assert_matches_rebuild(engine, None, DOMAIN, query_payloads[DOMAIN], records)


def test_supervisor_respawns_and_readmits_at_caught_up_seq(
    tmp_path, datasets, query_payloads
):
    rng = random.Random(29)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets) as engine:
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=6)
        victim = _replica_pid(engine, 0, 0)
        os.kill(victim, signal.SIGKILL)
        # More acked writes while the replica is down: the respawned worker
        # must replay past the container checkpoint to the WAL head.
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=4)

        def healed() -> bool:
            entry = engine.shard_health()[0]
            return entry["live_replicas"] == entry["num_replicas"] == 2

        assert _wait_until(healed), engine.replica_status()
        entry = engine.replica_status()[0]
        for replica in entry["replicas"]:
            assert replica["state"] == LIVE
            assert replica["applied_seq"] == entry["wal_last_seq"]
        # Exactly one replica was respawned (a new generation, a new pid).
        generations = sorted(r["generation"] for r in entry["replicas"])
        assert generations == [0, 1]
        assert victim not in [r["pid"] for r in entry["replicas"]]
        _assert_matches_rebuild(engine, None, DOMAIN, query_payloads[DOMAIN], records)


def test_all_replicas_dead_surfaces_structured_error(tmp_path, datasets, taus, query_payloads):
    with _replicated(tmp_path, datasets) as engine:
        engine._supervisor.stop()  # hold the failure open: no background heal
        for replica in range(2):
            os.kill(_replica_pid(engine, 1, replica), signal.SIGKILL)
        query = Query(
            backend=DOMAIN, payload=query_payloads[DOMAIN][0], tau=taus[DOMAIN]
        )
        with pytest.raises(ShardWorkerError, match="shard 1") as info:
            engine.search(query)
        assert info.value.shard_id == 1


# ---------------------------------------------------------------------------
# Health grading: degraded (some replicas down) vs failing (none left)
# ---------------------------------------------------------------------------


def test_shard_health_grades_degraded_then_failing(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine:
        engine._supervisor.stop()
        assert all(e["status"] in ("ok", "idle") for e in engine.shard_health())
        os.kill(_replica_pid(engine, 0, 0), signal.SIGKILL)
        # SIGKILL delivery is asynchronous; poll until the OS reports it.
        assert _wait_until(lambda: engine.shard_health()[0]["status"] == "degraded")
        assert engine.shard_health()[0]["live_replicas"] == 1
        os.kill(_replica_pid(engine, 0, 1), signal.SIGKILL)
        assert _wait_until(lambda: engine.shard_health()[0]["status"] == "failing")
        assert engine.shard_health()[0]["live_replicas"] == 0


# ---------------------------------------------------------------------------
# Read-your-writes: session tokens constrain routing
# ---------------------------------------------------------------------------


def test_session_token_round_trip():
    assert format_session({"0": 5, "1": 3}) == "0:5,1:3"
    assert format_session({"1": 3, "0": 5}) == "0:5,1:3"  # sorted by shard
    assert format_session({"0": None, "1": 7}) == "1:7"
    assert format_session({}) is None
    assert format_session(None) is None
    assert format_session(4) is None
    assert parse_session("0:5,1:3") == {0: 5, 1: 3}
    assert parse_session(None) == {}
    # Tolerance: malformed fragments constrain nothing, they never 400.
    assert parse_session("junk,0:2,:,-1:9,0:x") == {0: 2}
    assert merge_session("0:5,1:3", "0:2,2:9") == "0:5,1:3,2:9"
    assert merge_session(None, "0:1") == "0:1"
    assert merge_session(None, None) is None


def test_mutations_return_a_session_token(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine:
        outcome = engine.mutate(
            DOMAIN, [{"op": "upsert", "record": [1, 2, 3]}], "wal"
        )
        token = format_session(outcome["wal_seq"])
        assert token is not None
        floors = parse_session(token)
        assert floors and all(seq >= 1 for seq in floors.values())


def test_routing_skips_replicas_behind_the_session_floor(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine:
        engine.mutate(DOMAIN, [{"op": "upsert", "record": [9, 9]}], "wal")
        rset = engine._sets[0]
        ahead, behind = rset.replicas
        behind.applied_seq = 0  # pretend this replica lags the write
        ahead.applied_seq = 5
        for _ in range(8):
            picked = rset._pick(min_seq=5)
            rset._release(picked)
            assert picked is ahead
        # A floor nobody meets degrades to the most-caught-up live replica
        # (serving slightly stale beats refusing to serve).
        picked = rset._pick(min_seq=10)
        rset._release(picked)
        assert picked is ahead


def test_search_accepts_session_tokens(tmp_path, datasets, query_payloads, taus):
    with _replicated(tmp_path, datasets) as engine:
        outcome = engine.mutate(DOMAIN, [{"op": "delete", "id": 0}], "wal")
        token = format_session(outcome["wal_seq"])
        query = Query(
            backend=DOMAIN,
            payload=query_payloads[DOMAIN][0],
            tau=taus[DOMAIN],
            session=token,
        )
        response = engine.search(query)
        assert 0 not in response.ids  # the session query sees its own delete
        # Malformed tokens are advisory, never an error.
        junk = Query(
            backend=DOMAIN,
            payload=query_payloads[DOMAIN][0],
            tau=taus[DOMAIN],
            session="not-a-token",
        )
        assert engine.search(junk).ids == response.ids


# ---------------------------------------------------------------------------
# Zero-downtime rolling compaction
# ---------------------------------------------------------------------------


def test_rolling_compaction_keeps_writes_flowing(tmp_path, datasets, query_payloads):
    rng = random.Random(41)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets) as engine:
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=6)

        stop = threading.Event()
        failures: list[BaseException] = []
        writes_during = [0]
        pool = _record_pool(DOMAIN, rng, datasets)
        lock = threading.Lock()

        def writer() -> None:
            try:
                while not stop.is_set():
                    record = next(pool)
                    with lock:
                        outcome = engine.mutate(DOMAIN, [{"op": "upsert", "record": record}])
                        assigned = outcome["results"][0]["id"]
                        records[assigned] = record
                        writes_during[0] += 1
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=writer, name="compaction-writer")
        thread.start()
        try:
            summaries = engine.compact()["shards"]
        finally:
            time.sleep(0.1)
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive() and failures == []
        assert writes_during[0] > 0  # the write path never blocked for the duration
        for summary in summaries:
            assert summary["rolling"] is True
            assert summary["replicas_compacted"] == 2
        _assert_matches_rebuild(engine, None, DOMAIN, query_payloads[DOMAIN], records)
        # Both replicas are live and caught up after the rolling swap.
        for entry in engine.replica_status():
            for replica in entry["replicas"]:
                assert replica["state"] == LIVE
                assert replica["applied_seq"] == entry["wal_last_seq"]


def test_concurrent_compactions_of_one_shard_are_refused(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine:
        rset = engine._sets[0]
        with rset._lock:
            rset._compacting = True
        try:
            with pytest.raises(RuntimeError, match="already in progress"):
                engine._compact_shard(0)
        finally:
            with rset._lock:
                rset._compacting = False


def test_compaction_checkpoint_truncates_the_shared_wal(
    tmp_path, datasets, query_payloads
):
    rng = random.Random(55)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets) as engine:
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=8)
        before = [entry["wal_last_seq"] for entry in engine.replica_status()]
        engine.compact()
        for rset in engine._sets:
            wal = rset.wal
            assert wal is not None
            # Everything acked before the compaction was folded into the
            # swapped container, so the log holds no batch at or below the
            # checkpoint (numbering itself is preserved).
            assert all(batch.seq > 0 for batch in wal.batches())
            assert len(wal.batches()) == 0
        after = [entry["wal_last_seq"] for entry in engine.replica_status()]
        assert after == before  # truncation never rewinds the lineage
        _assert_matches_rebuild(engine, None, DOMAIN, query_payloads[DOMAIN], records)


# ---------------------------------------------------------------------------
# The supervisor primitive itself
# ---------------------------------------------------------------------------


def test_supervisor_ticks_and_records_errors():
    ticks = [0]
    boom = [False]

    def tick() -> None:
        if boom[0]:
            raise RuntimeError("induced")
        ticks[0] += 1

    supervisor = diag.Supervisor(tick, interval_s=0.01, name="test-supervisor")
    supervisor.start()
    supervisor.start()  # idempotent
    assert _wait_until(lambda: supervisor.status()["ticks"] >= 3, timeout=5.0)
    boom[0] = True
    assert _wait_until(lambda: supervisor.status()["errors"] >= 1, timeout=5.0)
    status = supervisor.status()
    assert status["running"] is True
    assert "induced" in status["last_error"]
    supervisor.stop()
    assert supervisor.status()["running"] is False
    supervisor.stop()  # idempotent

    with pytest.raises(ValueError, match="interval"):
        diag.Supervisor(tick, interval_s=0.0)


def test_supervisor_threads_profile_under_their_own_role():
    assert diag.thread_role("replica-supervisor") == "supervisor"
    assert diag.thread_role("supervisor") == "supervisor"


def test_replica_state_constants_are_closed():
    assert set(REPLICA_STATES) == {LIVE, DEAD, RESPAWNING, CATCHING_UP, "draining"}
