"""Replicated shards: failover, self-healing, read-your-writes, compaction.

Every test runs against a real ``ShardedEngine`` with ``replicas > 1`` --
one worker process per replica behind one pipe, sharing the shard's WAL
lineage -- because the properties under test are all about what happens
*between* processes: a SIGKILLed replica must be invisible to readers
(transparent failover), the supervisor must respawn it and readmit it only
once its ``applied_seq`` caught up with the WAL, and a compaction must fold
every live replica and checkpoint exactly one of them.  The
transport tests at the end pin the pipe itself: worker exceptions are not
deaths, every worker is reaped, and no forked sibling hides a death.
"""

from __future__ import annotations

import functools
import os
import random
import shutil
import signal
import socket
import sys
import threading
import time

import pytest

from repro.common import diag
from repro.engine import Query, build_shards, get_backend, register_backend
from repro.engine.replication import (
    CATCHING_UP,
    DEAD,
    LIVE,
    REPLICA_STATES,
    RESPAWNING,
    _WORKER,
    _worker_call,
    _worker_search,
)
from repro.engine.sharding import ShardedEngine, ShardWorkerError
from repro.engine.wire import format_session, merge_session, parse_session
from tests.engine.test_mutation import (
    PARAMS,
    _assert_matches_rebuild,
    _initial_records,
    _rebuild,
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
            picked, worker = rset._pick(min_seq=5)
            rset._release(picked)
            assert picked is ahead and worker is ahead.worker
        # A floor nobody meets degrades to the most-caught-up live replica
        # (serving slightly stale beats refusing to serve).
        picked, _worker = rset._pick(min_seq=10)
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
# Compaction: every live replica folds in place, one checkpoints
# ---------------------------------------------------------------------------


def test_compaction_folds_every_replica_in_place(tmp_path, datasets, query_payloads):
    rng = random.Random(41)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets) as engine:
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=6)

        stop = threading.Event()
        failures: list[BaseException] = []
        pool = _record_pool(DOMAIN, rng, datasets)
        lock = threading.Lock()

        def writer() -> None:
            # Writes wait behind the fold, as on one replica; every one
            # acknowledged during it must survive.
            try:
                while not stop.is_set():
                    record = next(pool)
                    with lock:
                        outcome = engine.mutate(DOMAIN, [{"op": "upsert", "record": record}])
                        records[outcome["results"][0]["id"]] = record
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
        for summary in summaries:
            assert summary["replicas_compacted"] == 2
            assert summary["checkpointed"] is True
        _assert_matches_rebuild(engine, None, DOMAIN, query_payloads[DOMAIN], records)
        for entry in engine.replica_status():
            for replica in entry["replicas"]:
                assert replica["state"] == LIVE
                assert replica["applied_seq"] == entry["wal_last_seq"]


def test_compaction_with_a_dead_sibling_folds_and_checkpoints_the_live_one(
    tmp_path, datasets, query_payloads
):
    rng = random.Random(43)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets) as engine:
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=8)
        engine._supervisor.stop()  # the respawn below happens by hand
        rset = engine._sets[0]
        os.kill(_replica_pid(engine, 0, 1), signal.SIGKILL)
        assert _wait_until(lambda: not rset.replicas[1].process_alive())
        summary = engine.compact()["shards"][0]
        assert summary["compacted"] is True and summary["checkpointed"] is True
        assert summary["replicas_compacted"] == 1
        assert len(rset.wal.batches()) == 0  # truncated at the live replica's checkpoint
        # Acknowledged on shard 0 after the checkpoint: the respawned
        # replica must replay it from the WAL tail.
        record = next(_record_pool(DOMAIN, rng, datasets))
        engine.mutate(DOMAIN, [{"op": "upsert", "id": 0, "record": record}])
        records[0] = record
        assert len(rset.wal.batches()) == 1
        rset.heal()
        assert rset.replicas[1].generation == 1
        reference, live = _rebuild(DOMAIN, records)
        shard_hi = engine._manifest["shards"][1]["lo"]
        for payload in query_payloads[DOMAIN]:
            query = Query(backend=DOMAIN, payload=payload, tau=PARAMS[DOMAIN]["tau"])
            expected = sorted(live[dense] for dense in reference.search(query).ids)
            for replica in rset.replicas:
                ids = replica.worker.submit(_worker_search, query).result()["ids"]
                assert ids == [obj_id for obj_id in expected if obj_id < shard_hi]
        wal_last_seq = engine.replica_status()[0]["wal_last_seq"]
        for replica in rset.replicas:
            applied = replica.worker.submit(_worker_call, "applied_seq", DOMAIN).result()
            assert applied == wal_last_seq
            assert replica.state == LIVE


def test_sigkill_during_a_strings_fold_recovers_both_replicas(tmp_path, datasets, query_payloads):
    """One strings shard, two replicas, a WAL: one replica's worker is
    killed while it folds.  Its sibling folds -- splicing the index its
    searchers hold, under the gram order it kept -- and checkpoints; the
    respawned replica loads that checkpoint, which fits a fresh order, and
    replays the WAL tail.  Asked directly, each worker answers exactly what
    a rebuild of the acknowledged ops answers."""
    domain = "strings"
    marker = tmp_path / "folding"
    original = get_backend(domain)

    class ParkedFold(type(original)):
        def apply_mutations(self, store, delta):
            # The first replica to fold writes its pid and parks until killed.
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return super().apply_mutations(store, delta)
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            time.sleep(120)
            return super().apply_mutations(store, delta)

    # Registered before the engine opens, so forked replicas inherit it.
    register_backend(ParkedFold(), replace=True)
    try:
        directory = str(tmp_path / "shards")
        build_shards(domain, datasets[domain], directory, 1)
        with ShardedEngine(directory, wal_dir=str(tmp_path / "wal"), replicas=2) as engine:
            engine._supervisor.stop()  # the respawn below happens by hand
            rset = engine._sets[0]
            rng = random.Random(47)
            records = dict(enumerate(_initial_records(domain, datasets)))
            queries = [
                Query(backend=domain, payload=payload, **{key: value})
                for payload in query_payloads[domain]
                for key, value in PARAMS[domain].items()
            ]
            for replica in rset.replicas:  # each builds the index its fold splices
                for query in queries:
                    replica.worker.submit(_worker_search, query).result()
            records = _apply_batched_mutations(
                engine, domain, records, rng, datasets, num_batches=8
            )

            folded: list[dict] = []
            folding = threading.Thread(target=lambda: folded.append(engine.compact()))
            folding.start()
            assert _wait_until(lambda: marker.exists() and marker.read_text() != "")
            os.kill(int(marker.read_text()), signal.SIGKILL)
            folding.join(timeout=60)
            assert not folding.is_alive()
            summary = folded[0]["shards"][0]
            assert summary["replicas_compacted"] == 1 and summary["checkpointed"] is True

            # Acknowledged after the checkpoint: the respawn replays it.
            records = _apply_batched_mutations(
                engine, domain, records, rng, datasets, num_batches=3
            )
            rset.heal()
            assert [replica.state for replica in rset.replicas] == [LIVE, LIVE]
            reference, live = _rebuild(domain, records)
            for query in queries:
                expected = reference.search(query)
                for replica in rset.replicas:
                    answer = replica.worker.submit(_worker_search, query).result()
                    assert answer["ids"] == [live[dense] for dense in expected.ids]
                    assert answer["scores"] == expected.scores
    finally:
        register_backend(original, replace=True)


def _answers(engine, query_payloads, taus) -> list:
    answers = []
    for payload in query_payloads[DOMAIN]:
        for query in (
            Query(backend=DOMAIN, payload=payload, tau=taus[DOMAIN]),
            Query(backend=DOMAIN, payload=payload, k=5),
        ):
            response = engine.search(query)
            answers.append((response.ids, response.scores))
    return answers


def test_flush_during_compaction_writes_each_container_once_at_a_time(
    tmp_path, datasets, query_payloads, taus
):
    """A flush and a compaction's checkpoint both save the shard container;
    they must never run at once (both would write the same temp files)."""
    rng = random.Random(47)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    directory = str(tmp_path / "shards")
    wal_dir = str(tmp_path / "wal")
    build_shards(DOMAIN, datasets[DOMAIN], directory, 1)
    for _iteration in range(12):
        with ShardedEngine(directory, wal_dir=wal_dir, replicas=2) as engine:
            records = _apply_batched_mutations(
                engine, DOMAIN, records, rng, datasets, num_batches=8
            )
            failures: list[BaseException] = []

            def compact() -> None:
                try:
                    engine.compact()
                except BaseException as exc:  # surfaced below
                    failures.append(exc)

            thread = threading.Thread(target=compact, name="compaction")
            thread.start()
            try:
                for _ in range(5):
                    engine.flush()
            finally:
                thread.join(timeout=60)
            assert not thread.is_alive() and failures == []
            before = _answers(engine, query_payloads, taus)
        with ShardedEngine(directory, wal_dir=wal_dir) as reopened:
            assert _answers(reopened, query_payloads, taus) == before
            _assert_matches_rebuild(reopened, None, DOMAIN, query_payloads[DOMAIN], records)


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
    assert set(REPLICA_STATES) == {LIVE, DEAD, RESPAWNING, CATCHING_UP}


# ---------------------------------------------------------------------------
# The pipe transport: task failures, reaping, fork hygiene, spawn
# ---------------------------------------------------------------------------


def _raise_runtime_error() -> None:
    """Runs inside a worker: an ordinary task failure, not a replica death."""
    raise RuntimeError("induced worker-side failure")


class _NeedsTwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its pickled ``args``."""

    def __init__(self, left: str, right: str):
        super().__init__(left)
        self.right = right


def _raise_unpicklable() -> None:
    raise ValueError(threading.Lock())


def _raise_unrebuildable() -> None:
    raise _NeedsTwoArgs("left", "right")


def _echo(payload: bytes) -> bytes:
    """Runs inside a worker: a reply as large as its call."""
    return payload


def _break_replay() -> None:
    """Runs inside a worker: every later WAL replay there raises."""

    def replay_wal(*_args):
        raise RuntimeError("induced replay failure")

    _WORKER["engine"].replay_wal = replay_wal


def _query(query_payloads, taus) -> Query:
    return Query(backend=DOMAIN, payload=query_payloads[DOMAIN][0], tau=taus[DOMAIN])


def _assert_all_live_and_unharmed(engine: ShardedEngine) -> None:
    for entry in engine.replica_status():
        for replica in entry["replicas"]:
            assert replica["state"] == LIVE
            assert replica["generation"] == 0
    for shard in engine.stats.snapshot()["per_shard"]:
        assert shard["worker_errors"] == 0
        assert shard["failovers"] == 0


@pytest.mark.parametrize("replicas", [1, 2])
def test_worker_exception_in_broadcast_is_not_a_death(
    tmp_path, datasets, query_payloads, taus, replicas
):
    with _replicated(tmp_path, datasets, replicas=replicas) as engine:
        query = _query(query_payloads, taus)
        healthy = engine.search(query).ids
        for rset in engine._sets:
            with pytest.raises(RuntimeError, match="induced worker-side failure"):
                rset.broadcast(_raise_runtime_error)
        _assert_all_live_and_unharmed(engine)
        # With one replica there is no supervisor: a replica wrongly marked
        # dead here would fail every later search for good.
        assert engine.search(query).ids == healthy
        _assert_all_live_and_unharmed(engine)


@pytest.mark.parametrize("task", [_raise_unpicklable, _raise_unrebuildable])
def test_unpicklable_worker_exception_comes_back_as_runtime_error(tmp_path, datasets, task):
    with _replicated(tmp_path, datasets, replicas=1) as engine:
        rset = engine._sets[0]
        with pytest.raises(RuntimeError, match="cannot be pickled"):
            rset.submit(task).result(timeout=10)
        # Every call got its own reply frame: the next answer is its own.
        assert rset.submit(_worker_call, "applied_seq", DOMAIN).result(timeout=10) == 0
        _assert_all_live_and_unharmed(engine)


@pytest.mark.parametrize("callers", [1, 2])
def test_pipelined_calls_larger_than_the_pipe_buffer_all_finish(tmp_path, datasets, callers):
    # Frames and replies of 1 MB each are far past a socket buffer: a caller
    # sending the next frame must never keep the reader from taking the
    # reply the worker is blocked on, or all three wait for good.
    with _replicated(tmp_path, datasets, replicas=1, shards=1) as engine:
        worker = engine._sets[0].replicas[0].worker
        payloads = [bytes([slot]) * (1 << 20) for slot in range(6)]
        answers: dict[int, list[bytes]] = {}

        def pipeline(caller: int) -> None:
            futures = [worker.submit(_echo, payload) for payload in payloads]
            answers[caller] = [future.result() for future in futures]

        threads = [
            threading.Thread(target=pipeline, args=(caller,), daemon=True)
            for caller in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        hung = any(thread.is_alive() for thread in threads)
        if hung:  # free the pipe so the engine can close and the test fail
            os.kill(worker.process.pid, signal.SIGKILL)
        assert not hung, "pipelined large calls deadlocked"
        assert answers == {caller: payloads for caller in range(callers)}


def test_replay_failure_during_readmission_is_healed(tmp_path, datasets):
    # A replay raising inside the worker leaves the replica's state
    # unknown; it must come back through a respawn, not stay out of service.
    with _replicated(tmp_path, datasets, shards=1) as engine:
        engine.mutate(DOMAIN, [{"op": "upsert", "record": [9, 9]}], "wal")
        first = engine._sets[0].replicas[0]
        first.worker.submit(_break_replay).result(timeout=10)
        with pytest.raises(ShardWorkerError, match="failed readmission"):
            engine._sets[0]._readmit(first)

        def healed() -> bool:
            states = [r["state"] for r in engine.replica_status()[0]["replicas"]]
            return states == [LIVE, LIVE]

        assert _wait_until(healed), engine.replica_status()
        assert first.generation == 1


def test_a_replica_older_than_the_truncated_log_is_respawned_not_readmitted(
    tmp_path, datasets, query_payloads
):
    """A respawn racing a checkpoint: the new worker loaded the container
    the checkpoint then replaced, and the log no longer holds the batches
    between the two.  The replica must be respawned again, never served."""
    rng = random.Random(53)
    records = dict(enumerate(_initial_records(DOMAIN, datasets)))
    with _replicated(tmp_path, datasets, shards=1) as engine:
        engine._supervisor.stop()  # every respawn below happens by hand
        rset = engine._sets[0]
        spawn = rset._spawn
        context, initargs = spawn.args
        stale = str(tmp_path / "stale-shard")
        shutil.copytree(initargs[0], stale)  # the container before the checkpoint
        records = _apply_batched_mutations(engine, DOMAIN, records, rng, datasets, num_batches=4)
        engine.flush()  # checkpoints, then truncates the log
        rset._spawn = functools.partial(spawn.func, context, (stale, *initargs[1:]))
        with pytest.raises(ShardWorkerError, match="truncated"):
            rset.respawn(rset.replicas[1])
        assert rset.replicas[1].state == DEAD
        rset._spawn = spawn
        rset.heal()
        assert [replica.state for replica in rset.replicas] == [LIVE, LIVE]
        for replica in rset.replicas:
            applied = replica.worker.submit(_worker_call, "applied_seq", DOMAIN).result()
            assert applied == rset.wal.last_seq
        _assert_matches_rebuild(engine, None, DOMAIN, query_payloads[DOMAIN], records)


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_open_search_close_cycles_reap_every_worker(tmp_path, datasets, query_payloads, taus):
    directory = str(tmp_path / "shards")
    build_shards(DOMAIN, datasets[DOMAIN], directory, 2)
    query = _query(query_payloads, taus)
    expected = None
    for _ in range(30):
        engine = ShardedEngine(directory)
        workers = [replica.worker for rset in engine._sets for replica in rset.replicas]
        ids = engine.search(query).ids
        expected = ids if expected is None else expected
        assert ids == expected
        engine.close()
        for worker in workers:
            # Reaped (an exit code is known), stopped by its stop frame
            # rather than terminated, and its reader saw end of file.
            assert worker.process.exitcode == 0
            assert not worker._reader.is_alive()


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_respawn_racing_searches_is_invisible(tmp_path, datasets, query_payloads, taus):
    with _replicated(tmp_path, datasets) as engine:
        query = _query(query_payloads, taus)
        healthy = engine.search(query).ids
        stop = threading.Event()
        failures: list[BaseException] = []
        answered = [0] * 4

        def reader(slot: int) -> None:
            try:
                while not stop.is_set():
                    assert engine.search(query).ids == healthy
                    answered[slot] += 1
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        # More readers than cores and a short switch interval, so frames
        # land on the old workers around their stop frames.
        threads = [
            threading.Thread(target=reader, args=(slot,), name=f"racing-reader-{slot}")
            for slot in range(len(answered))
        ]
        old = [replica.worker for replica in engine._sets[0].replicas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(3):
                engine.respawn_shard(0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and failures == []
        assert all(count > 0 for count in answered)
        assert all(worker.process.exitcode == 0 for worker in old)
        for replica in engine.replica_status()[0]["replicas"]:
            assert replica["state"] == LIVE
            assert replica["generation"] == 3


def test_kill_of_first_forked_replica_fails_over_promptly(tmp_path, datasets, query_payloads, taus):
    # Shard 0's first replica is forked before its three siblings; a sibling
    # that inherited a live copy of its pipe's child end would keep the
    # pipe open after the kill, and the read routed there would never end.
    with _replicated(tmp_path, datasets) as engine:
        engine._supervisor.stop()
        query = _query(query_payloads, taus)
        healthy = engine.search(query).ids
        first = engine._sets[0].replicas[0]
        os.kill(first.pid(), signal.SIGKILL)
        answers: list[list[int]] = []

        def read() -> None:
            for _ in range(4):
                answers.append(engine.search(query).ids)

        thread = threading.Thread(target=read, name="failover-reader", daemon=True)
        thread.start()
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "the killed replica's death was hidden"
        assert answers == [healthy] * 4
        assert first.state == DEAD


def test_closing_a_replica_set_stops_its_workers_without_terminate(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine:
        rset = engine._sets[0]
        workers = [replica.worker for replica in rset.replicas]
        rset.close()
        for worker in workers:
            assert worker.process.exitcode == 0  # -SIGTERM had it been terminated
            assert not worker._reader.is_alive()
        assert all(replica.state == DEAD for replica in rset.replicas)


def test_spawn_start_method_serves_and_fails_over(tmp_path, datasets, query_payloads, taus):
    directory = str(tmp_path / "shards")
    build_shards(DOMAIN, datasets[DOMAIN], directory, 1)
    query = _query(query_payloads, taus)
    with ShardedEngine(directory) as forked:
        healthy = forked.search(query).ids
    with ShardedEngine(
        directory, mp_context="spawn", wal_dir=str(tmp_path / "wal"), replicas=2
    ) as engine:
        engine._supervisor.stop()
        assert engine.search(query).ids == healthy
        os.kill(_replica_pid(engine, 0, 0), signal.SIGKILL)
        assert engine.search(query).ids == healthy
        assert engine.stats.snapshot()["per_shard"][0]["failovers"] >= 1


def test_sigterm_to_a_worker_never_reaches_the_parents_signal_handling(tmp_path, datasets):
    # A serving parent routes SIGTERM through asyncio's wakeup fd.  A forked
    # worker that kept both would swallow its own SIGTERM and write it to
    # the parent's event loop instead, stopping the server.
    directory = str(tmp_path / "shards")
    build_shards(DOMAIN, datasets[DOMAIN], directory, 1)
    wakeup_read, wakeup_write = socket.socketpair()
    wakeup_read.setblocking(False)
    wakeup_write.setblocking(False)
    previous_handler = signal.signal(signal.SIGTERM, lambda *_args: None)
    previous_fd = signal.set_wakeup_fd(wakeup_write.fileno())
    try:
        with ShardedEngine(directory) as engine:
            replica = engine._sets[0].replicas[0]
            os.kill(replica.pid(), signal.SIGTERM)
            assert _wait_until(lambda: not replica.process_alive(), timeout=5.0)
        with pytest.raises(BlockingIOError):
            wakeup_read.recv(16)
    finally:
        signal.set_wakeup_fd(previous_fd)
        signal.signal(signal.SIGTERM, previous_handler)
        wakeup_read.close()
        wakeup_write.close()
