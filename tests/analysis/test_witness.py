"""Runtime lock witness: unit mechanics plus the engine deadlock regression.

The final test is the "TSan-lite" the static rule cannot replace: it runs
a metrics scrape (which snapshots under every writer lock, then the
registry lock) concurrently with a mutation writer (writer lock, then the
engine ``_lock``, then registry counters) on a live ``SearchEngine``, and
asserts the observed acquisition orders are consistent with the statically
derived graph -- i.e. their union stays acyclic.  Re-introducing the
historical hazard (taking writer locks while still holding ``_lock`` in
``metrics_wire``) turns the union into a cycle and fails this test.
"""

from __future__ import annotations

import random
import threading

import numpy as np

from repro.analysis.framework import AnalysisContext
from repro.analysis.rules.locks import build_lock_graph
from repro.analysis.witness import (
    ENGINE_LOCK,
    REGISTRY_LOCK,
    WRITER_FAMILY,
    LockWitness,
    WitnessLog,
    check_consistent,
    family,
    instrument_engine,
)
from repro.engine import SearchEngine
from repro.hamming import BinaryVectorDataset

from .conftest import REPO_ROOT


def test_family_collapse():
    assert family("m.C._writer_locks[sets]") == "m.C._writer_locks[*]"
    assert family("m.C._lock") == "m.C._lock"


def test_witness_records_nesting_edges():
    log = WitnessLog()
    outer = LockWitness(threading.Lock(), "A", log)
    inner = LockWitness(threading.Lock(), "B", log)
    with outer:
        with inner:
            pass
    with outer:  # nothing held underneath: no new edge
        pass
    assert log.edges() == {("A", "B")}
    assert log.counts()[("A", "B")] == 1


def test_check_consistent_accepts_aligned_orders():
    static = {("A", "B")}
    observed = {("A", "B"), ("B", "C")}
    assert check_consistent(static, observed) == []


def test_check_consistent_detects_inversion_against_static_graph():
    static = {("A", "B")}
    observed = {("B", "A")}
    problems = check_consistent(static, observed)
    assert len(problems) == 1
    assert "lock-order cycle" in problems[0]


def test_check_consistent_detects_reacquisition():
    problems = check_consistent(set(), {("A", "A")})
    assert problems == ["lock 'A' was re-acquired while already held"]


def test_check_consistent_keeps_intra_family_instance_order():
    # Two members of one family taken in both orders is a real deadlock
    # even though the family-collapsed graph would show a legal self-loop.
    observed = {
        ("m.C._writer_locks[a]", "m.C._writer_locks[b]"),
        ("m.C._writer_locks[b]", "m.C._writer_locks[a]"),
    }
    problems = check_consistent(set(), observed)
    assert len(problems) == 1
    assert "lock-order cycle" in problems[0]


def test_check_consistent_collapses_cross_family_edges():
    # writer[x] -> registry observed at runtime must interact with the
    # static registry -> writer[*] edge (if one existed) after collapsing.
    static = {("R", "m.C._writer_locks[*]")}
    observed = {("m.C._writer_locks[x]", "R")}
    problems = check_consistent(static, observed)
    assert len(problems) == 1
    assert "lock-order cycle" in problems[0]


# ---------------------------------------------------------------------------
# The engine regression: metrics scrape vs mutation writer
# ---------------------------------------------------------------------------


def _small_engine() -> SearchEngine:
    rng = np.random.default_rng(11)
    vectors = rng.integers(0, 2, size=(64, 32)).astype(np.uint8)
    engine = SearchEngine(cache_size=8)
    engine.add_dataset("hamming", BinaryVectorDataset(vectors, num_parts=4))
    return engine


def test_engine_scrape_vs_writer_is_deadlock_free():
    engine = _small_engine()
    # Force-create the per-backend writer lock so instrumentation wraps it.
    engine._writer_lock("hamming")
    log = WitnessLog()
    instrument_engine(engine, log)

    failures: list[BaseException] = []
    stop = threading.Event()

    def scrape():
        try:
            while not stop.is_set():
                engine.metrics_wire()
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    def write():
        try:
            rnd = random.Random(7)
            for _ in range(40):
                record = np.array(
                    [rnd.randint(0, 1) for _ in range(32)], dtype=np.uint8
                )
                engine.mutate("hamming", [{"op": "upsert", "record": record}])
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    scraper = threading.Thread(target=scrape, name="witness-scraper")
    writer = threading.Thread(target=write, name="witness-writer")
    scraper.start()
    writer.start()
    writer.join(timeout=30)
    stop.set()
    scraper.join(timeout=30)
    assert not writer.is_alive() and not scraper.is_alive()
    assert failures == []

    # The witness must have seen the two orders the static pass cannot:
    # writer -> engine _lock (mutation applying its delta) and
    # writer -> registry lock (scrape snapshotting under writer locks).
    observed = log.edges()
    collapsed = {(family(a), family(b)) for a, b in observed}
    assert (f"{WRITER_FAMILY}[*]", ENGINE_LOCK) in collapsed
    assert (f"{WRITER_FAMILY}[*]", REGISTRY_LOCK) in collapsed

    graph, _ = build_lock_graph(AnalysisContext(str(REPO_ROOT)))
    problems = check_consistent(graph.edges.keys(), observed)
    assert problems == []


def test_witness_catches_reintroduced_scrape_hazard():
    # Simulate the historical bug: snapshotting while still holding _lock.
    engine = _small_engine()
    engine._writer_lock("hamming")
    log = WitnessLog()
    instrument_engine(engine, log)

    with engine._lock:  # type: ignore[attr-defined]
        with engine._writer_locks["hamming"]:  # type: ignore[index]
            pass

    graph, _ = build_lock_graph(AnalysisContext(str(REPO_ROOT)))
    problems = check_consistent(graph.edges.keys(), log.edges())
    assert len(problems) == 1
    assert "lock-order cycle" in problems[0]


# ---------------------------------------------------------------------------
# The replication regression: writer vs compaction vs supervisor heal
# ---------------------------------------------------------------------------


def test_replica_writer_vs_compaction_vs_heal_is_deadlock_free(tmp_path):
    """The documented ``_write_lock -> _lock -> WAL._lock`` order holds live.

    Three concurrent actors contend on one shard's :class:`ReplicaSet`:
    a mutation writer (write lock, then the replica table, then the WAL
    append), a compaction (the fold on every live replica, then the one
    checkpoint and its WAL truncation under the write lock) and
    the supervisor healing a SIGKILLed replica (respawn + catch-up).  Any
    inversion against the statically derived graph turns the union cyclic
    and fails here before it can deadlock in production.
    """
    import os
    import signal
    import time

    from repro.datasets.tokens import zipfian_set_workload
    from repro.engine import build_shards
    from repro.engine.sharding import ShardedEngine
    from repro.sets import SetDataset

    workload = zipfian_set_workload(60, 6, seed=17)
    directory = str(tmp_path / "shards")
    build_shards("sets", SetDataset(workload.records, num_classes=4), directory, 1)
    log = WitnessLog()
    engine = ShardedEngine(directory, wal_dir=str(tmp_path / "wal"), replicas=2)
    try:
        from repro.analysis.witness import instrument_replica_set

        instrument_replica_set(engine._sets[0], log)

        failures: list[BaseException] = []
        stop = threading.Event()

        def write():
            try:
                rnd = random.Random(3)
                while not stop.is_set():
                    record = sorted({rnd.randint(0, 40) for _ in range(4)})
                    engine.mutate("sets", [{"op": "upsert", "record": record}])
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        writer = threading.Thread(target=write, name="witness-replica-writer")
        writer.start()
        try:
            engine.compact()  # every live replica folds, one checkpoints
            victim = engine.replica_status()[0]["replicas"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                entry = engine.shard_health()[0]
                if entry["live_replicas"] == entry["num_replicas"]:
                    break
                time.sleep(0.05)
            engine.compact()  # a second pass over the healed set
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not writer.is_alive() and failures == []
    finally:
        engine.close()

    observed = log.edges()
    # The three documented orders all fired at least once.
    from repro.analysis.witness import REPLICA_LOCK, REPLICA_WRITE_LOCK, WAL_LOCK

    assert (REPLICA_WRITE_LOCK, REPLICA_LOCK) in observed
    assert (REPLICA_WRITE_LOCK, WAL_LOCK) in observed

    graph, _ = build_lock_graph(AnalysisContext(str(REPO_ROOT)))
    problems = check_consistent(graph.edges.keys(), observed)
    assert problems == []
