"""Per-shard replication: N single-worker replicas sharing one WAL lineage.

:class:`repro.engine.sharding.ShardedEngine` historically ran exactly one
worker process per shard, so a SIGKILL'd worker was a 503 until someone
called ``respawn_shard()`` by hand, and ``compact()`` blocked the write path
for the whole rebuild.  This module supplies the fault-tolerance layer that
turns each shard into a *replica set*:

* **One WAL lineage per shard, owned by the parent.**  The parent process
  opens the shard's :class:`repro.engine.wal.WriteAheadLog` and is the only
  writer; replicas never attach it.  A write is fanned out to every live
  replica first and appended to the log only after at least one replica
  applied it (*apply-then-log*) -- so the log never acknowledges history
  that no replica holds, and the crash contract (acked ``<= recovered <=
  acked + 1`` batches) is unchanged from the single-worker design.
* **Replicas are replay-only readers.**  A worker boots by loading the
  shard container and folding in the WAL suffix past the container
  checkpoint (:meth:`SearchEngine.replay_wal`); afterwards the parent ships
  mutations as explicit sub-batches stamped with the lineage sequence
  number they cover.
* **Reads route to the least-loaded live replica** and fail over
  transparently: a replica that dies mid-call is marked dead and the call
  is retried on a sibling (:class:`RoutedFuture`).  Read-your-writes is a
  routing constraint -- callers pass the ``wal_seq`` their session has been
  acknowledged at, and replicas still catching up past it are skipped.
* **Respawn + readmission**: a dead replica is rebuilt from its container,
  replays the shared WAL until it has caught up with ``wal.last_seq``, and
  is readmitted under the write lock so no acknowledged write can slip
  between catch-up and readmission.
* **Rolling compaction**: with two or more replicas the set compacts one
  *drained* replica at a time while the siblings keep serving, then
  readmits it through WAL replay.  The write path never blocks beyond the
  readmission's atomic section.

Lock order (a :mod:`repro.analysis` lock-discipline invariant): a thread
may take ``ReplicaSet._write_lock`` -> ``ReplicaSet._lock`` ->
``WriteAheadLog._lock``, never the reverse.

Everything module-level and underscore-prefixed below the "Worker side"
marker runs *inside* the worker processes (module-level so the functions
pickle across the process boundary).
"""

from __future__ import annotations

import gc
import threading
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.common import diag
from repro.engine.api import Query
from repro.engine.backend import get_backend
from repro.engine.wal import DURABILITY_LEVELS, WriteAheadLog, op_to_wire

#: Replica lifecycle states, in the order a healthy respawn walks them.
LIVE = "live"
DEAD = "dead"
RESPAWNING = "respawning"
CATCHING_UP = "catching-up"
DRAINING = "draining"

REPLICA_STATES = (LIVE, DEAD, RESPAWNING, CATCHING_UP, DRAINING)


class ShardWorkerError(RuntimeError):
    """A shard has no replica able to answer (all workers died mid-call).

    Carries the failing ``shard_id`` so callers -- the network serving layer
    maps this to a 503 -- can report which partition of the id space is down
    rather than surfacing a bare :class:`BrokenProcessPool`.
    """

    def __init__(self, shard_id: int, message: str):
        super().__init__(f"shard {shard_id}: {message}")
        self.shard_id = shard_id


# ---------------------------------------------------------------------------
# Worker side (module level so the functions pickle across processes)
# ---------------------------------------------------------------------------

_WORKER: dict[str, Any] = {}


def _init_worker(
    shard_dir: str,
    offset: int,
    cache_size: int,
    wal_path: str | None = None,
) -> None:
    """Load one shard container into a worker-private engine, once.

    With ``wal_path`` set, the shard's shared write-ahead log is **replayed
    into the overlay** -- never attached -- before the readiness barrier
    releases.  The parent owns the log and appends on behalf of every
    replica; workers only ever read it, which is what lets N replicas share
    one lineage file.
    """
    from repro.engine.executor import SearchEngine

    # A forked worker inherits the parent's heap, unreachable objects
    # included.  Collecting an inherited ProcessPoolExecutor here runs its
    # finaliser, which takes a lock the parent's pool-manager thread may
    # have held at the fork (a pool being torn down after a replica kill):
    # the worker would hang inside the collector, mid-query.  Freezing
    # keeps everything inherited out of this process's collections.
    gc.freeze()
    engine = SearchEngine(cache_size=cache_size)
    container = engine.load_index(shard_dir)
    backend_name = container.backend.name
    if wal_path is not None:
        engine.replay_wal(backend_name, wal_path)
    _WORKER["engine"] = engine
    _WORKER["offset"] = offset
    _WORKER["backend"] = backend_name


def _worker_ready() -> int:
    """Startup barrier: returns the shard offset once the shard is loaded."""
    return _WORKER["offset"]


def _worker_search(query: Query) -> dict:
    """Answer one query against the worker's shard; ids come back global."""
    engine = _WORKER["engine"]
    offset = _WORKER["offset"]
    response = engine.search(query)
    return {
        "ids": [int(obj_id) + offset for obj_id in response.ids],
        "scores": (
            None
            if response.scores is None
            else [float(score) for score in response.scores]
        ),
        "tau_effective": response.tau_effective,
        "num_candidates": response.num_candidates,
        "num_generated": response.num_generated,
        "candidate_time": response.candidate_time,
        "verify_time": response.verify_time,
        "engine_time": response.engine_time,
        # Span timeline recorded by the worker engine (None when the query
        # carried no trace id).  Offsets are relative to the worker's own
        # clock; the parent embeds them under its per-shard span.
        "trace": response.trace,
    }


def _worker_search_many(queries: Sequence[Query]) -> list[dict]:
    """Answer a chunk of queries in one task, amortising the IPC cost."""
    return [_worker_search(query) for query in queries]


def _worker_call(method: str, *args: Any) -> Any:
    """Run one method of the worker's engine: the generic IPC entry point
    for everything that only forwards (info, replay, flush, metrics)."""
    return getattr(_WORKER["engine"], method)(*args)


def _worker_apply(ops: Sequence[dict], seq: int | None) -> dict:
    """Apply one parent-routed sub-batch and record the lineage seq it covers.

    The worker holds no WAL (the parent owns the lineage), so the engine
    applies at memory durability; the parent provides durability by
    appending the batch to the shared log after at least one replica
    succeeded.
    """
    engine = _WORKER["engine"]
    outcome = engine.mutate(_WORKER["backend"], list(ops), None)
    if seq is not None:
        engine.advance_applied_seq(_WORKER["backend"], seq)
    return outcome


def _worker_compact_and_save(shard_dir: str | None) -> dict:
    """Fold the overlay into a rebuilt index; optionally checkpoint it.

    With ``shard_dir`` set and a real rebuild done, the compacted store is
    persisted back into the shard container so the parent may truncate the
    shared WAL up to ``checkpoint_seq``.  An identity compaction (or an
    emptied store) checkpoints nothing -- there is nothing the WAL suffix is
    needed to reconstruct that the container does not already hold.
    """
    engine = _WORKER["engine"]
    backend = _WORKER["backend"]
    try:
        summary = dict(engine.compact(backend))
    except ValueError as exc:
        # Every record of this shard is deleted; the overlay stays (searches
        # keep answering correctly through the tombstones).
        return {"backend": backend, "compacted": False, "error": str(exc)}
    if shard_dir is not None and summary.get("compacted", True):
        engine.save_index(backend, shard_dir)
        summary["checkpointed"] = True
        summary["checkpoint_seq"] = engine.applied_seq(backend)
    return summary


def _worker_start_profiler() -> None:
    """Arm this worker's sampler for one ``/debug/profile`` window.

    The sampler ticks on its own daemon thread between and during queries,
    so the parent's window never occupies the shard's single worker; a
    sampler left over from a window whose disarm never reached this worker
    is replaced, not resumed.
    """
    _worker_stop_profiler()
    _WORKER["profiler"] = diag.SamplingProfiler(main_role="shard-worker").start()


def _worker_stop_profiler() -> None:
    profiler = _WORKER.pop("profiler", None)
    if profiler is not None:
        profiler.stop()


def _worker_profile_wire() -> dict | None:
    """Snapshot of the worker's sampler, or None when no window armed it."""
    profiler = _WORKER.get("profiler")
    return profiler.snapshot() if profiler is not None else None


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class Replica:
    """One replica slot of a shard: a single-worker pool plus routing state.

    All mutable fields are guarded by the owning :class:`ReplicaSet`'s
    ``_lock``; the object itself holds no lock so it can live in
    ``__slots__``-sized numbers.
    """

    __slots__ = ("index", "pool", "state", "applied_seq", "in_flight", "generation")

    def __init__(self, index: int):
        self.index = index
        self.pool: ProcessPoolExecutor | None = None
        self.state = RESPAWNING
        self.applied_seq = 0
        self.in_flight = 0
        self.generation = 0

    def pid(self) -> int | None:
        """The worker process id, or None before the process exists."""
        try:
            return next(iter(self.pool._processes))
        except (StopIteration, AttributeError, TypeError):
            return None

    def process_alive(self) -> bool:
        """Whether the pool's worker process is actually running.

        A SIGKILL'd worker leaves the pool object intact but its process
        dead; the pool only notices on the next task, so liveness checks
        must ask the OS, not the executor.
        """
        try:
            processes = list(self.pool._processes.values())
        except (AttributeError, TypeError):
            return False
        if not processes:
            return False
        return all(process.is_alive() for process in processes)


class RoutedFuture:
    """A read routed to one live replica, retried on siblings if it dies.

    Submission picks the least-loaded live replica satisfying the caller's
    ``min_seq`` (read-your-writes) constraint; if the replica's process dies
    before the result lands, the call is resubmitted to a sibling.  Only
    when *no* live replica remains does :meth:`result` raise
    :class:`ShardWorkerError` -- a replica death is invisible to the caller
    while any sibling lives.
    """

    __slots__ = ("_rset", "_fn", "_args", "_min_seq", "_replica", "_future")

    def __init__(self, rset: "ReplicaSet", fn: Callable, args: tuple, min_seq: int = 0):
        self._rset = rset
        self._fn = fn
        self._args = args
        self._min_seq = min_seq
        self._replica: Replica | None = None
        self._future: Future | None = None
        self._submit()

    def _submit(self) -> None:
        while True:
            replica = self._rset._pick(self._min_seq)
            try:
                future = replica.pool.submit(self._fn, *self._args)
            except (BrokenProcessPool, RuntimeError):
                self._rset._release(replica)
                self._rset._mark_dead(replica)
                continue
            self._replica = replica
            self._future = future
            future.add_done_callback(lambda _f, r=replica: self._rset._release(r))
            return

    def result(self, timeout: float | None = None) -> Any:
        while True:
            try:
                return self._future.result(timeout)
            except (BrokenProcessPool, CancelledError):
                self._rset._mark_dead(self._replica)
                self._rset._note_failover()
                self._submit()


class ReplicaSet:
    """N replicas of one shard behind a single write path and WAL lineage.

    Args:
        shard_id: the shard this set serves (only used in error messages
            and summaries).
        spawn: zero-argument factory returning a fresh single-worker
            ``ProcessPoolExecutor`` whose initializer loads the shard.
        num_replicas: replica count; ``> 1`` requires ``wal`` (siblings can
            only converge through a shared lineage).
        wal: the parent-owned :class:`WriteAheadLog`, or None for the
            WAL-less single-replica mode (in-memory mutations only).
        backend: the shard's backend name (WAL records and worker calls
            are addressed by it).
        on_death: callback fired (outside all locks) each time a replica
            transitions to ``dead`` -- the engine counts worker errors and
            marks the health scoreboard here.
        on_failover: callback fired when a read is transparently retried on
            a sibling after its first replica died mid-call.
    """

    def __init__(
        self,
        shard_id: int,
        spawn: Callable[[], ProcessPoolExecutor],
        num_replicas: int = 1,
        wal: WriteAheadLog | None = None,
        *,
        backend: str,
        on_death: Callable[[], None] | None = None,
        on_failover: Callable[[], None] | None = None,
    ):
        if num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")
        if num_replicas > 1 and wal is None:
            raise ValueError(
                "replicas > 1 requires a shared WAL lineage (pass wal_dir)"
            )
        self.shard_id = shard_id
        self._spawn = spawn
        self._wal = wal
        self._backend = backend
        self._backend_obj = get_backend(backend)
        self._on_death = on_death
        self._on_failover = on_failover
        # _lock guards the replica table (states, applied seqs, in-flight
        # counts) and the _compacting flag; _write_lock serialises the
        # write path with readmissions so no acknowledged write can slip
        # past a replica between its catch-up and its readmission.
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._compacting = False
        self.replicas = [Replica(index) for index in range(num_replicas)]
        self._ready: list[tuple[Replica, Future, Future]] = []

    # -- lifecycle ---------------------------------------------------------

    def spawn(self) -> None:
        """Start every replica's pool and queue its readiness barrier.

        Returns immediately; :meth:`await_ready` collects the barriers, so
        a multi-shard engine can overlap the (container-loading) startup of
        all its workers.
        """
        self._ready = []
        for replica in self.replicas:
            replica.pool = self._spawn()
            self._ready.append(
                (
                    replica,
                    replica.pool.submit(_worker_ready),
                    replica.pool.submit(_worker_call, "applied_seq", self._backend),
                )
            )

    def await_ready(self) -> None:
        """Block until every replica has loaded its shard and replayed."""
        ready, self._ready = self._ready, []
        for replica, barrier, applied in ready:
            barrier.result()
            seq = int(applied.result())
            with self._lock:
                replica.applied_seq = seq
                replica.state = LIVE
        if self._wal is not None:
            # Replay may cover history the (truncated) log file no longer
            # holds; restore the lineage numbering from the replicas' view.
            with self._lock:
                top = max(
                    (r.applied_seq for r in self.replicas if r.state == LIVE),
                    default=0,
                )
            self._wal.resume_from(top)

    def close(self) -> None:
        with self._lock:
            pools = [r.pool for r in self.replicas if r.pool is not None]
            for replica in self.replicas:
                replica.state = DEAD
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- routing -----------------------------------------------------------

    def _pick(self, min_seq: int = 0) -> Replica:
        """The least-loaded live replica whose state covers ``min_seq``.

        When no live replica has caught up with the caller's session token
        the most-caught-up one is used (best effort beats a refusal: the
        token names acknowledged history, and the fallback replica is the
        closest any live replica gets to it).
        """
        with self._lock:
            live = [r for r in self.replicas if r.state == LIVE]
            if not live:
                raise ShardWorkerError(
                    self.shard_id,
                    f"no live replica ({len(self.replicas)} configured, all down)",
                )
            caught_up = [r for r in live if r.applied_seq >= min_seq]
            candidates = caught_up or [max(live, key=lambda r: r.applied_seq)]
            replica = min(candidates, key=lambda r: r.in_flight)
            replica.in_flight += 1
            return replica

    def _release(self, replica: Replica) -> None:
        with self._lock:
            if replica.in_flight > 0:
                replica.in_flight -= 1

    def _mark_dead(self, replica: Replica) -> None:
        with self._lock:
            if replica.state == DEAD:
                return
            replica.state = DEAD
        if self._on_death is not None:
            self._on_death()

    def _note_failover(self) -> None:
        if self._on_failover is not None:
            self._on_failover()

    def submit(self, fn: Callable, *args: Any, min_seq: int = 0) -> RoutedFuture:
        """Route one read to a live replica; raises ShardWorkerError when
        the set has none left."""
        return RoutedFuture(self, fn, args, min_seq)

    def broadcast(self, fn: Callable, *args: Any) -> list[Any]:
        """Run a task on every live replica, collecting the results; a
        replica found dead is marked so and contributes nothing."""
        with self._lock:
            targets = [r for r in self.replicas if r.state == LIVE]
        results: list[Any] = []
        for replica in targets:
            try:
                results.append(replica.pool.submit(fn, *args).result())
            except (BrokenProcessPool, CancelledError, RuntimeError):
                self._mark_dead(replica)
        return results

    # -- write path --------------------------------------------------------

    def apply(self, local_ops: Sequence[dict], durability: str | None = None) -> dict:
        """Apply one sub-batch to every live replica, then log it.

        Apply-then-log: the batch is fanned out to the live replicas first
        and appended to the shared WAL only after at least one applied it,
        so the log never acknowledges history no replica holds.  A replica
        that dies mid-write is marked dead (the supervisor will respawn and
        re-converge it through the log); the write succeeds while any
        replica lives.  Deterministic validation failures (the engine
        rejects the batch before touching state) are re-raised unlogged.
        """
        level = (
            durability
            if durability is not None
            else ("wal" if self._wal is not None else "memory")
        )
        if level not in DURABILITY_LEVELS:
            expected = ", ".join(DURABILITY_LEVELS)
            raise ValueError(f"unknown durability level {level!r} (expected {expected})")
        if level == "wal" and self._wal is None:
            raise ValueError(
                "durability level 'wal' requires a write-ahead log (pass wal_dir)"
            )
        local_ops = list(local_ops)
        wire_ops: list[dict] | None = None
        if self._wal is not None:
            # Encode before fan-out: an unencodable record must fail the
            # batch before any replica applies it.
            try:
                wire_ops = [op_to_wire(self._backend_obj, op) for op in local_ops]
            except ValueError:
                raise
            except Exception as exc:
                raise ValueError(f"unencodable mutation record: {exc}") from exc
        with self._write_lock:
            seq = self._wal.last_seq + 1 if self._wal is not None else None
            with self._lock:
                targets = [r for r in self.replicas if r.state == LIVE]
            if not targets:
                raise ShardWorkerError(self.shard_id, "no live replica to accept writes")
            submitted: list[tuple[Replica, Future]] = []
            for replica in targets:
                try:
                    submitted.append(
                        (replica, replica.pool.submit(_worker_apply, local_ops, seq))
                    )
                except (BrokenProcessPool, RuntimeError):
                    self._mark_dead(replica)
            outcome: dict | None = None
            invalid: ValueError | None = None
            applied: list[Replica] = []
            for replica, future in submitted:
                try:
                    result = future.result()
                except (BrokenProcessPool, CancelledError):
                    self._mark_dead(replica)
                    continue
                except ValueError as exc:
                    # The engine validates the whole batch before touching
                    # state, deterministically -- every sibling rejects too.
                    invalid = exc
                    continue
                outcome = result
                applied.append(replica)
                if seq is not None:
                    with self._lock:
                        replica.applied_seq = max(replica.applied_seq, seq)
            if invalid is not None:
                # A replica that applied a batch its siblings rejected has
                # diverged from the lineage; force it back through replay.
                for replica in applied:
                    self._mark_dead(replica)
                raise invalid
            if outcome is None:
                raise ShardWorkerError(self.shard_id, "every replica died mid-write")
            if self._wal is not None:
                appended = self._wal.append(
                    self._backend, wire_ops, sync=(level == "wal")
                )
                if appended != seq:
                    raise RuntimeError(
                        f"WAL lineage corrupted: assigned seq {seq} but the "
                        f"log appended at {appended}"
                    )
        return {"results": outcome["results"], "durability": level, "wal_seq": seq}

    # -- respawn / readmission ---------------------------------------------

    def respawn(self, replica: Replica) -> Replica:
        """Replace one replica's worker process and re-converge its state.

        The fresh worker reloads the shard container, replays the shared
        WAL past its checkpoint, and is readmitted (state ``live``) only
        once its ``applied_seq`` has caught up with the lineage.
        """
        with self._lock:
            replica.state = RESPAWNING
        old = replica.pool
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        pool = self._spawn()
        with self._lock:
            replica.pool = pool
            replica.generation += 1
        try:
            pool.submit(_worker_ready).result()
            seq = int(pool.submit(_worker_call, "applied_seq", self._backend).result())
        except (BrokenProcessPool, RuntimeError) as exc:
            self._mark_dead(replica)
            raise ShardWorkerError(
                self.shard_id, f"replica {replica.index} failed to respawn ({exc})"
            ) from exc
        with self._lock:
            replica.applied_seq = seq
            replica.state = CATCHING_UP
        return self._readmit(replica)

    def _readmit(self, replica: Replica, max_rounds: int = 64) -> Replica:
        """Catch a replica up with the WAL lineage, then mark it live.

        Catch-up replays happen off the write lock (writes keep flowing);
        only the final replay -- bounded by whatever the last unlocked
        round left over -- holds ``_write_lock``, so the replica rejoins
        with *exactly* the lineage state and no write can land in between.
        """
        try:
            if self._wal is not None:
                replay = (_worker_call, "replay_wal", self._backend, self._wal.path)
                applied = int(
                    replica.pool.submit(_worker_call, "applied_seq", self._backend).result()
                )
                rounds = 0
                while applied < self._wal.last_seq and rounds < max_rounds:
                    applied = int(replica.pool.submit(*replay).result()["applied_seq"])
                    rounds += 1
                with self._write_lock:
                    result = replica.pool.submit(*replay).result()
                    with self._lock:
                        replica.applied_seq = int(result["applied_seq"])
                        replica.state = LIVE
            else:
                with self._lock:
                    replica.state = LIVE
        except (BrokenProcessPool, CancelledError, RuntimeError) as exc:
            self._mark_dead(replica)
            raise ShardWorkerError(
                self.shard_id,
                f"replica {replica.index} died during readmission ({exc})",
            ) from exc
        return replica

    def heal(self) -> None:
        """Respawn every dead replica (the supervisor's per-tick sweep).

        Also notices replicas whose process was killed but whose pool has
        not yet observed the death (nothing was submitted since the kill).
        """
        for replica in self.replicas:
            with self._lock:
                needs = replica.state == DEAD or (
                    replica.state == LIVE and not replica.process_alive()
                )
            if not needs:
                continue
            try:
                self.respawn(replica)
            except ShardWorkerError:
                pass  # still dead: the next sweep retries

    # -- compaction --------------------------------------------------------

    @property
    def compacting(self) -> bool:
        with self._lock:
            return self._compacting

    def compact(self, persist_dir: str | None) -> dict:
        """Compact the set's replicas; rolling when there are siblings.

        With one replica this is the classic in-place compaction.  With
        more, replicas are drained and compacted one at a time while the
        siblings keep serving reads *and writes* -- the write path never
        waits on a rebuild, only on the readmission's atomic section.  The
        first successfully compacted replica checkpoints its container into
        ``persist_dir`` (when given), after which the shared WAL is
        truncated up to the checkpoint.
        """
        with self._lock:
            if self._compacting:
                raise RuntimeError(
                    f"compaction already in progress for shard {self.shard_id}"
                )
            self._compacting = True
        try:
            return self._compact_impl(persist_dir)
        finally:
            with self._lock:
                self._compacting = False

    def _compact_impl(self, persist_dir: str | None) -> dict:
        with self._lock:
            targets = [r for r in self.replicas if r.state == LIVE]
        if not targets:
            raise ShardWorkerError(self.shard_id, "no live replica to compact")
        rolling = len(self.replicas) > 1
        summary: dict | None = None
        checkpoint_seq: int | None = None
        compacted = 0
        for replica in targets:
            drained = False
            if rolling:
                with self._lock:
                    if replica.state != LIVE:
                        continue
                    if any(r is not replica and r.state == LIVE for r in self.replicas):
                        # The pool is single-worker, so queued reads drain
                        # ahead of the compaction task; new reads skip this
                        # replica.
                        replica.state = DRAINING
                        drained = True
                    # Otherwise this is the only live replica (a sibling
                    # died or is still being respawned): compact it
                    # *undrained* so reads and writes keep landing -- they
                    # queue behind the rebuild instead of finding zero live
                    # replicas.  Degraded-mode latency beats unavailability.
            persist = persist_dir if summary is None else None
            try:
                result = replica.pool.submit(_worker_compact_and_save, persist).result()
            except (BrokenProcessPool, CancelledError, RuntimeError):
                self._mark_dead(replica)
                continue
            if result.get("checkpointed"):
                checkpoint_seq = int(result["checkpoint_seq"])
            if summary is None:
                summary = dict(result)
            compacted += 1
            if drained:
                try:
                    self._readmit(replica)
                except ShardWorkerError:
                    continue
        if summary is None:
            raise ShardWorkerError(
                self.shard_id, "every replica died during compaction"
            )
        if self._wal is not None and checkpoint_seq:
            self._wal.truncate_upto(checkpoint_seq)
        summary["rolling"] = rolling
        summary["replicas_compacted"] = compacted
        return summary

    # -- introspection -----------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The shard's parent-owned log (its ``path`` is the lineage file)."""
        return self._wal

    def status(self) -> list[dict]:
        """Per-replica state for ``/stats`` and ``shard_health()``.

        A replica whose process was killed but not yet noticed by its pool
        is reported ``dead`` (the supervisor will get to it); the internal
        state is left for the supervisor to transition.
        """
        entries: list[dict] = []
        with self._lock:
            for replica in self.replicas:
                state = replica.state
                if state == LIVE and not replica.process_alive():
                    state = DEAD
                entries.append(
                    {
                        "replica": replica.index,
                        "state": state,
                        "pid": replica.pid(),
                        "applied_seq": replica.applied_seq,
                        "in_flight": replica.in_flight,
                        "generation": replica.generation,
                    }
                )
        return entries
