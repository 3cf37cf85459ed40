"""Per-shard replication: N worker processes sharing one WAL lineage.

:class:`repro.engine.sharding.ShardedEngine` historically ran exactly one
worker process per shard, so a SIGKILL'd worker was a 503 until someone
called ``respawn_shard()`` by hand.  This module supplies the
fault-tolerance layer that turns each shard into a *replica set*:

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
* **One compaction, one checkpoint**: ``compact()`` folds every live
  replica in place, in its worker, through :meth:`SearchEngine.compact`
  (the folds overlap; writes wait behind them, as on one replica).  Then
  exactly one replica checkpoints the shard container under the write
  lock and the shared WAL is truncated there -- the same
  :meth:`ReplicaSet.checkpoint` that :meth:`ShardedEngine.flush` calls.
* **One pipe per worker** (:class:`_PipeWorker`): each replica is one
  process, started once, behind one duplex pipe.  A call is one pickled
  ``(fn, args)`` frame; the single-threaded worker answers in order, so a
  reader thread resolves the callers' futures FIFO.  End of file on the
  pipe is the one sign of a dead replica (:class:`_WorkerDied`); a worker
  exception comes back as that exception and leaves the replica live.

Lock order (a :mod:`repro.analysis` lock-discipline invariant): a thread
may take ``ReplicaSet._write_lock`` -> ``ReplicaSet._lock`` ->
``WriteAheadLog._lock``, never the reverse.  The transport's own locks
(``_SPAWN_LOCK`` and each worker's ``_send_lock``) are leaves: nothing else
is taken while they are held, and futures resolve outside them.

The functions under the "Worker side" marker, and :func:`_worker_main`,
run *inside* the worker processes (module-level so they pickle across
the process boundary).
"""

from __future__ import annotations

import gc
import pickle
import signal
import threading
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from repro.common import diag
from repro.engine.api import Query
from repro.engine.backend import get_backend
from repro.engine.wal import WriteAheadLog, op_to_wire

#: Replica lifecycle states, in the order a healthy respawn walks them.
LIVE = "live"
DEAD = "dead"
RESPAWNING = "respawning"
CATCHING_UP = "catching-up"

REPLICA_STATES = (LIVE, DEAD, RESPAWNING, CATCHING_UP)


class ShardWorkerError(RuntimeError):
    """A shard has no replica able to answer (all workers died mid-call).

    Carries the failing ``shard_id`` so callers -- the network serving layer
    maps this to a 503 -- can report which partition of the id space is down
    rather than surfacing a bare pipe EOF.
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
    # included.  The parent still holds ThreadPoolExecutors (the mutate
    # fan-out, the server's executor) and other objects whose finalisers
    # take locks another parent thread may have held at the fork:
    # collecting one here would hang the worker inside the collector,
    # mid-query.  Freezing keeps everything inherited out of this process's
    # collections.
    gc.freeze()
    engine = SearchEngine(cache_size=cache_size)
    container = engine.load_index(shard_dir)
    backend_name = container.backend.name
    if wal_path is not None:
        engine.replay_wal(backend_name, wal_path)
    _WORKER["engine"] = engine
    _WORKER["offset"] = offset
    _WORKER["backend"] = backend_name


def _worker_search(query: Query) -> dict:
    """Answer one query on this worker's shard; ids come back global."""
    return _part(_WORKER["engine"].search(query), _WORKER["offset"])


def _part(response: Any, offset: int) -> dict:
    """One shard's answer to one query, as the parent merges it."""
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


def _worker_call(method: str, *args: Any) -> Any:
    """Run one method of the worker's engine: the generic IPC entry point
    for everything that only forwards (info, replay, fold, save, metrics)."""
    return getattr(_WORKER["engine"], method)(*args)


def _worker_apply(ops: Sequence[dict], seq: int | None) -> dict:
    """Apply one parent-routed sub-batch and record the lineage seq it covers.

    The worker holds no WAL (the parent owns the lineage), so the engine
    applies at memory durability; the parent provides durability by
    appending the batch to the shared log after at least one replica
    succeeded.  The ack carries the shard's two auto-compaction inputs:
    its delta size and its funnel's ``avg_generated``.
    """
    engine = _WORKER["engine"]
    backend = _WORKER["backend"]
    outcome = engine.mutate(backend, list(ops), None)
    if seq is not None:
        engine.advance_applied_seq(backend, seq)
    outcome["delta_records"] = len(engine.delta(backend).records)
    outcome["avg_generated"] = engine.stats.avg_generated(backend)
    return outcome


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
# Transport: one process and one duplex pipe per replica
# ---------------------------------------------------------------------------

_PICKLE = pickle.HIGHEST_PROTOCOL
#: How long a stopping worker (and then its reader) gets before it is
#: terminated; a worker answers its queued calls before the stop frame.
_STOP_JOIN_S = 2.0

# The parent end of every open worker pipe.  _SPAWN_LOCK guards the list
# and covers each pipe's creation, the fork and the close of the child end
# in the parent: a sibling forked meanwhile would inherit a live child end
# and hide the worker's death (its EOF) from the parent forever.  Under
# fork a new worker closes every parent end it inherited -- the list is
# exact because it was taken under the lock -- so that a stop frame or a
# parent exit reaches each worker as end of file.
_SPAWN_LOCK = threading.Lock()
_PARENT_ENDS: list[Any] = []


class _WorkerDied(Exception):
    """The worker's pipe reached end of file: the replica's process is gone."""


def _worker_main(conn: Any, initargs: tuple) -> None:
    """A worker's life: load the shard, then answer frames in order.

    Every call frame gets exactly one reply frame -- the result, or the
    exception it raised (a :class:`RuntimeError` carrying its ``repr`` when
    the exception cannot cross the pipe) -- so the parent's FIFO matching
    always holds.  An empty frame or end of file stops the worker.  A
    failed load exits the process, which the parent sees as a death.
    """
    for end in _PARENT_ENDS:  # inherited under fork, this pipe's own included
        end.close()
    _PARENT_ENDS.clear()
    # A forked worker also inherits the server's signal handling, whose
    # wakeup fd is the parent's event loop: a SIGTERM meant for this worker
    # would stop the server.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _init_worker(*initargs)
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not frame:
            return
        try:
            fn, args = pickle.loads(frame)
            reply = (True, fn(*args))
        except Exception as exc:  # an interrupt or exit ends the worker instead
            reply = (False, exc)
        try:
            payload = pickle.dumps(reply, _PICKLE)
            if not reply[0]:
                pickle.loads(payload)  # some exceptions pickle but cannot rebuild
        except Exception:
            error = RuntimeError(f"worker reply cannot be pickled: {reply[1]!r}")
            payload = pickle.dumps((False, error), _PICKLE)
        try:
            conn.send_bytes(payload)
        except OSError:  # the parent is gone
            return


class _PipeWorker:
    """One worker process and the parent's end of its duplex pipe.

    :meth:`submit` pickles ``(fn, args)`` and sends it as one frame from the
    calling thread; one reader thread per worker reads the reply frames and
    resolves the pending futures in FIFO order.  End of file (or an
    ``OSError``) on the pipe fails every pending and later call with
    :class:`_WorkerDied`.  Only the reader ever closes the connection, and
    only after end of file, so no thread closes a pipe another is reading.
    """

    def __init__(self, context: Any, initargs: tuple):
        with _SPAWN_LOCK:
            conn, child_end = context.Pipe()
            _PARENT_ENDS.append(conn)
            try:
                self.process = context.Process(
                    target=_worker_main,
                    args=(child_end, initargs),
                    name="shard-worker",
                    daemon=True,
                )
                self.process.start()
            except BaseException:
                _PARENT_ENDS.remove(conn)
                conn.close()
                raise
            finally:
                child_end.close()
        self._conn = conn
        # _send_lock covers the dead check, the append to the pending FIFO
        # and the frame's send, so the FIFO holds the calls in the order the
        # worker reads them; it is a leaf (futures resolve outside it).  The
        # reader never takes it while replies flow: it pops the FIFO's head
        # unlocked (deque append and popleft are atomic, and a call is
        # appended before its frame is sent).  So a send blocked on a full
        # pipe never holds up the replies that let the worker read on.
        self._send_lock = threading.Lock()
        self._pending: deque[Future] = deque()
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_replies, name="replica-reader", daemon=True
        )
        self._reader.start()

    def submit(self, fn: Callable, *args: Any) -> Future:
        frame = pickle.dumps((fn, args), _PICKLE)
        future: Future = Future()
        with self._send_lock:
            if self._dead:
                raise _WorkerDied(f"worker {self.process.pid} is gone (pipe EOF)")
            self._pending.append(future)
            try:
                self._conn.send_bytes(frame)
            except OSError:
                pass  # the worker is gone: the reader's EOF fails the future
        return future

    def _read_replies(self) -> None:
        try:
            while True:
                frame = self._conn.recv_bytes()
                try:
                    ok, value = pickle.loads(frame)
                except Exception as exc:
                    ok, value = False, RuntimeError(f"unreadable worker reply: {exc!r}")
                future = self._pending.popleft()
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
        except EOFError:
            pass
        except OSError:
            # The pipe failed with the worker perhaps still running: end it,
            # so that a send blocked on the full pipe fails too.
            self.process.kill()
        finally:
            # The worker's end is closed, so a send in progress fails fast;
            # taking the lock waits for it and makes later submits see dead.
            with self._send_lock:
                self._dead = True
                pending, self._pending = self._pending, deque()
            with _SPAWN_LOCK:
                _PARENT_ENDS.remove(self._conn)
                self._conn.close()
            for future in pending:
                future.set_exception(_WorkerDied(f"worker {self.process.pid} died (pipe EOF)"))

    def close(self) -> None:
        """Stop the worker with a stop frame (it answers its queued calls
        first), terminate it if it does not exit in time, reap it, and wait
        for the reader to see end of file."""
        # A send that cannot get the lock in time is stuck behind a full pipe
        # to a worker that reads no more: go straight to terminate.
        if self._send_lock.acquire(timeout=_STOP_JOIN_S):
            try:
                if not self._dead:
                    self._conn.send_bytes(b"")
            except OSError:
                pass
            finally:
                self._send_lock.release()
        self.process.join(_STOP_JOIN_S)
        if self.process.exitcode is None:
            self.process.terminate()
            self.process.join(_STOP_JOIN_S)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self._reader.join(_STOP_JOIN_S)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class Replica:
    """One replica slot of a shard: a pipe worker plus routing state.

    All mutable fields are guarded by the owning :class:`ReplicaSet`'s
    ``_lock``; the object itself holds no lock so it can live in
    ``__slots__``-sized numbers.
    """

    __slots__ = ("index", "worker", "state", "applied_seq", "in_flight", "generation")

    def __init__(self, index: int):
        self.index = index
        self.worker: _PipeWorker | None = None
        self.state = RESPAWNING
        self.applied_seq = 0
        self.in_flight = 0
        self.generation = 0

    def pid(self) -> int | None:
        """The worker process id, or None before the process exists."""
        return self.worker.process.pid if self.worker is not None else None

    def process_alive(self) -> bool:
        """Whether the worker process is actually running.

        A SIGKILL'd worker is only noticed by its reader once the pipe
        reaches end of file, so liveness checks ask the OS.
        """
        return self.worker is not None and self.worker.process.is_alive()


class RoutedFuture:
    """A read routed to one live replica, retried on siblings if it dies.

    Submission picks the least-loaded live replica satisfying the caller's
    ``min_seq`` (read-your-writes) constraint; if the replica's process dies
    before the result lands, the call is resubmitted to a sibling.  Only
    when *no* live replica remains does :meth:`result` raise
    :class:`ShardWorkerError` -- a replica death is invisible to the caller
    while any sibling lives.
    """

    __slots__ = ("_rset", "_fn", "_args", "_min_seq", "_replica", "_worker", "_future")

    def __init__(self, rset: "ReplicaSet", fn: Callable, args: tuple, min_seq: int = 0):
        self._rset = rset
        self._fn = fn
        self._args = args
        self._min_seq = min_seq
        self._submit()

    def _submit(self) -> None:
        while True:
            replica, worker = self._rset._pick(self._min_seq)
            try:
                future = worker.submit(self._fn, *self._args)
            except _WorkerDied:
                self._rset._release(replica)
                self._rset._mark_dead(replica, worker)
                continue
            except BaseException:
                self._rset._release(replica)
                raise
            self._replica = replica
            self._worker = worker
            self._future = future
            future.add_done_callback(lambda _f, r=replica: self._rset._release(r))
            return

    def result(self, timeout: float | None = None) -> Any:
        while True:
            try:
                return self._future.result(timeout)
            except _WorkerDied:
                self._rset._mark_dead(self._replica, self._worker)
                self._rset._note_failover()
                self._submit()


class ReplicaSet:
    """N replicas of one shard behind a single write path and WAL lineage.

    Args:
        shard_id: the shard this set serves (only used in error messages
            and summaries).
        spawn: zero-argument factory starting a fresh :class:`_PipeWorker`
            whose process loads the shard.
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
        spawn: Callable[[], _PipeWorker],
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
        self._ready: list[tuple[Replica, Future]] = []

    # -- lifecycle ---------------------------------------------------------

    def spawn(self) -> None:
        """Start every replica's worker and queue its readiness barrier.

        Returns immediately; :meth:`await_ready` collects the barriers, so
        a multi-shard engine can overlap the (container-loading) startup of
        all its workers.  A worker answers only once its shard is loaded
        and replayed, so its first call is the barrier.
        """
        self._ready = []
        for replica in self.replicas:
            replica.worker = self._spawn()
            self._ready.append(
                (replica, replica.worker.submit(_worker_call, "applied_seq", self._backend))
            )

    def await_ready(self) -> None:
        """Block until every replica has loaded its shard and replayed."""
        ready, self._ready = self._ready, []
        for replica, applied in ready:
            try:
                seq = int(applied.result())
            except _WorkerDied as exc:
                raise ShardWorkerError(
                    self.shard_id, f"replica {replica.index} failed to start ({exc})"
                ) from exc
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
        """Stop every worker (each answers its queued calls first) and reap it."""
        with self._lock:
            workers = [r.worker for r in self.replicas if r.worker is not None]
            for replica in self.replicas:
                replica.state = DEAD
        for worker in workers:
            worker.close()

    # -- routing -----------------------------------------------------------

    def _pick(self, min_seq: int = 0) -> tuple[Replica, _PipeWorker]:
        """The least-loaded live replica whose state covers ``min_seq``,
        with its worker as of the pick (a respawn may swap it right after).

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
            return replica, replica.worker

    def _release(self, replica: Replica) -> None:
        with self._lock:
            if replica.in_flight > 0:
                replica.in_flight -= 1

    def _mark_dead(self, replica: Replica, worker: _PipeWorker | None) -> None:
        """Mark ``replica`` dead for the death of ``worker``; a no-op when
        the replica is dead already, is being respawned, or has since got a
        new worker."""
        with self._lock:
            if replica.state in (DEAD, RESPAWNING) or replica.worker is not worker:
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
        """Run a task on every live replica at once, collecting the results
        in replica order; a replica found dead is marked so and contributes
        nothing.  An exception the task raised inside a worker is re-raised:
        it is the task's failure, not the replica's."""
        with self._lock:
            targets = [(r, r.worker) for r in self.replicas if r.state == LIVE]
        calls: list[tuple[Replica, _PipeWorker, Future]] = []
        for replica, worker in targets:
            try:
                calls.append((replica, worker, worker.submit(fn, *args)))
            except _WorkerDied:
                self._mark_dead(replica, worker)
        results: list[Any] = []
        for replica, worker, future in calls:
            try:
                results.append(future.result())
            except _WorkerDied:
                self._mark_dead(replica, worker)
        return results

    # -- write path --------------------------------------------------------

    def apply(self, local_ops: Sequence[dict], level: str) -> dict:
        """Apply one sub-batch to every live replica, then log it at ``level``.

        Apply-then-log: the batch is fanned out to the live replicas first
        and appended to the shared WAL only after at least one applied it,
        so the log never acknowledges history no replica holds.  A replica
        that dies mid-write is marked dead (the supervisor will respawn and
        re-converge it through the log); the write succeeds while any
        replica lives.  Deterministic validation failures (the engine
        rejects the batch before touching state) are re-raised unlogged.
        ``level`` is already resolved by :func:`repro.engine.wal.
        resolve_durability`; the ack carries the applying replica's delta
        size and ``avg_generated`` (the auto-compaction inputs).
        """
        local_ops = list(local_ops)
        wire_ops: list[dict] | None = None
        if self._wal is not None:
            # Encode before fan-out: an unencodable record must fail the
            # batch before any replica applies it.
            wire_ops = [op_to_wire(self._backend_obj, op) for op in local_ops]
        with self._write_lock:
            seq = self._wal.last_seq + 1 if self._wal is not None else None
            with self._lock:
                targets = [(r, r.worker) for r in self.replicas if r.state == LIVE]
            if not targets:
                raise ShardWorkerError(self.shard_id, "no live replica to accept writes")
            submitted: list[tuple[Replica, _PipeWorker | None, Future]] = []
            for replica, worker in targets:
                try:
                    submitted.append(
                        (replica, worker, worker.submit(_worker_apply, local_ops, seq))
                    )
                except _WorkerDied:
                    self._mark_dead(replica, worker)
            outcome: dict | None = None
            invalid: ValueError | None = None
            applied: list[tuple[Replica, _PipeWorker | None]] = []
            for replica, worker, future in submitted:
                try:
                    result = future.result()
                except _WorkerDied:
                    self._mark_dead(replica, worker)
                    continue
                except ValueError as exc:
                    # The engine validates the whole batch before touching
                    # state, deterministically -- every sibling rejects too.
                    invalid = exc
                    continue
                outcome = result
                applied.append((replica, worker))
                if seq is not None:
                    with self._lock:
                        replica.applied_seq = max(replica.applied_seq, seq)
            if invalid is not None:
                # A replica that applied a batch its siblings rejected has
                # diverged from the lineage; force it back through replay.
                for replica, worker in applied:
                    self._mark_dead(replica, worker)
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
        # The worker's own ack (memory level, no seq), restated for the lineage.
        return {**outcome, "durability": level, "wal_seq": seq}

    # -- respawn / readmission ---------------------------------------------

    def respawn(self, replica: Replica) -> Replica:
        """Replace one replica's worker process and re-converge its state.

        The fresh worker reloads the shard container, replays the shared
        WAL past its checkpoint, and is readmitted (state ``live``) only
        once its ``applied_seq`` has caught up with the lineage.  While
        ``respawning`` the old worker is stopped and deaths reported for it
        are ignored; the new one is ``catching-up`` from its first call.
        """
        with self._lock:
            replica.state = RESPAWNING
            old = replica.worker
        if old is not None:
            old.close()
        worker = self._spawn()
        with self._lock:
            replica.worker = worker
            replica.generation += 1
            replica.state = CATCHING_UP
        try:
            seq = int(worker.submit(_worker_call, "applied_seq", self._backend).result())
        except Exception as exc:
            self._mark_dead(replica, worker)
            raise ShardWorkerError(
                self.shard_id, f"replica {replica.index} failed to respawn ({exc!r})"
            ) from exc
        with self._lock:
            replica.applied_seq = seq
        return self._readmit(replica)

    def _readmit(self, replica: Replica, max_rounds: int = 64) -> Replica:
        """Catch a replica up with the WAL lineage, then mark it live.

        Catch-up replays happen off the write lock (writes keep flowing);
        only the final replay -- bounded by whatever the last unlocked
        round left over -- holds ``_write_lock``, so the replica rejoins
        with *exactly* the lineage state and no write can land in between.

        A replica that cannot rejoin -- its worker died, a replay raised
        inside it and left its state unknown, or it loaded a container
        older than the checkpoint the log was since truncated at -- is
        marked dead, so the supervisor's next sweep respawns it (from the
        new checkpoint) rather than leaving it out of service in
        ``catching-up`` or serving without the truncated batches.
        """
        worker = replica.worker
        try:
            if self._wal is not None:
                replay = (_worker_call, "replay_wal", self._backend, self._wal.path)
                applied = int(worker.submit(_worker_call, "applied_seq", self._backend).result())
                rounds = 0
                while applied < self._wal.last_seq and rounds < max_rounds:
                    applied = int(worker.submit(*replay).result()["applied_seq"])
                    rounds += 1
                with self._write_lock:
                    applied = int(worker.submit(*replay).result()["applied_seq"])
                    if applied < self._wal.last_seq:
                        # A checkpoint truncated the log past the container
                        # this worker loaded: only a fresh load catches up.
                        raise RuntimeError(
                            f"at seq {applied}, the log was truncated past it "
                            f"(head {self._wal.last_seq})"
                        )
                    with self._lock:
                        replica.applied_seq = applied
                        replica.state = LIVE
            else:
                with self._lock:
                    replica.state = LIVE
        except Exception as exc:
            self._mark_dead(replica, worker)
            raise ShardWorkerError(
                self.shard_id,
                f"replica {replica.index} failed readmission ({exc!r})",
            ) from exc
        return replica

    def heal(self) -> None:
        """Respawn every dead replica (the supervisor's per-tick sweep).

        Also notices replicas whose process was killed but whose reader has
        not yet seen the pipe's end of file.
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
        """Fold every live replica in place, then checkpoint one of them.

        The fold is :meth:`SearchEngine.compact`, broadcast to the live
        replicas; the workers are separate processes, so the folds overlap,
        and a write waits behind the fold in each worker as it does on one
        replica.  A replica that dies mid-fold is marked dead (the
        supervisor respawns it from the new checkpoint plus the WAL tail).
        When something was folded and ``persist_dir`` is given,
        :meth:`checkpoint` saves one replica there and truncates the WAL.
        """
        with self._lock:
            if self._compacting:
                raise RuntimeError(
                    f"compaction already in progress for shard {self.shard_id}"
                )
            self._compacting = True
        try:
            try:
                folds = self.broadcast(_worker_call, "compact", self._backend)
            except ValueError as exc:
                # Every record of this shard is deleted; the overlay stays
                # (searches keep answering correctly through the tombstones).
                return {"backend": self._backend, "compacted": False, "error": str(exc)}
            if not folds:
                raise ShardWorkerError(self.shard_id, "no live replica to compact")
            summary = dict(folds[0], replicas_compacted=sum(f["compacted"] for f in folds))
            if persist_dir is not None and summary["compacted"]:
                self.checkpoint(persist_dir)
                summary["checkpointed"] = True
            return summary
        finally:
            with self._lock:
                self._compacting = False

    def checkpoint(self, directory: str) -> tuple[dict, int]:
        """The one checkpoint of a shard: save one live replica into the
        container ``directory``, then truncate the shared WAL at the seq it
        saved.  Returns the container manifest and the shard's ``num_live``.

        Like :meth:`SearchEngine.save_index`, it holds the write lock across
        the save, so the saved state, its ``num_live`` and the truncation
        agree, and two checkpoints (a compaction's and a flush) never write
        one container at once.
        """
        with self._write_lock:
            with self._lock:
                targets = [(r, r.worker) for r in self.replicas if r.state == LIVE]
            for replica, worker in targets:
                try:
                    saved = worker.submit(_worker_call, "save_index", self._backend, directory)
                    info = worker.submit(_worker_call, "mutation_info", self._backend)
                    manifest, num_live = saved.result(), int(info.result()["num_live"])
                except _WorkerDied:
                    self._mark_dead(replica, worker)
                    continue
                if self._wal is not None and manifest["wal_seq"]:
                    self._wal.truncate_upto(int(manifest["wal_seq"]))
                return manifest, num_live
        raise ShardWorkerError(self.shard_id, "no live replica to checkpoint")

    # -- introspection -----------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The shard's parent-owned log (its ``path`` is the lineage file)."""
        return self._wal

    def status(self) -> list[dict]:
        """Per-replica state for ``/stats`` and ``shard_health()``.

        A replica whose process was killed but not yet noticed by its reader
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
