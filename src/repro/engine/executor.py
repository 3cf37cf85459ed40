"""The query execution layer: one engine, four domains.

:class:`SearchEngine` owns the attached domain stores and answers
:class:`repro.engine.api.Query` objects through the backend registry.  It
adds the serving-layer machinery the per-domain searchers do not have:

* a **searcher cache** -- searcher construction (per algorithm / tau / chain
  length) happens once and is reused across queries;
* an **LRU result cache** keyed on ``(backend, query, tau, chain_length,
  algorithm, k)`` plus the store and mutation epochs, so a mutation can
  never serve a stale answer;
* **online mutation** -- :meth:`SearchEngine.mutate` applies a batch of
  upserts/deletes to a per-backend :class:`repro.engine.mutation.DeltaStore`
  (delta records answered by exact linear scan, tombstones filtered from
  main answers), and :meth:`SearchEngine.compact` folds the overlay into a
  rebuilt main index;
* **durability** -- :meth:`SearchEngine.attach_wal` puts a write-ahead log
  (:mod:`repro.engine.wal`) under the mutation path: batches are appended
  and fsynced before the caller is acknowledged (``durability="wal"``),
  replayed into the overlay on attach, and truncated at every checkpoint
  (:meth:`SearchEngine.save_index` or a compaction swap);
  :meth:`SearchEngine.enable_auto_compaction` arms a background
  delta-size/scan-cost crossover policy that compacts off the write path;
* **latency statistics** per backend, computed from the
  :class:`repro.common.obs.MetricsRegistry` (one code path feeds
  ``/stats``, ``/metrics`` and the funnel aggregates); and
* **top-k search** delegated to :mod:`repro.engine.topk`.

The engine meets the :class:`repro.engine.api.Engine` contract, the surface
it shares with :class:`repro.engine.sharding.ShardedEngine`.

The engine is thread-safe: shared state is touched only under an internal
lock, which is never held while a searcher runs.  Mutations are atomic
(copy-on-write overlays swapped under the lock) and writers are serialised
per backend by a dedicated writer lock, so WAL order always matches apply
order.  Compaction rebuilds off the write path: mutations that land during
the rebuild are buffered and replayed onto the compacted overlay at the
swap, so no acknowledged write is ever lost to a racing compaction.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Any, Hashable, Sequence

import numpy as np

from repro.common import obs
from repro.common.obs import MetricsRegistry, span
from repro.common.stats import Timer
from repro.engine import backends as _backends  # noqa: F401 - populate registry
from repro.engine.api import Query, Response
from repro.engine.backend import Backend, get_backend
from repro.engine.mutation import DeltaStore, check_ops
from repro.engine.persistence import Container, load_container, save_container
from repro.engine.topk import run_topk
from repro.engine.wal import (
    AutoCompactionPolicy,
    BackgroundCompactor,
    WriteAheadLog,
    op_from_wire,
    op_to_wire,
    replay_batches,
    resolve_durability,
    write_path_info,
)

#: Most searchers (one built index per backend, store epoch, algorithm, tau
#: and chain length) an engine keeps; the least recently used is dropped
#: beyond it, so a client sweeping thresholds cannot pin an index per value.
MAX_SEARCHERS = 32


class EngineStats:
    """Aggregate serving statistics of one :class:`SearchEngine`.

    Counters track *served* tau-selections: a top-k query contributes its
    escalation rungs (each an ordinary engine search) rather than being
    counted again as an aggregate; cache hit/miss counters cover every
    request, including top-k aggregates.

    All numbers live in a :class:`repro.common.obs.MetricsRegistry`;
    :meth:`snapshot` is computed from it, so ``/stats``, ``/metrics`` and
    the funnel averages can never disagree.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._queries = r.counter(
            "engine_queries_total", "tau-selections served (top-k rungs count individually)"
        )
        self._hits = r.counter("engine_cache_hits_total", "result-cache hits")
        self._misses = r.counter("engine_cache_misses_total", "result-cache misses")
        self._time = r.counter(
            "engine_time_seconds_total", "wall seconds spent inside the engine"
        )
        self._backends: set[str] = set()

    # -- write path (called by the engine under its lock) -------------------

    def observe_hit(self) -> None:
        self._hits.inc()

    def observe_miss(self) -> None:
        self._misses.inc()

    def observe_query(self, backend: str, response: Response) -> None:
        """Fold one answered tau-selection into the registry."""
        self._backends.add(backend)
        r = self.registry
        generated = response.num_generated
        if generated is None:
            # Searchers that do not track a pre-chain count (the scalar
            # baselines) fall back to the candidate count, making the filter
            # look free rather than wrong.
            generated = response.num_candidates
        self._queries.inc()
        self._time.inc(response.engine_time)
        r.counter("engine_backend_queries_total", "queries answered", backend=backend).inc()
        r.counter(
            "engine_candidates_generated_total",
            "objects that entered the filter pipeline (pre-chain)",
            backend=backend,
        ).inc(int(generated))
        r.counter(
            "engine_candidates_verified_total",
            "objects that reached verification (filter output)",
            backend=backend,
        ).inc(response.num_candidates)
        r.counter(
            "engine_results_total", "objects that matched", backend=backend
        ).inc(response.num_results)
        r.counter(
            "engine_stage_seconds_total",
            "searcher-reported seconds per pipeline stage",
            backend=backend,
            stage="candidates",
        ).inc(response.candidate_time)
        r.counter(
            "engine_stage_seconds_total",
            "searcher-reported seconds per pipeline stage",
            backend=backend,
            stage="verify",
        ).inc(response.verify_time)
        # The query's trace id (when tracing is on) becomes the owning
        # bucket's exemplar, linking a slow bucket to its replayable trace.
        r.histogram(
            "engine_query_seconds", "per-query engine latency", backend=backend
        ).observe(response.engine_time, trace_id=response.query.trace_id)

    # -- read path -----------------------------------------------------------

    def avg_generated(self, backend: str) -> float:
        """Mean pre-chain candidates per query: the auto-compaction cost signal."""
        queries = self.registry.get("engine_backend_queries_total", backend=backend)
        if queries is None or not queries.value:
            return 0.0
        generated = self.registry.get("engine_candidates_generated_total", backend=backend)
        return generated.value / queries.value

    def _backend_snapshot(self, backend: str) -> dict:
        """One backend's funnel (every instrument exists once it answered a query)."""
        r = self.registry

        def total(name: str, **labels: str) -> float:
            return r.get(name, backend=backend, **labels).value

        n = total("engine_backend_queries_total")
        candidate_s = total("engine_stage_seconds_total", stage="candidates")
        verify_s = total("engine_stage_seconds_total", stage="verify")
        latency = r.get("engine_query_seconds", backend=backend)
        return {
            "num_queries": int(n),
            # The filter-vs-verify funnel: objects that entered the
            # pipeline, objects that reached verification, objects that
            # matched -- plus where the time went per stage.
            "avg_generated_candidates": total("engine_candidates_generated_total") / n,
            "avg_candidates": total("engine_candidates_verified_total") / n,
            "avg_results": total("engine_results_total") / n,
            "avg_candidate_time_ms": candidate_s / n * 1000.0,
            "avg_verify_time_ms": verify_s / n * 1000.0,
            "avg_total_time_ms": (candidate_s + verify_s) / n * 1000.0,
            "p50_ms": latency.quantile(0.50) * 1000.0,
            "p95_ms": latency.quantile(0.95) * 1000.0,
            "p99_ms": latency.quantile(0.99) * 1000.0,
        }

    def snapshot(self) -> dict:
        """A JSON-friendly view (``/stats``, the CLI, the examples)."""
        queries = int(self._queries.value)
        return {
            "num_queries": queries,
            "cache_hits": int(self._hits.value),
            "cache_misses": int(self._misses.value),
            "engine_time_s": self._time.value,
            "avg_engine_time_ms": 1000.0 * self._time.value / queries if queries else 0.0,
            "per_backend": {
                name: self._backend_snapshot(name) for name in sorted(self._backends)
            },
        }


def _tau_key(tau: float | int | None) -> Hashable:
    """Cache-key form of a threshold that keeps int and float taus distinct.

    The distinction is semantic for the sets backend (int = overlap,
    float = Jaccard), and ``hash(1) == hash(1.0)`` would merge them.
    """
    if tau is None:
        return None
    is_int = isinstance(tau, (int, np.integer)) and not isinstance(tau, bool)
    return (float(tau), is_int)


@dataclass
class _BackendState:
    """Everything the engine holds for one attached backend name.

    Created on first attach and kept for the engine's lifetime: a later
    ``add_dataset`` / ``load_index`` of the same name replaces fields, never
    the record, so the epochs stay monotonic.  Fields are assigned under
    ``SearchEngine._lock``.
    """

    store: Any
    # The delta/tombstone overlay of ``store``.
    delta: DeltaStore
    # Bumped whenever the store is replaced; part of every searcher/result
    # cache key, so entries built against a replaced store can never be
    # served again (even by a search that raced the replacement).
    epoch: int = 0
    # Bumped on every upsert/delete; part of the *result* cache key only --
    # a mutation invalidates cached answers but the searchers, which serve
    # the unchanged main store, stay warm.
    mutation_epoch: int = 0
    wal: WriteAheadLog | None = None
    # WAL seq already folded into the last persisted container; replay
    # after a crash skips batches at or below it.
    checkpoint_seq: int = 0
    container_dir: str | None = None
    # Ops that land during a compaction rebuild, replayed onto the compacted
    # overlay at the swap; None when no rebuild is in flight.
    pending_ops: list[dict] | None = None
    compactor: BackgroundCompactor | None = None


def _nothing_folded(backend_name: str, delta: DeltaStore) -> dict:
    """The :meth:`SearchEngine.compact` summary when no rebuild was installed."""
    return {
        "backend": backend_name,
        "compacted": False,
        "folded_records": 0,
        "dropped_tombstones": 0,
        "checkpointed": False,
        **delta.summary(),
    }


class SearchEngine:
    """A unified serving layer over the four similarity-search domains.

    Args:
        cache_size: capacity of the LRU result cache (0 disables it).
    """

    def __init__(self, cache_size: int = 1024):
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._backends: dict[str, _BackendState] = {}
        self._searchers: OrderedDict[tuple, Any] = OrderedDict()
        self._cache: OrderedDict[tuple, Response] = OrderedDict()
        self._cache_size = cache_size
        self._lock = threading.Lock()
        self._stats = EngineStats()
        # Durability state.  Writers are serialised per backend by a writer
        # lock (always taken OUTSIDE self._lock), so the WAL append order is
        # the overlay apply order -- the invariant replay depends on.
        self._writer_locks: dict[str, threading.Lock] = {}

    # -- dataset management ------------------------------------------------

    def add_dataset(self, backend_name: str, dataset: Any) -> Any:
        """Attach a domain dataset; the backend builds its store/index once."""
        backend = get_backend(backend_name)
        store = backend.prepare(dataset)
        delta = DeltaStore.fresh(backend.store_size(store))
        self._install(backend_name, store, delta, checkpoint_seq=0, directory=None)
        return store

    def _install(
        self,
        backend_name: str,
        store: Any,
        delta: DeltaStore,
        checkpoint_seq: int,
        directory: str | None,
    ) -> None:
        """Serve a freshly built or loaded store in place of the current one.

        Runs under the writer lock like every other state replacement, so
        the stale WAL closed here is never one a :meth:`mutate` has already
        read and is about to append to.
        """
        with self._writer_lock(backend_name):
            with self._lock:
                state = self._backends.get(backend_name)
                if state is None:
                    state = self._backends[backend_name] = _BackendState(store, delta)
                else:
                    state.store = store
                    state.delta = delta
                state.epoch += 1
                # A replaced store invalidates any WAL history: detach the
                # log (the caller re-attaches one against the new state) and
                # reset the checkpoint bookkeeping to what the new state
                # folds in.
                stale_wal, state.wal = state.wal, None
                state.checkpoint_seq = checkpoint_seq
                state.container_dir = directory
                self._evict_backend_state(backend_name)
                self._observe_backend_state(backend_name, state)
            if stale_wal is not None:
                stale_wal.close()

    def backend(self, backend_name: str) -> Backend:
        return get_backend(backend_name)

    def _state(self, backend_name: str) -> _BackendState:
        try:
            return self._backends[backend_name]
        except KeyError:
            attached = ", ".join(sorted(self._backends)) or "(none)"
            raise KeyError(
                f"no dataset attached for backend {backend_name!r}; "
                f"attached backends: {attached}"
            ) from None

    def store(self, backend_name: str) -> Any:
        return self._state(backend_name).store

    def _resolve_backend(self, backend_name: str | None) -> str:
        """``None`` means "the one attached backend" (the contract's default)."""
        if backend_name is not None:
            return backend_name
        attached = sorted(self._backends)
        if len(attached) != 1:
            raise ValueError(
                f"this engine serves {len(attached)} backends "
                f"({', '.join(attached) or 'none'}); pass 'backend'"
            )
        return attached[0]

    def describe(self) -> dict:
        """What this engine serves: every attached backend's descriptor and
        default threshold (the ``/manifest`` body)."""
        with self._lock:
            stores = {name: state.store for name, state in self._backends.items()}
        backends = {}
        for name in sorted(stores):
            backend = get_backend(name)
            backends[name] = {
                "descriptor": backend.describe(stores[name]),
                "default_tau": backend.default_tau(stores[name]),
            }
        return {"engine": type(self).__name__, "backends": backends}

    def _evict_backend_state(self, backend_name: str) -> None:
        """Drop cached searchers/results that refer to a replaced store."""
        for key in [key for key in self._searchers if key[0] == backend_name]:
            del self._searchers[key]
        for key in [key for key in self._cache if key[0] == backend_name]:
            del self._cache[key]

    def _invalidate_results(self, backend_name: str, state: _BackendState) -> None:
        """Evict cached responses after a mutation; searchers stay warm.

        The epoch bump also fences any search that raced the mutation: its
        response was keyed under the old mutation epoch and can never be
        served again, even though it may have seen the new overlay.
        """
        state.mutation_epoch += 1
        for key in [key for key in self._cache if key[0] == backend_name]:
            del self._cache[key]

    def _observe_backend_state(self, backend_name: str, state: _BackendState) -> None:
        """Refresh the epoch / delta-store gauges after a state change."""
        r = self._stats.registry
        r.gauge("engine_store_epoch", "main-store rebuild epoch", backend=backend_name).set(
            state.epoch
        )
        r.gauge("engine_mutation_epoch", "upsert/delete epoch", backend=backend_name).set(
            state.mutation_epoch
        )
        r.gauge(
            "engine_delta_records", "records in the delta store", backend=backend_name
        ).set(len(state.delta.records))
        r.gauge(
            "engine_delta_tombstones", "tombstoned main ids", backend=backend_name
        ).set(state.delta.num_tombstones)

    # -- persistence -------------------------------------------------------

    def save_index(
        self, backend_name: str, directory: str, queries: Sequence[Any] | None = None
    ) -> dict:
        """Persist the attached store (and optional workload) to ``directory``.

        A live delta/tombstone overlay is persisted alongside the main store,
        so upserts and deletes survive a save/load round trip without forcing
        a compaction first.  With a WAL attached this is a **checkpoint**:
        the manifest records the WAL sequence number the saved state folds
        in, and the log is truncated up to it afterwards, keeping replay
        bounded.  The writer lock is held across the save so the (store,
        overlay, seq) triple on disk is always consistent.
        """
        with self._writer_lock(backend_name):
            return self._checkpoint(backend_name, directory, queries)

    def _checkpoint(
        self, backend_name: str, directory: str, queries: Sequence[Any] | None = None
    ) -> dict:
        """Save the served state at the WAL's seq S, record S, truncate the WAL to S.

        The one checkpoint, shared by :meth:`save_index` and the compaction
        swap.  The caller holds the writer lock, so the saved (store,
        overlay, seq) triple cannot be raced by another writer and the
        truncation drops exactly the batches the save folded in.
        """
        state = self._state(backend_name)
        with self._lock:
            store, delta, wal = state.store, state.delta, state.wal
            seq = wal.last_seq if wal is not None else state.checkpoint_seq
        manifest = save_container(
            self.backend(backend_name), store, directory, queries, delta=delta, wal_seq=seq
        )
        with self._lock:
            state.container_dir = directory
            state.checkpoint_seq = seq
        if wal is not None:
            wal.truncate_upto(seq)
        return manifest

    def load_index(self, directory: str) -> Container:
        """Load a container and attach its store; returns the container."""
        container = load_container(directory)
        backend = container.backend
        delta = container.delta
        if delta is None:
            delta = DeltaStore.fresh(backend.store_size(container.store))
        self._install(backend.name, container.store, delta, container.wal_seq, directory)
        return container

    def flush(self) -> None:
        """Persist every backend back into the container it was loaded from.

        Each save is a :meth:`save_index` checkpoint; the container's stored
        query workload is kept.  Backends attached with :meth:`add_dataset`
        have no container and are skipped.
        """
        with self._lock:
            directories = [(name, state.container_dir) for name, state in self._backends.items()]
        for name, directory in directories:
            if directory is not None:
                queries = self.backend(name).load_queries(directory)
                self.save_index(name, directory, queries=queries)

    # -- mutation ----------------------------------------------------------

    def delta(self, backend_name: str) -> DeltaStore:
        """The backend's current overlay."""
        with self._lock:
            return self._state(backend_name).delta

    def _writer_lock(self, backend_name: str) -> threading.Lock:
        """The per-backend writer lock (always acquired OUTSIDE ``_lock``)."""
        with self._lock:
            lock = self._writer_locks.get(backend_name)
            if lock is None:
                lock = threading.Lock()
                self._writer_locks[backend_name] = lock
            return lock

    def mutate(
        self, backend_name: str, ops: Sequence[dict], durability: str | None = None
    ) -> dict:
        """Apply one batch of mixed upserts and deletes atomically.

        Each op is ``{"op": "upsert", "record": ..., "id": optional}`` or
        ``{"op": "delete", "id": ...}``.  The whole batch is validated before
        any state changes (an invalid record rejects the batch without
        partial application), applied under the writer lock, and -- when a
        WAL is attached -- written as **one** WAL record, fsynced before
        returning when ``durability`` is ``"wal"`` (the default with a WAL).
        ``durability="memory"`` appends without the fsync: the batch rides
        to disk with the next synced batch or checkpoint (group commit).

        Returns ``{"backend", "results", "durability", "wal_seq"}`` with one
        result per op in order: upserts report their assigned ``id``,
        deletes report ``deleted``.
        """
        backend = self.backend(backend_name)
        state = self._state(backend_name)
        checked = check_ops(ops)
        for op in checked:
            if op["op"] == "upsert":
                op["record"] = backend.check_record(state.store, op["record"])
        with self._writer_lock(backend_name):
            wal = state.wal
            level = resolve_durability(durability, wal is not None, backend_name)
            with self._lock:
                state.delta, results = state.delta.apply(checked)
                # The ops as logged and replayed: every upsert with its id.
                applied = [dict(op, id=result["id"]) for op, result in zip(checked, results)]
                if state.pending_ops is not None:
                    # A rebuild is in flight against an older overlay
                    # snapshot; buffer the ops (with their assigned ids) so
                    # the swap can replay them onto the compacted overlay.
                    state.pending_ops.extend(applied)
                self._invalidate_results(backend_name, state)
                self._observe_backend_state(backend_name, state)
            seq = None
            append_s = 0.0
            if wal is not None:
                wire_ops = [op_to_wire(backend, op) for op in applied]
                append_start = time.perf_counter()
                seq = wal.append(backend_name, wire_ops, sync=level == "wal")
                append_s = time.perf_counter() - append_start
            r = self._stats.registry
            r.counter(
                "engine_mutation_batches_total", "mutation batches applied", backend=backend_name
            ).inc()
            for op in applied:
                r.counter(
                    "engine_mutation_ops_total",
                    "mutation ops applied",
                    backend=backend_name,
                    op=op["op"],
                ).inc()
            if seq is not None:
                r.gauge(
                    "engine_wal_last_seq", "last appended WAL batch", backend=backend_name
                ).set(seq)
                r.counter(
                    "wal_appended_batches_total",
                    "batches appended to the WAL",
                    backend=backend_name,
                ).inc()
                r.counter(
                    "wal_bytes_total",
                    "bytes appended to the WAL",
                    backend=backend_name,
                ).inc(wal.last_append_bytes)
                if level == "wal":
                    r.histogram(
                        "wal_fsync_seconds",
                        "synced WAL append latency (write + flush + fsync)",
                        backend=backend_name,
                    ).observe(append_s)
        if state.compactor is not None and state.pending_ops is None:
            # Weighed outside the locks: the compactor's lock is a leaf.
            avg_generated = self._stats.avg_generated(backend_name)
            state.compactor.after_write(len(state.delta.records), avg_generated)
        return {"backend": backend_name, "results": results, "durability": level, "wal_seq": seq}

    def compact(self, backend_name: str | None = None) -> dict:
        """Fold the delta store into a new main store, off the write path.

        The fold is :meth:`~repro.engine.backend.Backend.apply_mutations`.
        On strings it costs O(delta): the store keeps its gram order and
        every index a searcher held is spliced, so the first read after the
        swap builds nothing.  The other domains rebuild the store, and their
        next read pays one full index construction over the live records --
        the price of the original build.  Searches run concurrently
        against the old store until the swap, and so do *writers*: mutations
        that land during the fold apply to the served overlay as usual
        and are buffered, then replayed onto the compacted overlay at the
        swap, so none are lost.  With a WAL attached (and a known container
        directory) the swap also checkpoints: the compacted container is
        saved atomically and the WAL truncated at the swap-point sequence
        number.  A fold that finishes after :meth:`add_dataset` /
        :meth:`load_index` replaced the store it was built from is
        discarded (``compacted: False``): the newer store keeps serving.
        Returns a summary of what was folded.
        """
        backend_name = self._resolve_backend(backend_name)
        backend = self.backend(backend_name)
        state = self._state(backend_name)
        with self._lock:
            if state.pending_ops is not None:
                raise RuntimeError(f"compaction already in progress for {backend_name!r}")
            store = state.store
            delta = state.delta
            epoch = state.epoch
            before = delta.summary()
            if delta.is_identity:
                return _nothing_folded(backend_name, delta)
            state.pending_ops = []
        compact_start = time.perf_counter()
        try:
            new_store, new_delta = backend.apply_mutations(store, delta)
        except BaseException:
            with self._lock:
                state.pending_ops = None
            raise
        with self._writer_lock(backend_name):
            with self._lock:
                pending, state.pending_ops = state.pending_ops or [], None
                if state.epoch != epoch:
                    # The rebuild (and the ops buffered for it) belong to a
                    # store that is no longer the one served.
                    return _nothing_folded(backend_name, state.delta)
                new_delta, _ = new_delta.apply(pending)
                state.store, state.delta = new_store, new_delta
                state.epoch += 1
                self._evict_backend_state(backend_name)
                self._observe_backend_state(backend_name, state)
                directory = state.container_dir
                checkpointed = state.wal is not None and directory is not None
            if checkpointed:
                self._checkpoint(backend_name, directory)
        r = self._stats.registry
        r.counter(
            "engine_compactions_total", "compaction runs completed", backend=backend_name
        ).inc()
        r.histogram(
            "engine_compaction_seconds", "compaction wall time", backend=backend_name
        ).observe(time.perf_counter() - compact_start)
        return {
            "backend": backend_name,
            "compacted": True,
            "folded_records": before["delta_records"],
            "dropped_tombstones": before["num_tombstones"],
            "checkpointed": checkpointed,
            **new_delta.summary(),
        }

    def mutation_info(self, backend_name: str | None = None) -> dict:
        """Overlay counters of one backend (``/stats`` and CLI surface)."""
        backend_name = self._resolve_backend(backend_name)
        return {"backend": backend_name, **self.delta(backend_name).summary()}

    # -- durability --------------------------------------------------------

    def attach_wal(self, backend_name: str, path: str, replay: bool = True) -> dict:
        """Attach a write-ahead log to one backend, replaying its history.

        Opening the log discards any torn or corrupted tail, then every
        batch with a sequence number past the loaded container's checkpoint
        is replayed into the delta store -- after this call the served
        state is exactly the acknowledged mutation history.  Once attached,
        every :meth:`mutate` batch is appended to the log (and fsynced
        before acknowledgment at the default ``"wal"`` durability).

        Returns a summary of the attach (including ``replayed_batches``).
        """
        state = self._state(backend_name)
        with self._writer_lock(backend_name):
            if state.wal is not None:
                raise RuntimeError(f"backend {backend_name!r} already has a WAL attached")
            wal = WriteAheadLog(path)
            checkpoint = self.applied_seq(backend_name)
            try:
                replayed = self._replay(backend_name, path, checkpoint)[1] if replay else 0
            except ValueError:
                wal.close()
                raise
            wal.resume_from(checkpoint)
            with self._lock:
                state.wal = wal
        return {
            "backend": backend_name,
            "checkpoint_seq": checkpoint,
            "replayed_batches": replayed,
            **wal.describe(),
        }

    def _replay(self, backend_name: str, path: str, after_seq: int) -> tuple[int, int]:
        """Fold the WAL batches past ``after_seq`` into the overlay.

        The one replay loop (callers hold the writer lock); returns ``(seq
        the overlay now covers, batches replayed)``.
        """
        backend = self.backend(backend_name)
        state = self._state(backend_name)
        applied, replayed = after_seq, 0
        ops: list[dict] = []
        for batch in replay_batches(path, after_seq=after_seq):
            if batch.backend and batch.backend != backend_name:
                raise ValueError(
                    f"WAL {path!r} belongs to backend {batch.backend!r}, not {backend_name!r}"
                )
            ops.extend(op_from_wire(backend, doc) for doc in batch.ops)
            applied = batch.seq
            replayed += 1
        with self._lock:
            state.delta, _ = state.delta.apply(ops)
            if state.pending_ops is not None:
                state.pending_ops.extend(ops)
            if replayed:
                self._invalidate_results(backend_name, state)
                self._observe_backend_state(backend_name, state)
        return applied, replayed

    def replay_wal(self, backend_name: str, path: str) -> dict:
        """Fold a WAL's unapplied suffix into the overlay without attaching.

        The replicated serving tier keeps one WAL per shard **in the
        parent** -- the shared lineage every replica of the shard
        acknowledges against.  Replica engines never append to it; they only
        replay whatever suffix is past their own applied mark, so calling
        this repeatedly (catch-up polling) is idempotent and cheap: batches
        at or below the current applied sequence (the container checkpoint,
        or a previous replay) are skipped.

        Returns ``{"backend", "applied_seq", "replayed_batches"}``.
        """
        state = self._state(backend_name)
        with self._writer_lock(backend_name):
            applied, replayed = self._replay(backend_name, path, self.applied_seq(backend_name))
            with self._lock:
                state.checkpoint_seq = applied
        return {
            "backend": backend_name,
            "applied_seq": applied,
            "replayed_batches": replayed,
        }

    def applied_seq(self, backend_name: str) -> int:
        """The WAL sequence this engine's state covers (checkpoint + replays)."""
        with self._lock:
            return self._state(backend_name).checkpoint_seq

    def advance_applied_seq(self, backend_name: str, seq: int) -> int:
        """Record that the state now covers the parent-assigned ``seq``.

        In the replicated write protocol the replica applies a sub-batch
        first and the parent appends it to the shared WAL afterwards; the
        parent hands over the sequence number it is about to assign so the
        replica's applied mark stays aligned with the lineage (and
        :meth:`save_index` checkpoints at the right sequence).  Never moves
        the mark backwards.
        """
        with self._lock:
            state = self._state(backend_name)
            state.checkpoint_seq = max(state.checkpoint_seq, int(seq))
            return state.checkpoint_seq

    def detach_wal(self, backend_name: str) -> None:
        """Close and detach the backend's WAL (later mutates are memory-only)."""
        state = self._state(backend_name)
        with self._writer_lock(backend_name):
            with self._lock:
                wal, state.wal = state.wal, None
            if wal is not None:
                wal.close()

    def close(self) -> None:
        """Release held OS resources: detach (and close) every attached WAL.

        A background compaction in flight finishes (and checkpoints) first.
        The engine stays queryable afterwards -- mutations just stop being
        logged -- so ``close()`` is safe to call from teardown paths that
        may still answer in-flight reads.  Idempotent.
        """
        with self._lock:
            states = list(self._backends.items())
        for name, state in states:
            if state.compactor is not None:
                state.compactor.wait()
            if state.wal is not None:
                self.detach_wal(name)

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def enable_auto_compaction(
        self, backend_name: str, policy: AutoCompactionPolicy | None = None
    ) -> AutoCompactionPolicy:
        """Arm background compaction for one backend.

        After every mutation batch the policy's delta-size / scan-cost
        crossover (:meth:`repro.engine.wal.AutoCompactionPolicy.
        should_compact`, fed by the funnel's average generated-candidates
        stat) is evaluated; when it fires, :meth:`compact` runs on a
        background thread -- rebuild off the write path, buffered-op replay
        at the swap, and a WAL checkpoint when one is attached.
        """
        state = self._state(backend_name)
        policy = policy if policy is not None else AutoCompactionPolicy()
        compactor = BackgroundCompactor(
            policy, functools.partial(self.compact, backend_name), f"auto-compact-{backend_name}"
        )
        with self._lock:
            state.compactor = compactor
        return policy

    def wait_for_compaction(
        self, backend_name: str | None = None, timeout: float | None = None
    ) -> bool:
        """Block until any in-flight background compaction finishes."""
        backend_name = self._resolve_backend(backend_name)
        compactor = self._state(backend_name).compactor
        return compactor is None or compactor.wait(timeout)

    def durability_info(self, backend_name: str | None = None) -> dict:
        """WAL, checkpoint and auto-compaction state of one backend."""
        backend_name = self._resolve_backend(backend_name)
        state = self._state(backend_name)
        with self._lock:
            wal, compactor, compacting = state.wal, state.compactor, state.pending_ops is not None
            info = {
                "backend": backend_name,
                "checkpoint_seq": state.checkpoint_seq,
                "checkpoint_dir": state.container_dir,
                "delta": state.delta.summary(),
            }
        return {**info, **write_path_info(backend_name, wal, compactor, compacting)}

    # -- execution ---------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        return self._stats

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = EngineStats()
            # The state gauges are otherwise only set on the next change.
            for name, state in self._backends.items():
                self._observe_backend_state(name, state)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def _cache_key(self, query: Query, backend: Backend) -> tuple:
        state = self._backends[query.backend]
        return (
            query.backend,
            state.epoch,
            state.mutation_epoch,
            backend.query_key(query.payload),
            _tau_key(query.tau),
            query.chain_length,
            query.algorithm,
            query.k,
        )

    def _searcher(self, query: Query, backend: Backend, store: Any, epoch: int) -> Any:
        """The cached searcher for ``store``, which was read at ``epoch``.

        The key uses the epoch captured *together with* the store snapshot:
        keying on the current epoch instead would let a compaction that
        lands between the snapshot and this call cache an old-store
        searcher under the new epoch, poisoning every later query.
        """
        key = (
            query.backend,
            epoch,
            query.algorithm,
            _tau_key(query.tau),
            query.chain_length,
        )
        with self._lock:
            searcher = self._searchers.get(key)
            if searcher is not None:
                self._searchers.move_to_end(key)
                return searcher
        searcher = backend.make_searcher(store, query.algorithm, query.tau, query.chain_length)
        with self._lock:
            self._searchers.setdefault(key, searcher)
            while len(self._searchers) > MAX_SEARCHERS:
                self._searchers.popitem(last=False)
        return searcher

    def _snapshot(self, backend_name: str) -> tuple[Any, DeltaStore, int]:
        """The current (store, overlay, store epoch), read atomically."""
        with self._lock:
            state = self._state(backend_name)
            return state.store, state.delta, state.epoch

    def _search_threshold(self, query: Query, backend: Backend) -> Response:
        """One tau-selection: main index answer merged with the delta scan."""
        store, delta, epoch = self._snapshot(query.backend)
        searcher = self._searcher(query, backend, store, epoch)
        with span("searcher"):
            outcome = searcher(query.payload)
        # Drop dead positions, map the rest to external ids and merge in the
        # delta scan: the answer an index rebuilt from the live records would
        # give, ascending by id like the sharded engine's.
        ids = delta.live_ids(outcome.results)
        if delta.records:
            with span("delta_scan"):
                matches = backend.scan_records(
                    store, query.payload, list(delta.records.values()), query.tau
                )
                ids.extend(obj_id for obj_id, hit in zip(delta.records, matches) if hit)
                ids.sort()
        # Delta records enter the pipeline unfiltered, so they count on both
        # sides of the filter-vs-verify funnel.
        num_generated = outcome.extra.get("generated")
        return Response(
            query=query,
            ids=ids,
            tau_effective=query.tau,
            num_candidates=outcome.num_candidates + len(delta.records),
            num_generated=None if num_generated is None else num_generated + len(delta.records),
            candidate_time=outcome.candidate_time,
            verify_time=outcome.verify_time,
        )

    def rank_scores(
        self, backend_name: str, payload: Any, ids: Sequence[int], tau: float | int | None
    ) -> list[float]:
        """Exact rank scores of external ids, wherever the objects live.

        Main-store objects are scored through the backend's (batched)
        ``distances``; delta records are scored directly.  Used by top-k
        ranking, so scores agree bit-for-bit with an unmutated store.
        """
        backend = self.backend(backend_name)
        store, delta, _epoch = self._snapshot(backend_name)
        positions, slots = delta.split(ids)
        scores = backend.distances(store, payload, positions, tau)
        records = [delta.records[ids[slot]] for slot in slots]
        # Slots ascend, so each delta score lands where its id stands.
        for slot, score in zip(slots, backend.record_distances(store, payload, records, tau)):
            scores.insert(slot, score)
        return scores

    def escalation_ladder(
        self, backend_name: str, payload: Any, start: float | int | None
    ) -> list[float | int]:
        """The top-k threshold ladder over the *live* record population."""
        backend = self.backend(backend_name)
        store, delta, _epoch = self._snapshot(backend_name)
        max_size: int | None = None
        if backend.ladder_uses_max_size:
            max_size = delta.live_max_size(
                backend.store_sizes(store),
                [backend.record_size(store, record) for record in delta.records.values()],
            )
        return list(backend.tau_ladder(store, payload, start, max_size=max_size))

    def metrics_wire(self) -> dict:
        """The engine's metrics registry as a JSON-safe wire dump.

        The snapshot is taken while holding every per-backend writer lock
        (in sorted order, never under ``_lock``): a mutation batch updates
        several instruments under its writer lock, so a scrape racing a
        batch would otherwise observe ``engine_mutation_batches_total``
        without the matching op counters -- torn between instruments.
        """
        with self._lock:
            locks = [self._writer_locks[name] for name in sorted(self._writer_locks)]
        with ExitStack() as stack:
            for lock in locks:
                stack.enter_context(lock)
            return self._stats.registry.to_wire()

    # One process, no shards: the replica and worker-profiler views of the
    # contract are empty here.

    def shard_health(self) -> list[dict]:
        return []

    def replica_status(self) -> list[dict]:
        return []

    def profile_wire(self) -> list[dict]:
        return []

    def start_profiling(self) -> None:
        pass

    def stop_profiling(self) -> None:
        pass

    def search(self, query: Query) -> Response:
        """Answer one query (thresholded selection, or top-k when ``k`` is set)."""
        backend = self.backend(query.backend)
        backend.check_algorithm(query.algorithm)
        if query.tau is not None:
            backend.validate_tau(query.tau)
        self.store(query.backend)  # fail fast when nothing is attached
        trace = token = None
        if query.trace_id is not None and obs.current_trace() is None:
            trace = obs.Trace(query.trace_id, name="engine")
            token = obs.activate(trace)
        try:
            response = self._search_impl(query, backend)
        finally:
            if trace is not None:
                obs.deactivate(token)
        if trace is not None:
            trace.finish()
            response.trace = trace.to_dict()
        return response

    def _search_impl(self, query: Query, backend: Backend) -> Response:
        key = self._cache_key(query, backend)
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                self._stats.observe_hit()
                with span("cache_hit"):
                    return replace(hit, query=query, cached=True)
        timer = Timer()
        if query.k is not None:
            response = run_topk(self, query)
        else:
            response = self._search_threshold(query, backend)
        response.engine_time = timer.elapsed()
        with self._lock:
            self._stats.observe_miss()
            if query.k is None:
                # Top-k queries are accounted through their escalation rungs
                # (each an ordinary engine search); counting the aggregate
                # response too would double every rung's time and candidates.
                self._stats.observe_query(query.backend, response)
            if self._cache_size:
                # Store a trace-free copy: a later hit must not serve this
                # request's timeline.
                self._cache[key] = replace(response, trace=None)
                self._cache.move_to_end(key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return response
