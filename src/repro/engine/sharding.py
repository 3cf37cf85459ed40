"""Sharded multi-process serving: one dataset, K id-range shards, N replicas.

A single :class:`repro.engine.executor.SearchEngine` serves from one process;
its thread pool helps little for the CPU-bound searchers.  This module scales
the engine across processes the way partition-parallel data systems do:

* :func:`build_shards` splits a dataset into ``K`` contiguous id ranges
  (``Backend.shard_store``), builds one index container per shard -- each a
  regular :mod:`repro.engine.persistence` container -- and writes a
  ``shards.json`` manifest tying them together.
* :class:`ShardedEngine` runs one :class:`repro.engine.replication.
  ReplicaSet` per shard -- ``replicas`` worker processes sharing the
  shard's WAL lineage, each behind one persistent duplex pipe.  Each
  worker loads its shard container **once at startup** into a private
  :class:`SearchEngine` and reuses it for every query; queries fan out to
  all shards (one live replica each, with transparent failover) and the
  parent merges the partial answers.

Merging is exact:

* thresholded selection -- shards partition the id space, so the answer is
  the disjoint union of the shard answers, returned sorted by global id;
* top-k -- every shard answers its local top-k with exact scores, and a
  k-way heap merge on ``(score, global id)`` keeps the best ``k``.  Because
  any global top-k member is necessarily in its own shard's top-k, the merged
  answer is identical (ids, scores and tie-breaks) to a single-shard top-k.

With ``replicas > 1`` the engine is self-healing: a supervisor thread
respawns dead replicas in the background, replays the shard's write-ahead
log past the container checkpoint, and readmits each replica only once its
``wal_seq`` has caught up (see :mod:`repro.engine.replication` for the
apply-then-log write protocol and the rolling-compaction state machine).

The parent tracks per-shard latency and merge overhead in
:class:`ShardedStats`; the workers' own metrics registries are merged in by
:meth:`ShardedEngine.metrics_wire`, so the whole stats layer stays
observable across the process boundary.

The engine meets the :class:`repro.engine.api.Engine` contract -- the same
methods, signatures and return keys as :class:`repro.engine.executor.
SearchEngine` -- so nothing above it asks which of the two it holds.
"""

from __future__ import annotations

import functools
import heapq
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Any, Iterator, Sequence

from repro.common import diag
from repro.common.obs import MetricsRegistry
from repro.common.stats import Timer
from repro.engine.api import Query, Response
from repro.engine.backend import get_backend
from repro.engine.mutation import check_ops
from repro.engine.persistence import atomic_write_json, read_manifest, save_container
from repro.engine.replication import (
    LIVE,
    ReplicaSet,
    ShardWorkerError,
    _PipeWorker,
    _worker_call,
    _worker_profile_wire,
    _worker_search,
    _worker_search_many,
    _worker_start_profiler,
    _worker_stop_profiler,
)
from repro.engine.wal import AutoCompactionPolicy, WriteAheadLog
from repro.engine.wire import parse_session

__all__ = [
    "SHARDS_MANIFEST_NAME",
    "SHARDS_FORMAT_VERSION",
    "SUPPORTED_SHARDS_FORMAT_VERSIONS",
    "ShardWorkerError",
    "ShardedStats",
    "ShardedEngine",
    "build_shards",
    "load_shards_manifest",
    "merge_threshold",
    "merge_topk",
    "shard_dirname",
    "split_ranges",
]

SHARDS_MANIFEST_NAME = "shards.json"
#: Version 1 is the original frozen layout; version 2 adds mutation fields
#: (``next_id``, per-shard live counters) written by :meth:`ShardedEngine.
#: flush`.  Fresh builds still write version 1 -- a sharded index is saved
#: at the lowest version that can represent it -- and readers accept both.
SHARDS_FORMAT_VERSION = 2
SUPPORTED_SHARDS_FORMAT_VERSIONS = frozenset({1, 2})


# ---------------------------------------------------------------------------
# Shard layout
# ---------------------------------------------------------------------------


def split_ranges(num_objects: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced id ranges covering ``range(num_objects)``.

    The first ``num_objects % num_shards`` shards hold one extra object.  At
    most ``num_objects`` shards are produced (every shard must hold at least
    one object, because the domain datasets reject being empty).
    """
    if num_objects < 1:
        raise ValueError("cannot shard an empty dataset")
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    num_shards = min(num_shards, num_objects)
    base, extra = divmod(num_objects, num_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for shard_id in range(num_shards):
        hi = lo + base + (1 if shard_id < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def shard_dirname(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


def build_shards(
    backend_name: str,
    dataset: Any,
    directory: str,
    num_shards: int,
    queries: Sequence[Any] | None = None,
) -> dict:
    """Split a dataset into id-range shards and persist one container each.

    ``directory`` ends up holding ``shards.json``, one container subdirectory
    per shard, and (optionally) the query workload saved at the top level.
    Returns the shard manifest.
    """
    backend = get_backend(backend_name)
    store = backend.prepare(dataset)
    num_objects = backend.store_size(store)
    ranges = split_ranges(num_objects, num_shards)
    os.makedirs(directory, exist_ok=True)
    shards = []
    for shard_id, (lo, hi) in enumerate(ranges):
        path = shard_dirname(shard_id)
        shard_store = backend.prepare(backend.shard_store(store, lo, hi))
        container_manifest = save_container(backend, shard_store, os.path.join(directory, path))
        shards.append(
            {
                "shard_id": shard_id,
                "lo": lo,
                "hi": hi,
                "path": path,
                "descriptor": container_manifest["descriptor"],
            }
        )
    manifest = {
        "format_version": 1,
        "backend": backend.name,
        "num_objects": num_objects,
        "num_shards": len(shards),
        # Recorded at build time (JSON keeps the int/float distinction, which
        # is semantic for the sets backend) so serving needs no full store.
        "default_tau": backend.default_tau(store),
        "shards": shards,
    }
    if queries is not None:
        backend.save_queries(queries, directory)
        manifest["num_queries"] = len(queries)
    atomic_write_json(os.path.join(directory, SHARDS_MANIFEST_NAME), manifest, indent=2)
    return manifest


def load_shards_manifest(directory: str) -> dict:
    path = os.path.join(directory, SHARDS_MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{directory!r} is not a sharded index (no {SHARDS_MANIFEST_NAME})")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version not in SUPPORTED_SHARDS_FORMAT_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SUPPORTED_SHARDS_FORMAT_VERSIONS))
        raise ValueError(f"unsupported shards format {version!r} (supported: {supported})")
    for shard in manifest["shards"]:
        read_manifest(os.path.join(directory, shard["path"]))
    return manifest


# ---------------------------------------------------------------------------
# Result merging (pure functions, unit-testable without processes)
# ---------------------------------------------------------------------------


def merge_threshold(parts: Sequence[dict]) -> list[int]:
    """Union of disjoint per-shard threshold answers, sorted by global id."""
    ids: list[int] = []
    for part in parts:
        ids.extend(part["ids"])
    ids.sort()
    return ids


def merge_topk(parts: Sequence[dict], k: int) -> tuple[list[int], list[float]]:
    """K-way heap merge of per-shard top-k answers.

    Every part carries ``ids`` and exact ``scores`` already sorted ascending
    by ``(score, global id)`` -- the order :mod:`repro.engine.topk` emits --
    so a heap merge of the ``(score, id)`` streams yields the global order,
    with ties broken by global id exactly as in the single-shard path.
    """
    streams: list[Iterator[tuple[float, int]]] = [
        iter(zip(part["scores"], part["ids"])) for part in parts
    ]
    best = list(islice(heapq.merge(*streams), k))
    return [obj_id for _score, obj_id in best], [score for score, _obj_id in best]


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class ShardedStats:
    """Aggregate fan-out/merge statistics of one :class:`ShardedEngine`.

    ``merge_time`` is the pure result-combination overhead.  ``fanout_time``
    is wall time attributed to queries: for :meth:`ShardedEngine.search` it
    is the per-query submit-to-merged span (so ``fanout_time - max
    per-shard worker time`` approximates the IPC cost); for
    :meth:`ShardedEngine.search_batch` each chunk's incremental wall time is
    amortised over the chunk's queries, so the total equals the batch wall
    time and ``avg_fanout_time_ms`` is the inverse of batch throughput.

    Every number lives in a :class:`repro.common.obs.MetricsRegistry` (the
    parent's half of ``/metrics``; the workers' registries are merged in by
    :meth:`ShardedEngine.metrics_wire`).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._queries = r.counter("sharded_queries_total", "queries fanned out to the shards")
        self._fanout = r.counter(
            "sharded_fanout_seconds_total", "wall seconds attributed to fan-out"
        )
        self._merge = r.counter(
            "sharded_merge_seconds_total", "wall seconds combining shard answers"
        )
        self._merge_latency = r.histogram("sharded_merge_seconds", "per-query merge latency")
        self._shards: list[dict[str, Any]] = []

    def add_shard(self) -> None:
        """Create one shard's instruments once; the per-query path holds
        them instead of looking each up by label."""
        r = self.registry
        shard = str(len(self._shards))
        self._shards.append(
            {
                "queries": r.counter(
                    "sharded_shard_queries_total", "queries answered by this shard", shard=shard
                ),
                "seconds": r.counter(
                    "sharded_shard_seconds_total", "worker seconds on this shard", shard=shard
                ),
                "max_seconds": r.gauge(
                    "sharded_shard_max_seconds", "slowest query on this shard", shard=shard
                ),
                "latency": r.histogram(
                    "sharded_shard_seconds", "per-query worker latency", shard=shard
                ),
                "errors": r.counter(
                    "sharded_worker_errors_total",
                    "worker process failures on this shard",
                    shard=shard,
                ),
                "failovers": r.counter(
                    "sharded_failovers_total",
                    "reads retried transparently on a sibling replica",
                    shard=shard,
                ),
            }
        )

    def observe_query(self, fanout_s: float, merge_s: float, parts: Sequence[dict]) -> None:
        self._queries.inc()
        self._fanout.inc(fanout_s)
        self._merge.inc(merge_s)
        self._merge_latency.observe(merge_s)
        for shard, part in zip(self._shards, parts):
            seconds = part["engine_time"]
            shard["queries"].inc()
            shard["seconds"].inc(seconds)
            if seconds > shard["max_seconds"].value:
                shard["max_seconds"].set(seconds)
            shard["latency"].observe(seconds)

    def observe_worker_error(self, shard_id: int) -> None:
        self._shards[shard_id]["errors"].inc()

    def observe_failover(self, shard_id: int) -> None:
        self._shards[shard_id]["failovers"].inc()

    def snapshot(self) -> dict:
        queries = int(self._queries.value)
        fanout_s, merge_s = self._fanout.value, self._merge.value
        return {
            "num_queries": queries,
            "fanout_time_s": fanout_s,
            "merge_time_s": merge_s,
            "avg_fanout_time_ms": 1000.0 * fanout_s / queries if queries else 0.0,
            "avg_merge_time_ms": 1000.0 * merge_s / queries if queries else 0.0,
            "per_shard": [
                {
                    "shard_id": shard_id,
                    "num_queries": int(shard["queries"].value),
                    "worker_time_s": shard["seconds"].value,
                    "avg_worker_time_ms": (
                        1000.0 * shard["seconds"].value / shard["queries"].value
                        if shard["queries"].value
                        else 0.0
                    ),
                    "max_worker_time_ms": 1000.0 * shard["max_seconds"].value,
                    "worker_errors": int(shard["errors"].value),
                    "failovers": int(shard["failovers"].value),
                }
                for shard_id, shard in enumerate(self._shards)
            ],
        }


class ShardedEngine:
    """Data-partitioned parallel serving over a sharded index directory.

    Args:
        directory: a directory produced by :func:`build_shards`.
        cache_size: LRU result-cache capacity of every worker engine
            (0, the default, disables caching -- benchmarks measure serving).
        mp_context: optional :mod:`multiprocessing` context name
            (``"fork"`` / ``"spawn"`` / ``"forkserver"``); ``None`` uses the
            platform default.
        wal_dir: when set, the parent owns one write-ahead log per shard at
            ``<wal_dir>/<shard dir>.wal``; workers replay it at startup and
            the parent appends acknowledged batches (apply-then-log), making
            acknowledged mutations crash-durable per shard.
        auto_compact: let the supervisor thread fold each shard's delta
            store into a rebuilt index when the compaction policy says so
            (only meaningful together with ``wal_dir``).
        replicas: worker processes per shard.  With ``replicas > 1``
            (requires ``wal_dir``) each shard becomes a self-healing
            :class:`~repro.engine.replication.ReplicaSet`: reads fail over
            transparently, dead replicas respawn in the background, and
            :meth:`compact` rolls over the replicas without blocking writes.

    Workers load their shard once, inside the constructor (a readiness
    barrier), so the first query pays no cold-start cost.  Use as a context
    manager or call :meth:`close` to release the worker processes.
    """

    def __init__(
        self,
        directory: str,
        cache_size: int = 0,
        mp_context: str | None = None,
        wal_dir: str | None = None,
        auto_compact: bool = False,
        replicas: int = 1,
    ):
        import multiprocessing

        self._manifest = load_shards_manifest(directory)
        self._directory = directory
        self._backend_name: str = self._manifest["backend"]
        self._next_id = int(self._manifest.get("next_id", self._manifest["num_objects"]))
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if replicas > 1 and wal_dir is None:
            raise ValueError("replicas > 1 requires wal_dir (the shared WAL lineage)")
        self._wal_dir = wal_dir
        self._num_replicas = replicas
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
        context = multiprocessing.get_context(mp_context)
        self._sets: list[ReplicaSet] = []
        self._supervisor: diag.Supervisor | None = None
        # Background compaction checkpoints into the WAL lineage, so it is
        # armed only when there is one.
        self._auto_policy = AutoCompactionPolicy() if auto_compact and wal_dir is not None else None
        # Per shard: background compactions completed, and the last one's
        # failure (None once one succeeds) -- see durability_info().
        self._compaction_counts = [0] * len(self._manifest["shards"])
        self._compaction_errors: list[str | None] = [None] * len(self._manifest["shards"])
        self._tick_count = 0
        self._stats = ShardedStats()
        self._health = diag.HealthScoreboard(len(self._manifest["shards"]))
        try:
            for shard_id, shard in enumerate(self._manifest["shards"]):
                wal_path = (
                    os.path.join(wal_dir, f"{shard['path']}.wal") if wal_dir is not None else None
                )
                initargs = (
                    os.path.join(directory, shard["path"]),
                    shard["lo"],
                    cache_size,
                    wal_path,
                )
                self._sets.append(
                    ReplicaSet(
                        shard_id,
                        spawn=functools.partial(_PipeWorker, context, initargs),
                        num_replicas=replicas,
                        wal=WriteAheadLog(wal_path) if wal_path is not None else None,
                        backend=self._backend_name,
                        on_death=functools.partial(self._observe_shard_error, shard_id),
                        on_failover=functools.partial(self._observe_failover, shard_id),
                    )
                )
                self._stats.add_shard()
            # Start every replica of every shard, then collect the readiness
            # barriers: every worker has loaded its shard (and, with a WAL,
            # replayed its acknowledged mutation history).
            for rset in self._sets:
                rset.spawn()
            for rset in self._sets:
                rset.await_ready()
            if wal_dir is not None:
                # WAL replay may have advanced a shard's local id high-water
                # mark past what the (possibly stale, crash-survived) shards
                # manifest recorded.
                self._refresh_next_id()
            if replicas > 1 or self._auto_policy is not None:
                self._supervisor = diag.Supervisor(
                    self._supervise_tick, interval_s=0.2, name="replica-supervisor"
                )
                self._supervisor.start()
        except BaseException:
            self.close()
            raise

    def _observe_shard_error(self, shard_id: int) -> None:
        self._stats.observe_worker_error(shard_id)
        self._health.observe(shard_id, error=True)

    def _observe_failover(self, shard_id: int) -> None:
        self._stats.observe_failover(shard_id)

    def _refresh_next_id(self) -> None:
        """Raise the global id high-water mark to cover every shard's overlay."""
        for shard_id, shard in enumerate(self._manifest["shards"]):
            info = self._shard_call(shard_id, "mutation_info")
            self._next_id = max(self._next_id, int(info["next_id"]) + shard["lo"])

    def respawn_shard(self, shard_id: int) -> None:
        """Replace every worker process of one shard with fresh ones.

        Each new worker reloads the shard container and -- when serving with
        a WAL -- replays the shard's log before being readmitted, so every
        acknowledged mutation survives the respawn even if the old worker
        died mid-write (``kill -9`` included).
        """
        self._require_open()
        rset = self._sets[shard_id]
        for replica in rset.replicas:
            rset.respawn(replica)
        if self._wal_dir is not None:
            self._refresh_next_id()

    def _supervise_tick(self) -> None:
        """One supervisor sweep: heal dead replicas, drive auto-compaction."""
        self._tick_count += 1
        if self._num_replicas > 1:
            for rset in self._sets:
                rset.heal()
        if self._auto_policy is not None and self._tick_count % 10 == 0:
            for shard_id, rset in enumerate(self._sets):
                if rset.compacting:
                    continue
                try:
                    info = rset.submit(_worker_call, "mutation_info").result()
                except ShardWorkerError:
                    continue
                if not self._auto_policy.should_compact(int(info["delta_records"]), 0.0):
                    continue
                try:
                    self._compact_shard(shard_id)
                except Exception as exc:  # surfaced via durability_info, never raised
                    self._compaction_errors[shard_id] = repr(exc)
                else:
                    self._compaction_counts[shard_id] += 1
                    self._compaction_errors[shard_id] = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down; the engine is unusable afterwards."""
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.stop()
        sets, self._sets = self._sets, []
        for rset in sets:
            rset.close()
            if rset.wal is not None:
                rset.wal.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        """What this engine serves (the ``/manifest`` body): the one backend
        with the whole index's descriptor and build-time default threshold,
        plus the shards manifest under ``"shards"``."""
        descriptor = dict(
            self._manifest["shards"][0]["descriptor"], num_objects=self._manifest["num_objects"]
        )
        return {
            "engine": type(self).__name__,
            "backends": {
                self._backend_name: {
                    "descriptor": descriptor,
                    "default_tau": self._manifest["default_tau"],
                }
            },
            "shards": self._manifest,
        }

    @property
    def stats(self) -> ShardedStats:
        return self._stats

    def reset_stats(self) -> None:
        self._stats = ShardedStats()
        for _rset in self._sets:
            self._stats.add_shard()
        self._health = diag.HealthScoreboard(len(self._sets))

    def metrics_wire(self) -> dict:
        """Parent registry plus every live worker's registry, merged.

        Worker histograms share bucket ladders, so the merged histogram
        answers quantile queries exactly as one that observed every shard's
        samples itself.
        """
        merged = MetricsRegistry()
        merged.merge_wire(self._stats.registry.to_wire())
        for rset in self._sets:
            for wire in rset.broadcast(_worker_call, "metrics_wire"):
                merged.merge_wire(wire)
        return merged.to_wire()

    def start_profiling(self) -> None:
        """Arm a sampler inside every live shard worker, for the one
        ``/debug/profile`` window the caller then sleeps on.  A worker that
        dies or is respawned mid-window contributes no samples."""
        self._require_open()
        for rset in self._sets:
            rset.broadcast(_worker_start_profiler)

    def stop_profiling(self) -> None:
        """Disarm every live worker's sampler (a no-op once closed)."""
        for rset in self._sets:
            rset.broadcast(_worker_stop_profiler)

    def profile_wire(self) -> list[dict]:
        """Every armed worker's sampler snapshot (mergeable wire dumps)."""
        self._require_open()
        wires: list[dict] = []
        for rset in self._sets:
            for wire in rset.broadcast(_worker_profile_wire):
                if wire is not None:
                    wires.append(wire)
        return wires

    def shard_health(self) -> list[dict]:
        """Rolling-window per-shard health, with the replica-set view.

        The scoreboard grades request outcomes; the replica overlay refines
        it: a shard with zero live replicas is ``failing`` (it cannot
        answer), one with some replicas down or catching up is ``degraded``
        (it answers, redundancy is reduced).
        """
        report = self._health.report()
        for entry in report:
            shard_id = entry["shard"]
            if shard_id >= len(self._sets):
                continue
            replicas = self._sets[shard_id].status()
            live = sum(1 for replica in replicas if replica["state"] == LIVE)
            entry["replicas"] = replicas
            entry["num_replicas"] = len(replicas)
            entry["live_replicas"] = live
            if live == 0:
                entry["status"] = "failing"
            elif live < len(replicas):
                entry["status"] = "degraded"
        return report

    def replica_status(self) -> list[dict]:
        """Per-shard replica lifecycle view (the ``/stats`` replica table)."""
        status = []
        for shard_id, rset in enumerate(self._sets):
            status.append(
                {
                    "shard_id": shard_id,
                    "num_replicas": self._num_replicas,
                    "wal_last_seq": rset.wal.last_seq if rset.wal is not None else None,
                    "replicas": rset.status(),
                }
            )
        return status

    # -- mutation ----------------------------------------------------------

    def _check_backend(self, backend_name: str | None) -> None:
        """``None`` means "the one attached backend", which is always ours."""
        if backend_name not in (None, self._backend_name):
            raise ValueError(
                f"this sharded index serves backend {self._backend_name!r}, "
                f"got backend {backend_name!r}"
            )

    def _shard_for_id(self, obj_id: int) -> dict:
        """The shard entry owning an external id.

        Ids land in their build-time ``[lo, hi)`` range; ids appended after
        the build (``>=`` the last shard's ``hi``) belong to the last shard,
        whose range grows rightwards.
        """
        if obj_id < 0:
            raise ValueError(f"object ids are non-negative, got {obj_id}")
        shards = self._manifest["shards"]
        for shard in shards:
            if shard["lo"] <= obj_id < shard["hi"]:
                return shard
        return shards[-1]

    def _apply_to_shard(
        self, shard_id: int, local_ops: list[dict], durability: str | None
    ) -> dict:
        try:
            return self._sets[shard_id].apply(local_ops, durability)
        except ShardWorkerError:
            self._observe_shard_error(shard_id)
            raise

    def mutate(
        self,
        backend_name: str,
        ops: Sequence[dict],
        durability: str | None = None,
    ) -> dict:
        """Apply one mutation batch, routed to the owning id-range shards.

        The parent assigns every upsert its global id up front (so routing
        is deterministic and each shard's WAL records explicit, replayable
        ids), groups the ops per shard preserving batch order, and applies
        one sub-batch per touched shard -- to *every* live replica of that
        shard, then the shard's WAL (see :meth:`repro.engine.replication.
        ReplicaSet.apply`).  Results come back in the original batch order
        with global ids; ``wal_seq`` maps each touched shard to the
        sequence number its sub-batch was acknowledged at.  A sub-batch is
        atomic per shard (one WAL record), but a failure on one shard does
        not roll back sub-batches already applied on others.
        """
        self._require_open()
        self._check_backend(backend_name)
        # Validate the whole batch's structure before assigning any id, so a
        # malformed op cannot leave the batch half-routed.  Record contents
        # are validated by each worker engine against its own store (before
        # the worker applies anything).
        ops = check_ops(ops)
        # Assign global ids and route, preserving batch order per shard.
        routed: dict[int, list[tuple[int, int, dict]]] = {}
        for position, op in enumerate(ops):
            if op["op"] == "upsert":
                obj_id = op["id"]
                if obj_id is None:
                    obj_id = self._next_id
                self._next_id = max(self._next_id, obj_id + 1)
                shard = self._shard_for_id(obj_id)
                local: dict[str, Any] = {
                    "op": "upsert",
                    "record": op["record"],
                    "id": obj_id - shard["lo"],
                }
            else:
                obj_id = op["id"]
                shard = self._shard_for_id(obj_id)
                local = {"op": "delete", "id": obj_id - shard["lo"]}
            routed.setdefault(shard["shard_id"], []).append((position, shard["lo"], local))
        outcomes: dict[int, dict] = {}
        if len(routed) == 1:
            shard_id, entries = next(iter(routed.items()))
            outcomes[shard_id] = self._apply_to_shard(
                shard_id, [local for _position, _lo, local in entries], durability
            )
        else:
            # Each shard's apply blocks on its replica fan-out and WAL
            # append; overlap the touched shards so a multi-shard batch
            # pays the slowest shard, not the sum.
            with ThreadPoolExecutor(max_workers=len(routed)) as fan:
                futures = {
                    shard_id: fan.submit(
                        self._apply_to_shard,
                        shard_id,
                        [local for _position, _lo, local in entries],
                        durability,
                    )
                    for shard_id, entries in routed.items()
                }
                for shard_id, future in futures.items():
                    outcomes[shard_id] = future.result()
        results: list[dict | None] = [None] * len(ops)
        wal_seqs: dict[str, int] = {}
        level = durability
        for shard_id, entries in routed.items():
            outcome = outcomes[shard_id]
            level = outcome["durability"]
            wal_seqs[str(shard_id)] = outcome["wal_seq"]
            for (position, lo, _local), result in zip(entries, outcome["results"]):
                doc = dict(result)
                if "id" in doc:
                    doc["id"] = int(doc["id"]) + lo
                results[position] = doc
        return {
            "backend": self._backend_name,
            "results": results,
            "durability": level,
            "wal_seq": wal_seqs,
        }

    def _compact_shard(self, shard_id: int) -> dict:
        rset = self._sets[shard_id]
        # Persist (and afterwards truncate the WAL) only when a WAL exists;
        # the WAL-less engine compacts in place without touching the
        # containers, exactly as the single-worker engine always has.
        persist_dir = (
            os.path.join(self._directory, self._manifest["shards"][shard_id]["path"])
            if rset.wal is not None
            else None
        )
        summary = dict(rset.compact(persist_dir))
        summary["shard_id"] = shard_id
        return summary

    def compact(self, backend_name: str | None = None) -> dict:
        """Fold every shard's delta store into its rebuilt main index.

        Shards compact independently (each is its own container), one shard
        at a time; within a shard the replica set rolls the rebuild over
        its replicas so the write path never blocks while siblings serve
        (see :meth:`repro.engine.replication.ReplicaSet.compact`).  Returns
        the plain engine's summary keys aggregated over the shards, with the
        per-shard summaries in shard order under ``"shards"``.
        """
        self._require_open()
        self._check_backend(backend_name)
        shards = [self._compact_shard(shard_id) for shard_id in range(len(self._sets))]
        after = self.mutation_info()
        del after["per_shard"]
        return {
            "compacted": any(shard["compacted"] for shard in shards),
            "folded_records": sum(shard.get("folded_records", 0) for shard in shards),
            "dropped_tombstones": sum(shard.get("dropped_tombstones", 0) for shard in shards),
            "checkpointed": any(shard.get("checkpointed", False) for shard in shards),
            **after,
            "shards": shards,
        }

    def _shard_call(self, shard_id: int, method: str, *args: Any) -> Any:
        """One method of one shard's worker engine, on a live replica."""
        return self._shard_result(
            shard_id, self._submit_to_shard(shard_id, _worker_call, method, *args)
        )

    def _sum_deltas(self, summaries: Sequence[dict]) -> dict:
        """Per-shard ``DeltaStore.summary()`` dicts as one, in the same keys."""
        totals: dict[str, Any] = {
            key: sum(summary[key] for summary in summaries)
            for key in ("num_main", "num_tombstones", "delta_records", "num_live")
        }
        totals["next_id"] = self._next_id
        totals["mutated"] = any(summary["mutated"] for summary in summaries)
        return totals

    def mutation_info(self, backend_name: str | None = None) -> dict:
        """Aggregate overlay counters, plus the per-shard breakdown."""
        self._require_open()
        self._check_backend(backend_name)
        per_shard = [
            dict(self._shard_call(shard_id, "mutation_info"), shard_id=shard_id)
            for shard_id in range(len(self._sets))
        ]
        return {
            "backend": self._backend_name,
            **self._sum_deltas(per_shard),
            "per_shard": per_shard,
        }

    def durability_info(self, backend_name: str | None = None) -> dict:
        """Aggregate durability posture, plus the per-shard breakdown.

        The parent owns the WAL lineage (workers are replay-only readers)
        and its supervisor drives background compaction, so the per-shard
        ``wal`` / ``default_durability`` / ``auto_compaction`` fields come
        from the parent, overriding the workers' memory-only view.
        """
        self._require_open()
        self._check_backend(backend_name)
        policy = self._auto_policy
        per_shard = []
        for shard_id, rset in enumerate(self._sets):
            info = dict(self._shard_call(shard_id, "durability_info"), shard_id=shard_id)
            wal = rset.wal
            info["default_durability"] = "wal" if wal is not None else "memory"
            info["wal"] = (
                {"attached": True, **wal.describe()} if wal is not None else {"attached": False}
            )
            if policy is not None:
                info["auto_compaction"] = {
                    "enabled": True,
                    **policy.summary(),
                    "in_flight": rset.compacting,
                    "compactions": self._compaction_counts[shard_id],
                    "last_error": self._compaction_errors[shard_id],
                }
            per_shard.append(info)
        auto: dict[str, Any] = {"enabled": False}
        if policy is not None:
            errors = [
                f"shard {info['shard_id']}: {info['auto_compaction']['last_error']}"
                for info in per_shard
                if info["auto_compaction"]["last_error"] is not None
            ]
            auto = {
                "enabled": True,
                **policy.summary(),
                "in_flight": any(info["auto_compaction"]["in_flight"] for info in per_shard),
                "compactions": sum(self._compaction_counts),
                "last_error": "; ".join(errors) or None,
            }
        return {
            "backend": self._backend_name,
            "default_durability": per_shard[0]["default_durability"],
            # One WAL lineage per shard, so one checkpoint per shard (keyed
            # like a mutation's ``wal_seq``).
            "checkpoint_seq": {str(info["shard_id"]): info["checkpoint_seq"] for info in per_shard},
            "checkpoint_dir": self._directory,
            "delta": self._sum_deltas([info["delta"] for info in per_shard]),
            "auto_compaction": auto,
            "wal": {"attached": self._wal_dir is not None, "path": self._wal_dir},
            "per_shard": per_shard,
        }

    def wait_for_compaction(
        self, backend_name: str | None = None, timeout: float | None = None
    ) -> bool:
        """Block until no shard has a compaction in flight (compactions run
        synchronously inside ``ReplicaSet.compact``, so the flag is exact)."""
        self._require_open()
        self._check_backend(backend_name)
        deadline = time.monotonic() + timeout if timeout is not None else None
        while any(rset.compacting for rset in self._sets):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True

    def flush(self) -> None:
        """Persist every shard (store + overlay) and the shards manifest.

        After ``flush`` the index directory reopens with all mutations
        intact; the manifest records the id-space high-water mark so new
        upserts keep getting fresh ids, and the last shard's range absorbs
        the ids appended since the build.  Each persisted container
        checkpoints its shard's WAL position, after which the parent
        truncates the log's folded prefix.
        """
        self._require_open()
        shards = self._manifest["shards"]
        infos = []
        for shard_id, shard in enumerate(shards):
            directory = os.path.join(self._directory, shard["path"])
            container_manifest = self._shard_call(
                shard_id, "save_index", self._backend_name, directory
            )
            shard["descriptor"] = container_manifest["descriptor"]
            wal = self._sets[shard_id].wal
            if wal is not None:
                checkpoint = int(container_manifest.get("wal_seq", 0) or 0)
                if checkpoint:
                    wal.truncate_upto(checkpoint)
            info = self._shard_call(shard_id, "mutation_info")
            shard["num_live"] = info["num_live"]
            infos.append(info)
        shards[-1]["hi"] = max(shards[-1]["hi"], self._next_id)
        mutated = any(info["mutated"] for info in infos)
        self._manifest["format_version"] = SHARDS_FORMAT_VERSION if mutated else 1
        self._manifest["num_objects"] = sum(info["num_live"] for info in infos)
        self._manifest["next_id"] = self._next_id
        path = os.path.join(self._directory, SHARDS_MANIFEST_NAME)
        atomic_write_json(path, self._manifest, indent=2)

    # -- serving -----------------------------------------------------------

    def _require_open(self) -> None:
        if not self._sets:
            raise RuntimeError("the sharded engine has been closed")

    def _submit_to_shard(self, shard_id: int, fn: Any, *args: Any, min_seq: int = 0) -> Any:
        try:
            return self._sets[shard_id].submit(fn, *args, min_seq=min_seq)
        except ShardWorkerError:
            self._observe_shard_error(shard_id)
            raise

    def _shard_result(self, shard_id: int, routed: Any) -> Any:
        try:
            return routed.result()
        except ShardWorkerError:
            self._observe_shard_error(shard_id)
            raise

    def _submit(self, query: Query) -> list[Any]:
        self._check_backend(query.backend)
        floors = parse_session(query.session)
        return [
            self._submit_to_shard(
                shard_id, _worker_search, query, min_seq=floors.get(shard_id, 0)
            )
            for shard_id in range(len(self._sets))
        ]

    def _merge(self, query: Query, parts: list[dict], elapsed: float) -> Response:
        """Combine per-shard answers; ``elapsed`` is the wall time to charge
        this query for the fan-out (excluding the merge itself)."""
        merge_timer = Timer()
        if query.k is None:
            ids = merge_threshold(parts)
            scores = None
            tau_effective = query.tau
        else:
            ids, scores = merge_topk(parts, query.k)
            tau_effective = max(part["tau_effective"] for part in parts)
        merge_time = merge_timer.elapsed()
        generated = [part.get("num_generated") for part in parts]
        response = Response(
            query=query,
            ids=ids,
            scores=scores,
            tau_effective=tau_effective,
            num_candidates=sum(part["num_candidates"] for part in parts),
            # The funnel counter survives the merge only when every shard
            # reported it (scalar searchers report None).
            num_generated=(
                sum(generated) if all(value is not None for value in generated) else None
            ),
            candidate_time=sum(part["candidate_time"] for part in parts),
            verify_time=sum(part["verify_time"] for part in parts),
            engine_time=elapsed + merge_time,
        )
        self._stats.observe_query(response.engine_time, merge_time, parts)
        for shard_id, part in enumerate(parts):
            self._health.observe(shard_id, latency_s=part["engine_time"])
        if query.trace_id is not None:
            response.trace = self._build_trace(query, parts, elapsed, merge_time)
        return response

    def _build_trace(
        self, query: Query, parts: list[dict], fanout_s: float, merge_s: float
    ) -> dict:
        """Assemble the fan-out timeline, embedding the worker span trees.

        Worker clocks are not comparable with the parent's, so each worker's
        spans keep their worker-relative offsets and sit under a per-shard
        span whose duration is the worker-reported engine time.
        """
        shard_spans = []
        for shard_id, part in enumerate(parts):
            worker_trace = part.get("trace") or {}
            shard_spans.append(
                {
                    "name": f"shard[{shard_id}]",
                    "start_ms": 0.0,
                    "duration_ms": round(part["engine_time"] * 1000.0, 4),
                    "children": worker_trace.get("spans", []),
                }
            )
        fanout_ms = fanout_s * 1000.0
        return {
            "trace_id": query.trace_id,
            "name": "sharded",
            "duration_ms": round((fanout_s + merge_s) * 1000.0, 4),
            "spans": [
                {
                    "name": "fanout",
                    "start_ms": 0.0,
                    "duration_ms": round(fanout_ms, 4),
                    "children": shard_spans,
                },
                {
                    "name": "merge",
                    "start_ms": round(fanout_ms, 4),
                    "duration_ms": round(merge_s * 1000.0, 4),
                    "children": [],
                },
            ],
        }

    def search(self, query: Query) -> Response:
        """Fan one query out to every shard and merge the partial answers."""
        self._require_open()
        timer = Timer()
        futures = self._submit(query)
        parts = [
            self._shard_result(shard_id, future) for shard_id, future in enumerate(futures)
        ]
        return self._merge(query, parts, timer.elapsed())

    def search_batch(
        self, queries: Sequence[Query], chunk_size: int | None = None
    ) -> list[Response]:
        """Answer a batch pipelined across the shards; order is preserved.

        Queries are grouped into chunks and every chunk becomes one task per
        shard, so (a) the per-frame pickling and pipe round trip is amortised
        over the whole chunk, and (b) shard ``s`` can work on chunk ``c + 1``
        while the parent still waits on chunk ``c``'s slowest shard.  The
        default chunk size aims for a handful of chunks in flight; pass
        ``chunk_size=1`` to force per-query fan-out (lowest latency for the
        head of the batch, highest overhead).
        """
        self._require_open()
        queries = list(queries)
        if not queries:
            return []
        floors: dict[int, int] = {}
        for query in queries:
            self._check_backend(query.backend)
            # The batch shares one routing floor per shard (the max over
            # its queries' tokens): conservative, and it keeps every chunk
            # on replicas that satisfy all of its queries.
            for shard_id, seq in parse_session(query.session).items():
                floors[shard_id] = max(floors.get(shard_id, 0), seq)
        if chunk_size is None:
            # Enough chunks to pipeline (about four per shard cycle), capped
            # so huge batches still amortise the IPC cost.
            chunk_size = max(1, min(32, len(queries) // 4))
        chunks = [
            queries[start : start + chunk_size]
            for start in range(0, len(queries), chunk_size)
        ]
        timer = Timer()
        in_flight = [
            [
                self._submit_to_shard(
                    shard_id, _worker_search_many, chunk, min_seq=floors.get(shard_id, 0)
                )
                for shard_id in range(len(self._sets))
            ]
            for chunk in chunks
        ]
        responses: list[Response] = []
        for chunk, futures in zip(chunks, in_flight):
            shard_parts = [
                self._shard_result(shard_id, future)
                for shard_id, future in enumerate(futures)
            ]
            # Wall time since the previous chunk completed, amortised over
            # this chunk's queries: summed over the batch it equals the batch
            # wall time (chunks overlap in flight, so charging each query its
            # full time-in-system would double-count the pipelining).
            share = timer.restart() / len(chunk)
            for position, query in enumerate(chunk):
                parts = [parts_of_shard[position] for parts_of_shard in shard_parts]
                responses.append(self._merge(query, parts, share))
        return responses
