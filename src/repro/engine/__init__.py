"""A unified multi-domain query engine over the paper's four case studies.

The per-domain packages (:mod:`repro.hamming`, :mod:`repro.sets`,
:mod:`repro.strings`, :mod:`repro.graphs`) each expose their own dataset and
searcher classes; this subsystem puts one serving layer on top of them:

* :mod:`repro.engine.backend` -- the :class:`Backend` protocol and a registry
  mapping domain names to adapters.
* :mod:`repro.engine.backends` -- the four registered adapters.
* :mod:`repro.engine.api` -- the uniform :class:`Query` / :class:`Response`
  dataclasses and the :class:`Engine` contract both engines meet.
* :mod:`repro.engine.executor` -- :class:`SearchEngine`: searcher reuse, an
  LRU result cache, batched execution, latency statistics.
* :mod:`repro.engine.topk` -- top-k search via adaptive threshold escalation.
* :mod:`repro.engine.mutation` -- :class:`DeltaStore`: the delta/tombstone
  overlay behind online ``mutate`` / ``compact``.
* :mod:`repro.engine.persistence` -- build-once/save/load index containers;
  every write is atomic (temp + fsync + rename).
* :mod:`repro.engine.wal` -- :class:`WriteAheadLog`: checksummed,
  length-prefixed batch records with prefix-validity recovery, plus
  :class:`AutoCompactionPolicy`, the delta-vs-index cost crossover behind
  background auto-compaction.
* :mod:`repro.engine.sharding` -- :class:`ShardedEngine`: id-range shards
  served by one worker process each, with exact threshold/top-k merging.
* :mod:`repro.engine.wire` -- the schema-versioned JSON wire format of the
  network serving layer.
* :mod:`repro.engine.server` -- :class:`EngineServer`: a stdlib-only asyncio
  HTTP/1.1 front-end with per-query dispatch on a thread pool, exclusive
  writes, admission control and graceful drain over either engine.
* :mod:`repro.engine.client` -- the blocking :class:`EngineClient`.
* :mod:`repro.engine.cli` -- ``python -m repro.engine`` with ``build-index``,
  ``query``, ``build-shards``, ``serve``, ``upsert``, ``delete``,
  ``compact``, ``wal-inspect``, ``stats``, ``trace`` and ``profile``
  subcommands.

Mutations flow through the batched ``mutate(backend, ops)`` entry point
on the engine, the sharded engine, ``POST /mutate`` and the client alike;
attach a write-ahead log (``attach_wal`` / ``serve --wal-dir``) and each
batch is fsync'd before it is acknowledged, then replayed on the next load.

:func:`open_engine` opens an index directory as whichever engine its layout
calls for; it is the only code that looks.

See ENGINE.md at the repository root for the architecture walkthrough.
"""

import os

from repro.engine.api import Engine, Query, Response
from repro.engine.backend import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.client import (
    EngineClient,
    EngineClientError,
    RequestError,
    ServerBusyError,
    ServerUnavailableError,
    WireResponse,
)
from repro.engine.executor import EngineStats, SearchEngine
from repro.engine.mutation import DeltaStore
from repro.engine.persistence import (
    Container,
    atomic_write_json,
    load_container,
    save_container,
)
from repro.engine.server import EngineServer, ServerConfig, ServerThread
from repro.engine.sharding import (
    SHARDS_MANIFEST_NAME,
    ShardedEngine,
    ShardedStats,
    ShardWorkerError,
    build_shards,
)
from repro.engine.topk import run_topk
from repro.engine.wal import (
    DURABILITY_LEVELS,
    AutoCompactionPolicy,
    WalBatch,
    WalCorruptionError,
    WriteAheadLog,
    wal_summary,
)
from repro.engine.wire import WIRE_SCHEMA_VERSION, WireFormatError


def open_engine(
    directory: str,
    *,
    cache_size: int = 0,
    wal_dir: str | None = None,
    auto_compact: bool = False,
    replicas: int = 1,
    mp_context: str | None = None,
) -> Engine:
    """Open an index directory for serving or mutation, whatever its layout.

    A directory written by :func:`build_shards` opens as a
    :class:`ShardedEngine` (``replicas`` workers per shard, started under
    ``mp_context``), a plain container as a :class:`SearchEngine`.  With
    ``wal_dir`` the engine is durable before it answers anything: one
    write-ahead log per shard, or a single ``<backend>.wal``, is attached
    and replayed (recovering acknowledged writes from a crash), and
    ``auto_compact`` arms the background delta-folding policy.
    """
    if os.path.exists(os.path.join(directory, SHARDS_MANIFEST_NAME)):
        return ShardedEngine(
            directory,
            cache_size=cache_size,
            mp_context=mp_context,
            wal_dir=wal_dir,
            auto_compact=auto_compact,
            replicas=replicas,
        )
    if replicas > 1:
        raise ValueError("replicas > 1 needs a sharded index (see 'build-shards')")
    engine = SearchEngine(cache_size=cache_size)
    backend_name = engine.load_index(directory).backend.name
    if wal_dir is not None:
        os.makedirs(wal_dir, exist_ok=True)
        engine.attach_wal(backend_name, os.path.join(wal_dir, f"{backend_name}.wal"))
        if auto_compact:
            engine.enable_auto_compaction(backend_name)
    return engine


__all__ = [
    "AutoCompactionPolicy",
    "Backend",
    "Container",
    "DURABILITY_LEVELS",
    "DeltaStore",
    "Engine",
    "EngineClient",
    "EngineClientError",
    "EngineServer",
    "EngineStats",
    "Query",
    "RequestError",
    "Response",
    "SearchEngine",
    "ServerBusyError",
    "ServerConfig",
    "ServerThread",
    "ServerUnavailableError",
    "ShardWorkerError",
    "ShardedEngine",
    "ShardedStats",
    "WIRE_SCHEMA_VERSION",
    "WalBatch",
    "WalCorruptionError",
    "WireFormatError",
    "WireResponse",
    "WriteAheadLog",
    "atomic_write_json",
    "available_backends",
    "build_shards",
    "get_backend",
    "load_container",
    "open_engine",
    "register_backend",
    "run_topk",
    "save_container",
    "wal_summary",
]
