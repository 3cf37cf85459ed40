"""A unified multi-domain query engine over the paper's four case studies.

The per-domain packages (:mod:`repro.hamming`, :mod:`repro.sets`,
:mod:`repro.strings`, :mod:`repro.graphs`) each expose their own dataset and
searcher classes; this subsystem puts one serving layer on top of them:

* :mod:`repro.engine.backend` -- the :class:`Backend` protocol and a registry
  mapping domain names to adapters.
* :mod:`repro.engine.backends` -- the four registered adapters.
* :mod:`repro.engine.api` -- the uniform :class:`Query` / :class:`Response`
  dataclasses.
* :mod:`repro.engine.executor` -- :class:`SearchEngine`: searcher reuse, an
  LRU result cache, batched and thread-pooled execution, latency statistics.
* :mod:`repro.engine.topk` -- top-k search via adaptive threshold escalation.
* :mod:`repro.engine.mutation` -- :class:`DeltaStore`: the delta/tombstone
  overlay behind online ``upsert`` / ``delete`` / ``compact``.
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
  HTTP/1.1 front-end with micro-batch coalescing, admission control and
  graceful drain over either engine.
* :mod:`repro.engine.client` -- the blocking :class:`EngineClient` and the
  :func:`asearch` coroutine.
* :mod:`repro.engine.cli` -- ``python -m repro.engine`` with ``build-index``,
  ``query``, ``build-shards``, ``serve``, ``upsert``, ``delete``,
  ``compact``, ``wal-inspect``, ``stats``, ``trace`` and ``profile``
  subcommands.

Mutations flow through the batched ``mutate(backend, ops)`` entry point
(``upsert``/``delete`` are one-op shims) on the engine, the sharded
engine, ``POST /mutate`` and the client alike; attach a write-ahead log
(``attach_wal`` / ``serve --wal-dir``) and each batch is fsync'd before
it is acknowledged, then replayed on the next load.

See ENGINE.md at the repository root for the architecture walkthrough.
"""

from repro.engine.api import Query, Response
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
    asearch,
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

__all__ = [
    "AutoCompactionPolicy",
    "Backend",
    "Container",
    "DURABILITY_LEVELS",
    "DeltaStore",
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
    "asearch",
    "atomic_write_json",
    "available_backends",
    "build_shards",
    "get_backend",
    "load_container",
    "register_backend",
    "run_topk",
    "save_container",
    "wal_summary",
]
