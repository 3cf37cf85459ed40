"""The uniform query API of the multi-domain search engine.

Every request against the engine -- whichever of the four domains answers it
-- is a :class:`Query`, and every answer is a :class:`Response`.  A query
either carries a threshold ``tau`` (thresholded selection, the paper's
problem statement) or a result count ``k`` (top-k search, implemented on top
of tau-selection by adaptive threshold escalation; see
:mod:`repro.engine.topk`).

:class:`Engine` is the other half of the API: the one contract both engines
-- :class:`repro.engine.executor.SearchEngine` in process,
:class:`repro.engine.sharding.ShardedEngine` over worker processes -- meet
with the same signatures and the same return keys, so the server, the CLI
and the client never ask which of the two they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.common.obs import MetricsRegistry


def _is_int(value: Any) -> bool:
    """True for genuine integers (bool is excluded: True is not a count)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Query:
    """One request against the engine.

    Attributes:
        backend: registered backend name (``hamming``, ``sets``, ``strings``
            or ``graphs``).
        payload: the domain query object -- a binary vector, a token set, a
            string, or a :class:`repro.graphs.graph.Graph`.
        tau: selection threshold.  Distances for ``hamming`` / ``strings`` /
            ``graphs``; a similarity threshold for ``sets`` (a float in
            ``(0, 1]`` means Jaccard, an integer ``>= 1`` means overlap).
            Optional for top-k queries, where it seeds the escalation ladder.
        k: when set, run a top-k search instead of a thresholded selection.
        chain_length: pigeonring chain length ``l``; ``None`` picks the
            backend's paper-tuned default.
        algorithm: which searcher family answers the query; every backend
            understands ``ring`` (pigeonring), ``baseline`` (the paper's
            per-domain baseline: GPH / pkwise / Pivotal / Pars) and
            ``linear`` (brute force); sets also accepts ``adapt`` and
            ``partalloc``.
        trace_id: when set, the engine records a span timeline for this
            query and attaches it as ``Response.trace``.  The server keys
            the request's trace document by it -- span timeline plus the
            query summary, under ``/debug/traces``, where a request at or
            over the slow-query threshold is always kept (:class:`repro.
            common.diag.TailSampler`) -- and it becomes the OpenMetrics
            exemplar on the latency-histogram bucket the query lands in
            (see :mod:`repro.common.obs`), so a slow bucket on ``/metrics``
            resolves to that document.  Excluded from equality/hashing so
            tracing never perturbs the result cache.
        session: read-your-writes session token -- the ``wal_seq`` map the
            caller's last mutation was acknowledged at, rendered as
            ``"shard:seq,shard:seq"`` (see :func:`repro.engine.wire.
            format_session`).  A replicated engine skips replicas that have
            not yet applied the token's sequence for their shard.  Excluded
            from equality/hashing: the token constrains *routing*, never
            the answer, so it must not perturb the result cache.
    """

    backend: str
    payload: Any
    tau: float | int | None = None
    k: int | None = None
    chain_length: int | None = None
    algorithm: str = "ring"
    trace_id: str | None = field(default=None, compare=False)
    session: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.tau is None and self.k is None:
            raise ValueError("a query needs a threshold tau, a result count k, or both")
        if self.k is not None:
            if not _is_int(self.k):
                raise ValueError(f"k must be an integer, got {self.k!r}")
            if self.k < 1:
                raise ValueError("k must be at least 1")
        if self.tau is not None:
            if not _is_number(self.tau):
                raise ValueError(f"tau must be a number, got {self.tau!r}")
            if math.isnan(self.tau):
                raise ValueError("tau must not be NaN")
            if math.isinf(self.tau):
                raise ValueError("tau must be finite")
            if self.tau < 0:
                raise ValueError(f"tau must be non-negative, got {self.tau!r}")
        if self.chain_length is not None:
            if not _is_int(self.chain_length):
                raise ValueError(f"chain_length must be an integer, got {self.chain_length!r}")
            if self.chain_length < 1:
                raise ValueError("chain_length must be at least 1")


@dataclass
class Response:
    """The engine's answer to one :class:`Query`.

    Attributes:
        query: the query that produced this response.
        ids: ids of the matching data objects.  For top-k queries they are
            ordered best-first; for thresholded queries they are ascending,
            in both engines and whatever the searcher's emission order.
        scores: exact distances (or negated similarities for ``sets``) of the
            returned ids; populated for top-k queries, ``None`` otherwise.
        tau_effective: the threshold that produced the result -- the query's
            own ``tau``, or the final rung of the top-k escalation ladder.
        num_candidates: objects that reached verification (filter output).
        num_generated: objects that *entered* the filter pipeline before the
            chain checks (reported by the ring searchers; ``None`` when
            the searcher does not track it).
        candidate_time / verify_time: searcher-reported seconds, as in
            :class:`repro.common.stats.SearchResult`.
        engine_time: wall-clock seconds spent inside the engine for this
            query, including searcher construction and cache bookkeeping.
        cached: True when the response was served from the result cache.
        trace: span timeline recorded for this query (see
            :mod:`repro.common.obs`); ``None`` unless the query carried a
            ``trace_id``.
    """

    query: Query
    ids: list[int] = field(default_factory=list)
    scores: list[float] | None = None
    tau_effective: float | int | None = None
    num_candidates: int = 0
    num_generated: int | None = None
    candidate_time: float = 0.0
    verify_time: float = 0.0
    engine_time: float = 0.0
    cached: bool = False
    trace: dict | None = None

    @property
    def num_results(self) -> int:
        return len(self.ids)

    @property
    def total_time(self) -> float:
        """Searcher-reported filtering plus verification time."""
        return self.candidate_time + self.verify_time


class EngineStatsView(Protocol):
    """What every engine's ``stats`` object offers."""

    registry: MetricsRegistry

    def snapshot(self) -> dict:
        """JSON-friendly serving totals (the ``engine`` half of ``/stats``)."""


class Engine(Protocol):
    """The engine contract: everything the serving stack calls on an engine.

    A declaration only -- mypy checks both engine classes against it and
    nothing tests for it at run time.  Wherever ``backend`` defaults to
    ``None`` it means "the one attached backend"; with several (or none)
    attached that is a :class:`ValueError` naming them.  ENGINE.md's "Engine
    contract" table lists the return keys and what the sharded engine adds.
    """

    @property
    def stats(self) -> EngineStatsView: ...

    def search(self, query: Query) -> Response: ...

    def mutate(
        self, backend_name: str, ops: Sequence[dict], durability: str | None = None
    ) -> dict: ...

    def compact(self, backend_name: str | None = None) -> dict: ...

    def mutation_info(self, backend_name: str | None = None) -> dict: ...

    def durability_info(self, backend_name: str | None = None) -> dict: ...

    def wait_for_compaction(
        self, backend_name: str | None = None, timeout: float | None = None
    ) -> bool: ...

    def flush(self) -> None:
        """Persist back to where the engine was opened from."""

    def describe(self) -> dict:
        """``{"engine", "backends": {name: {"descriptor", "default_tau"}}}``."""

    def shard_health(self) -> list[dict]: ...

    def replica_status(self) -> list[dict]: ...

    def profile_wire(self) -> list[dict]: ...

    def start_profiling(self) -> None: ...

    def stop_profiling(self) -> None: ...

    def metrics_wire(self) -> dict: ...

    def reset_stats(self) -> None: ...

    def close(self) -> None: ...
