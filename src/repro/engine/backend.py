"""Backend protocol and registry of the multi-domain search engine.

A *backend* adapts one of the paper's four case studies (Hamming, set,
string, graph tau-selection) to the engine's uniform query API.  Each backend
knows how to

* wrap a raw domain dataset into a servable *store* (``prepare``), building
  any persistent index exactly once,
* construct searchers for a given algorithm / threshold / chain length,
* compute the exact distance (rank score) between a query payload and one
  data object, used to order top-k results,
* produce the adaptive threshold-escalation ladder top-k search walks, and
* save / load its store to an on-disk container directory.

Backends register themselves in a process-wide registry under a short name;
the engine resolves queries through :func:`get_backend`.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.common.stats import SearchResult


def empty_fold_error(name: str) -> ValueError:
    """Why a compaction that would leave no live record is refused."""
    return ValueError(
        f"compacting would leave backend {name!r} with zero live "
        f"records; the domain datasets cannot be empty"
    )


class Backend(abc.ABC):
    """Adapter between one similarity domain and the engine."""

    #: registry name, e.g. ``"hamming"``.
    name: str = ""
    #: algorithm names :meth:`make_searcher` accepts.
    algorithms: tuple[str, ...] = ("ring", "baseline", "linear")

    # -- dataset lifecycle -------------------------------------------------

    def prepare(self, dataset: Any) -> Any:
        """Wrap a raw domain dataset into the store the engine serves from.

        The default is the identity; backends with a persistent index (e.g.
        Hamming's partition index) build it here, once.
        """
        return dataset

    @abc.abstractmethod
    def describe(self, store: Any) -> dict:
        """Human-readable store parameters for manifests and CLIs."""

    @abc.abstractmethod
    def default_tau(self, store: Any) -> float | int:
        """A sensible domain threshold for demos and benchmarks."""

    # -- query plumbing ----------------------------------------------------

    @abc.abstractmethod
    def query_key(self, payload: Any) -> Hashable:
        """A hashable, equality-faithful key for the result cache."""

    @abc.abstractmethod
    def make_searcher(
        self,
        store: Any,
        algorithm: str,
        tau: float | int,
        chain_length: int | None,
    ) -> Callable[[Any], SearchResult]:
        """A ``payload -> SearchResult`` callable for one configuration."""

    @abc.abstractmethod
    def distances(
        self,
        store: Any,
        payload: Any,
        ids: Sequence[int],
        tau: float | int | None,
    ) -> list[float]:
        """Exact rank scores of many objects (lower is better).

        For distance domains this is the distance itself; for similarity
        domains it is the negated similarity, so that sorting ascending
        always yields best-first order.
        """

    def validate_tau(self, tau: float | int) -> None:
        """Reject thresholds that are meaningless for this domain.

        Called by the engine before serving and by the wire decoder before
        admitting a request, so a bad threshold fails with a clear message
        instead of an obscure error deep inside a searcher.  The default
        accepts anything :class:`repro.engine.api.Query` accepts (finite,
        non-NaN, non-negative); similarity domains override.
        """

    @abc.abstractmethod
    def tau_ladder(
        self,
        store: Any,
        payload: Any,
        start: float | int | None,
        max_size: int | None = None,
    ) -> Iterable[float | int]:
        """Escalating thresholds for top-k search, selective to permissive.

        The final rung should be exhaustive -- running it with the ``linear``
        algorithm returns every object comparable to the payload -- except
        where the domain's distance makes that intractable (exact GED is
        exponential in the threshold; the graphs backend caps the ladder and
        serves best-effort top-k within that radius).

        ``max_size`` is the largest :meth:`record_size` among the objects the
        ladder must be exhaustive over.  The engine passes the *live* maximum
        (main minus tombstones, plus delta) so that a mutated index walks
        exactly the ladder a from-scratch rebuild of the surviving records
        would walk; ``None`` means "compute it from the store" (every object
        in the main store is live).
        """

    # -- wire format -------------------------------------------------------

    def payload_to_wire(self, payload: Any) -> Any:
        """A JSON-serialisable form of a query payload for the HTTP API.

        The default is the identity, which suits domains whose payloads are
        already JSON-native (token-id lists, strings).  Backends with richer
        payloads (numpy vectors, graphs) override both directions.
        """
        return payload

    def payload_from_wire(self, data: Any) -> Any:
        """Rebuild a query payload from its :meth:`payload_to_wire` form."""
        return data

    # -- sharding ----------------------------------------------------------

    def store_size(self, store: Any) -> int:
        """Number of data objects in the store (the id space is ``range(n)``)."""
        return int(self.describe(store)["num_objects"])

    @abc.abstractmethod
    def shard_store(self, store: Any, lo: int, hi: int) -> Any:
        """A raw dataset holding objects ``[lo, hi)`` with local ids ``0..hi-lo``.

        The slice preserves the store's construction parameters (partition
        count, token classes, q-gram length, ...) so that ``prepare`` on the
        slice builds a shard equivalent to a fraction of the original.  Used
        by :mod:`repro.engine.sharding` to split one dataset into id-range
        shards; global ids are recovered as ``local_id + lo``.
        """

    # -- mutation ----------------------------------------------------------

    #: Whether :meth:`tau_ladder` actually depends on ``max_size``.  When
    #: False (Hamming: the ladder depends only on the shared dimension) the
    #: engine skips the live size scan before every top-k query.
    ladder_uses_max_size: bool = True

    def apply_mutations(self, store: Any, delta: Any) -> tuple[Any, Any]:
        """Fold an overlay into a rebuilt main store (compaction).

        Returns the rebuilt, prepared store plus the overlay of the rebuilt
        store (empty delta and tombstones; the external-id mapping and
        ``next_id`` survive, so ids stay stable across compactions).
        """
        live_ids, records = delta.live_records(self.store_records(store))
        if not records:
            raise empty_fold_error(self.name)
        rebuilt = self.prepare(self.make_dataset(store, records))
        return rebuilt, delta.compacted(live_ids)

    @abc.abstractmethod
    def store_records(self, store: Any) -> Sequence[Any]:
        """The raw records of a store, indexed by main position."""

    @abc.abstractmethod
    def make_dataset(self, store: Any, records: Sequence[Any]) -> Any:
        """A raw dataset over ``records`` preserving the store's parameters.

        Like :meth:`shard_store`, but from an explicit record list; used by
        compaction to rebuild the main store from the surviving records.
        """

    def check_record(self, store: Any, record: Any) -> Any:
        """Validate (and normalise) a record before it enters the delta.

        Raises ``ValueError`` for records the store could never hold (wrong
        vector dimension, wrong type); upsert fails fast instead of poisoning
        every later search.
        """
        return record

    def record_size(self, store: Any, record: Any) -> int:
        """The :meth:`tau_ladder` size measure of one raw record."""
        return 1

    def store_sizes(self, store: Any) -> np.ndarray:
        """:meth:`record_size` of every main record, indexed by main position."""
        return np.array([self.record_size(store, record) for record in self.store_records(store)])

    @abc.abstractmethod
    def record_distances(
        self, store: Any, payload: Any, records: Sequence[Any], tau: float | int | None
    ) -> list[float]:
        """Exact rank scores between a payload and raw records (lower wins).

        The delta-store counterpart of :meth:`distances`: the records are
        not in the main store, so they are scored directly -- the engine
        scores a mutated index's whole delta in one call.  Must agree, bit
        for bit, with what :meth:`distances` would return once the records
        are folded into the main store.
        """

    def score_matches(self, score: float, tau: float | int) -> bool:
        """Whether a :meth:`record_distances` score satisfies threshold ``tau``.

        Distance domains match when ``score <= tau``; similarity domains
        (which negate their similarity into the score) override.
        """
        return score <= tau

    def scan_records(
        self, store: Any, payload: Any, records: Sequence[Any], tau: float | int
    ) -> list[bool]:
        """Which raw records satisfy threshold ``tau`` against ``payload``.

        The engine's delta-store scan: like ``score_matches`` over
        :meth:`record_distances`, but backends may override with a cheaper
        predicate-only kernel (e.g. strings' batch verifier, whose length
        and q-gram count filter rules out most records before Myers decides
        the rest).  Must agree with ``score_matches`` over
        :meth:`record_distances` on every record.
        """
        return [
            self.score_matches(score, tau)
            for score in self.record_distances(store, payload, records, tau)
        ]

    def record_to_wire(self, record: Any) -> Any:
        """JSON form of a data record; defaults to the payload codec."""
        return self.payload_to_wire(record)

    def record_from_wire(self, data: Any) -> Any:
        """Rebuild a data record from :meth:`record_to_wire` output."""
        return self.payload_from_wire(data)

    # -- persistence -------------------------------------------------------

    @abc.abstractmethod
    def save_store(self, store: Any, directory: str) -> None:
        """Write the store (dataset + any prebuilt index) into ``directory``."""

    @abc.abstractmethod
    def load_store(self, directory: str) -> Any:
        """Restore a store written by :meth:`save_store`."""

    @abc.abstractmethod
    def save_queries(self, queries: Sequence[Any], directory: str) -> None:
        """Persist a sample query workload next to the store."""

    @abc.abstractmethod
    def load_queries(self, directory: str) -> list[Any] | None:
        """Load the persisted workload, or ``None`` when absent."""

    # -- synthetic workloads (CLI) ----------------------------------------

    @abc.abstractmethod
    def make_workload(self, size: int, num_queries: int, seed: int) -> tuple[Any, list[Any]]:
        """A synthetic ``(raw dataset, query payloads)`` pair for the CLI."""

    # -- shared helpers ----------------------------------------------------

    def check_algorithm(self, algorithm: str) -> None:
        if algorithm not in self.algorithms:
            raise ValueError(
                f"backend {self.name!r} does not implement algorithm "
                f"{algorithm!r}; choose one of {sorted(self.algorithms)}"
            )


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register a backend instance under its ``name``."""
    if not backend.name:
        raise ValueError("backends must define a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look a backend up by name, with a helpful error for typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown backend {name!r}; registered backends: {known}") from None


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)
