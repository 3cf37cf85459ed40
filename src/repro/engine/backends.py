"""The four domain backends of the engine (Sections 6.1-6.4 of the paper).

Each backend adapts one case-study package -- Hamming, sets, strings, graphs
-- to the :class:`repro.engine.backend.Backend` protocol and registers itself
under its domain name at import time.  The adapters hold no per-query state;
everything mutable lives in the engine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.common.scratch import csr_gather_indices, segment_sums, sorted_member_mask
from repro.common.stats import SearchResult
from repro.datasets.binary import gist_like
from repro.datasets.molecules import aids_like
from repro.datasets.text import imdb_like
from repro.datasets.tokens import dblp_like
from repro.engine.backend import Backend, empty_fold_error, register_backend
from repro.engine.persistence import atomic_write, atomic_write_json
from repro.graphs.dataset import GraphDataset
from repro.graphs.ged import ged_within, graph_edit_distance
from repro.graphs.graph import Graph
from repro.graphs.linear import LinearGraphSearcher
from repro.graphs.pars import ParsSearcher
from repro.graphs.ring import RingGraphSearcher
from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.gph import GPHSearcher
from repro.hamming.index import PartitionIndex
from repro.hamming.linear import LinearHammingSearcher
from repro.hamming.ring import RingHammingSearcher
from repro.sets.adaptsearch import AdaptSearchSearcher
from repro.sets.dataset import SetDataset
from repro.sets.linear import LinearSetSearcher
from repro.sets.partalloc import PartAllocSearcher
from repro.sets.pkwise import PkwiseSearcher
from repro.sets.ring import RingSetSearcher
from repro.sets.similarity import JaccardPredicate, OverlapPredicate
from repro.sets.tokens import TokenRecords, check_tokens
from repro.strings.dataset import StringDataset
from repro.strings.edit_distance import QueryMatcher
from repro.strings.linear import LinearStringSearcher
from repro.strings.pivotal import PivotalSearcher, fold_dataset
from repro.strings.ring import RingStringSearcher


def _write_json(directory: str, filename: str, payload: dict) -> None:
    atomic_write_json(os.path.join(directory, filename), payload)


def _write_npz(directory: str, filename: str, arrays: dict) -> None:
    # np.savez appends ".npz" to plain string paths, so the atomic temp file
    # goes through a file object instead of a name.
    atomic_write(os.path.join(directory, filename), lambda handle: np.savez(handle, **arrays))


def _read_json(directory: str, filename: str) -> dict | None:
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Hamming
# ---------------------------------------------------------------------------


@dataclass
class HammingStore:
    """A binary-vector dataset plus its build-once partition index."""

    dataset: BinaryVectorDataset
    index: PartitionIndex


class HammingBackend(Backend):
    """Hamming distance over binary vectors (GPH / pigeonring)."""

    name = "hamming"
    ladder_uses_max_size = False  # the ladder depends only on the dimension

    def prepare(self, dataset: Any) -> HammingStore:
        if isinstance(dataset, HammingStore):
            return dataset
        if not isinstance(dataset, BinaryVectorDataset):
            dataset = BinaryVectorDataset(np.asarray(dataset))
        return HammingStore(dataset=dataset, index=PartitionIndex(dataset))

    def describe(self, store: HammingStore) -> dict:
        return {
            "num_objects": len(store.dataset),
            "d": store.dataset.d,
            "num_parts": store.dataset.m,
        }

    def default_tau(self, store: HammingStore) -> int:
        return max(1, store.dataset.d // 8)

    def query_key(self, payload: Any) -> Hashable:
        vector = np.asarray(payload).reshape(-1)
        # Equal vectors share a key whatever dtype they arrive in, but only a
        # lossless narrowing may: a bare ``astype(np.uint8)`` wraps 257 onto
        # the key -- and the cached answer -- of 1.
        if vector.dtype != np.uint8:
            narrow = vector.astype(np.uint8)
            if (narrow == vector).all():
                vector = narrow
        return (vector.shape[0], vector.tobytes())

    def make_searcher(
        self,
        store: HammingStore,
        algorithm: str,
        tau: float | int,
        chain_length: int | None,
    ) -> Callable[[Any], SearchResult]:
        self.check_algorithm(algorithm)
        tau = int(tau)
        if algorithm == "ring":
            searcher = RingHammingSearcher(
                store.dataset, chain_length=chain_length or 5, index=store.index
            )
        elif algorithm == "baseline":
            searcher = GPHSearcher(store.dataset, index=store.index)
        else:
            searcher = LinearHammingSearcher(store.dataset)
        return lambda payload: searcher.search(payload, tau)

    def distances(
        self,
        store: HammingStore,
        payload: Any,
        ids: Sequence[int],
        tau: float | int | None,
    ) -> list[float]:
        if not ids:
            return []
        array = np.asarray(ids, dtype=np.int64)
        return store.dataset.distances_to_subset(payload, array).astype(float).tolist()

    def shard_store(self, store: HammingStore, lo: int, hi: int) -> BinaryVectorDataset:
        vectors = store.dataset.vectors[lo:hi]
        return BinaryVectorDataset(vectors, num_parts=store.dataset.m)

    def store_records(self, store: HammingStore) -> np.ndarray:
        return store.dataset.vectors

    def make_dataset(self, store: HammingStore, records: Sequence[Any]) -> BinaryVectorDataset:
        matrix = np.asarray([np.asarray(record, dtype=np.uint8) for record in records])
        return BinaryVectorDataset(matrix, num_parts=store.dataset.m)

    def check_record(self, store: HammingStore, record: Any) -> np.ndarray:
        vector = np.asarray(record, dtype=np.uint8).reshape(-1)
        if vector.shape[0] != store.dataset.d:
            raise ValueError(
                f"a hamming record must be a {store.dataset.d}-dimensional 0/1 "
                f"vector, got {vector.shape[0]} dimensions"
            )
        return vector

    def record_size(self, store: HammingStore, record: Any) -> int:
        return int(np.asarray(record).reshape(-1).shape[0])

    def record_distances(
        self,
        store: HammingStore,
        payload: Any,
        records: Sequence[Any],
        tau: float | int | None,
    ) -> list[float]:
        if not records:
            return []
        query = np.asarray(payload, dtype=np.uint8).reshape(-1)
        matrix = np.asarray([np.asarray(record, dtype=np.uint8).reshape(-1) for record in records])
        return np.count_nonzero(matrix != query, axis=1).astype(float).tolist()

    def payload_to_wire(self, payload: Any) -> list[int]:
        return [int(bit) for bit in np.asarray(payload).reshape(-1)]

    def payload_from_wire(self, data: Any) -> np.ndarray:
        # bytearray() takes exactly what a bit vector is made of -- a flat
        # sequence of ints (or bools) -- and refuses the floats, strings and
        # nested lists that ``np.asarray(data, dtype=np.uint8)`` would
        # truncate, parse or flatten without a word.
        message = "a hamming payload must be a flat, non-empty list of 0/1 integers"
        if not isinstance(data, (list, tuple)):
            raise ValueError(message)
        try:
            raw = bytearray(data)
        except (TypeError, ValueError):
            raise ValueError(message) from None
        if not raw or raw.count(0) + raw.count(1) != len(raw):
            raise ValueError(message)
        return np.frombuffer(raw, dtype=np.uint8)

    def tau_ladder(
        self,
        store: HammingStore,
        payload: Any,
        start: float | int | None,
        max_size: int | None = None,
    ) -> Iterable[int]:
        # The ladder depends only on the dimension, which every record shares,
        # so the live maximum (max_size) is irrelevant here.
        d = store.dataset.d
        tau = int(start) if start is not None else self.default_tau(store)
        tau = max(1, min(tau, d))
        while tau < d:
            yield tau
            tau *= 2
        yield d

    def save_store(self, store: HammingStore, directory: str) -> None:
        arrays = {
            "vectors": store.dataset.vectors.astype(np.uint8),
            "num_parts": np.asarray([store.dataset.m], dtype=np.int64),
        }
        for key, value in store.index.state().items():
            arrays[f"idx_{key}"] = value
        _write_npz(directory, "data.npz", arrays)

    def load_store(self, directory: str) -> HammingStore:
        with np.load(os.path.join(directory, "data.npz")) as data:
            dataset = BinaryVectorDataset(data["vectors"], num_parts=int(data["num_parts"][0]))
            state = {
                key[len("idx_") :]: data[key]
                for key in data.files
                if key.startswith("idx_")
            }
        index = PartitionIndex.from_state(dataset, state)
        return HammingStore(dataset=dataset, index=index)

    def save_queries(self, queries: Sequence[Any], directory: str) -> None:
        matrix = np.asarray([np.asarray(q).reshape(-1) for q in queries], dtype=np.uint8)
        _write_npz(directory, "queries.npz", {"queries": matrix})

    def load_queries(self, directory: str) -> list[Any] | None:
        path = os.path.join(directory, "queries.npz")
        if not os.path.exists(path):
            return None
        with np.load(path) as data:
            return [row for row in data["queries"]]

    def make_workload(
        self, size: int, num_queries: int, seed: int
    ) -> tuple[BinaryVectorDataset, list[Any]]:
        workload = gist_like(num_vectors=size, num_queries=num_queries, seed=seed)
        dataset = BinaryVectorDataset(workload.vectors, num_parts=8)
        return dataset, [row for row in workload.queries]


# ---------------------------------------------------------------------------
# Sets
# ---------------------------------------------------------------------------


def _set_predicate(tau: float | int):
    """Overlap for int thresholds, Jaccard for floats in (0, 1]."""
    if isinstance(tau, (int, np.integer)) and not isinstance(tau, bool):
        return OverlapPredicate(int(tau))
    tau = float(tau)
    if tau > 1.0:
        if not tau.is_integer():
            raise ValueError(
                f"a sets threshold above 1 is an overlap count and must be "
                f"integral, got {tau!r}"
            )
        return OverlapPredicate(int(tau))
    return JaccardPredicate(tau)


def _set_scores(
    overlaps: np.ndarray, sizes: np.ndarray, query_size: int, tau: float | int | None
) -> list[float]:
    """Rank scores from overlaps: ``-overlap`` under an overlap threshold,
    else ``-Jaccard`` (``-1.0`` for two empty sets), each a Python float
    division so that every caller's scores agree bit for bit."""
    if tau is not None and isinstance(_set_predicate(tau), OverlapPredicate):
        return [-float(count) for count in overlaps.tolist()]
    unions = sizes + query_size - overlaps
    return [
        -(count / union) if union else -1.0
        for count, union in zip(overlaps.tolist(), unions.tolist())
    ]


class SetBackend(Backend):
    """Set similarity (overlap / Jaccard) over token sets (pkwise / pigeonring)."""

    name = "sets"
    algorithms = ("ring", "baseline", "adapt", "partalloc", "linear")

    def validate_tau(self, tau: float | int) -> None:
        """Similarity thresholds: Jaccard in (0, 1], overlap >= 1.

        ``tau=0`` (or any non-positive threshold) matches nothing under
        overlap semantics and is undefined for Jaccard.  Delegates to the
        predicate constructors, so the rules and messages stay
        single-sourced with searcher construction; this merely runs them at
        query-validation / HTTP-400 time instead of deep inside a search.
        """
        _set_predicate(tau)

    def prepare(self, dataset: Any) -> SetDataset:
        if isinstance(dataset, SetDataset):
            return dataset
        return SetDataset(dataset)

    def describe(self, store: SetDataset) -> dict:
        return {"num_objects": len(store), "num_classes": store.num_classes}

    def default_tau(self, store: SetDataset) -> float:
        return 0.8

    def query_key(self, payload: Any) -> Hashable:
        return tuple(sorted(set(check_tokens(payload))))

    def make_searcher(
        self,
        store: SetDataset,
        algorithm: str,
        tau: float | int,
        chain_length: int | None,
    ) -> Callable[[Any], SearchResult]:
        self.check_algorithm(algorithm)
        predicate = _set_predicate(tau)
        if algorithm == "ring":
            searcher = RingSetSearcher(store, predicate, chain_length=chain_length or 2)
        elif algorithm == "baseline":
            searcher = PkwiseSearcher(store, predicate)
        elif algorithm == "adapt":
            searcher = AdaptSearchSearcher(store, predicate)
        elif algorithm == "partalloc":
            searcher = PartAllocSearcher(store, predicate)
        else:
            searcher = LinearSetSearcher(store, predicate)
        return searcher.search

    def distances(
        self,
        store: SetDataset,
        payload: Any,
        ids: Sequence[int],
        tau: float | int | None,
    ) -> list[float]:
        # The verifier's kernel over the stored columns: gather the ids' rank
        # rows, match them against the sorted encoded query, segment-sum.
        if not ids:
            return []
        query = np.asarray(store.encode_query(payload), dtype=np.int64)
        columns = store.columns()
        rows = np.asarray(ids, dtype=np.int64)
        starts, ends = columns.offsets[rows], columns.offsets[rows + 1]
        hits = sorted_member_mask(query, columns.tokens[csr_gather_indices(starts, ends)])
        boundaries = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=boundaries[1:])
        return _set_scores(segment_sums(hits, boundaries), columns.sizes[rows], query.size, tau)

    def shard_store(self, store: SetDataset, lo: int, hi: int) -> SetDataset:
        return SetDataset(store.raw_records[lo:hi], num_classes=store.num_classes)

    def store_records(self, store: SetDataset) -> TokenRecords:
        return store.raw_records

    def make_dataset(self, store: SetDataset, records: Sequence[Any]) -> SetDataset:
        return SetDataset(list(records), num_classes=store.num_classes)

    def check_record(self, store: SetDataset, record: Any) -> list[int]:
        tokens = check_tokens(record)
        if not tokens:
            raise ValueError("a sets record needs at least one token")
        return tokens

    def record_size(self, store: SetDataset, record: Any) -> int:
        return len(set(record))

    def store_sizes(self, store: SetDataset) -> np.ndarray:
        return store.columns().sizes

    def record_distances(
        self,
        store: SetDataset,
        payload: Any,
        records: Sequence[Any],
        tau: float | int | None,
    ) -> list[float]:
        # The whole delta in one kernel: every record's distinct tokens are
        # concatenated and matched against the sorted query with a single
        # searchsorted sweep; per-record overlaps fall out of segment sums.
        # Token ranks are a bijection on tokens (``TokenOrder.encode`` gives
        # distinct unseen tokens distinct ranks), so intersection/union
        # sizes -- hence overlap and Jaccard -- are identical whether
        # computed on raw tokens or on ranks.
        if not records:
            return []
        query = np.unique(np.asarray(check_tokens(payload), dtype=np.int64))
        distinct = [np.unique(np.asarray(list(record), dtype=np.int64)) for record in records]
        sizes = np.asarray([tokens.size for tokens in distinct], dtype=np.int64)
        flat = np.concatenate(distinct) if distinct else np.empty(0, dtype=np.int64)
        hits = sorted_member_mask(query, flat)
        boundaries = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(sizes, out=boundaries[1:])
        return _set_scores(segment_sums(hits, boundaries), sizes, query.size, tau)

    def score_matches(self, score: float, tau: float | int) -> bool:
        return -score >= float(tau)

    def payload_to_wire(self, payload: Any) -> list[int]:
        return [int(token) for token in payload]

    def payload_from_wire(self, data: Any) -> list[int]:
        if not isinstance(data, (list, tuple)):
            raise ValueError("a sets payload must be a list of token ids")
        return check_tokens(data)

    def tau_ladder(
        self,
        store: SetDataset,
        payload: Any,
        start: float | int | None,
        max_size: int | None = None,
    ) -> Iterable[float | int]:
        if start is not None and isinstance(_set_predicate(start), OverlapPredicate):
            tau = int(start)
            while tau > 1:
                yield tau
                tau = tau // 2
            yield 1
            return
        # Jaccard: any pair sharing one token has J >= 1 / |union|.
        if max_size is None:
            max_size = int(store.columns().sizes.max())
        floor = 1.0 / max(1, len(set(payload)) + max_size)
        tau = float(start) if start is not None else self.default_tau(store)
        while tau > floor:
            yield tau
            tau /= 2.0
        yield floor

    def save_store(self, store: SetDataset, directory: str) -> None:
        raw = store.raw_records
        arrays = {
            "tokens": raw.tokens,
            "offsets": raw.offsets,
            "num_classes": np.asarray([store.num_classes], dtype=np.int64),
        }
        _write_npz(directory, "data.npz", arrays)

    def load_store(self, directory: str) -> SetDataset:
        with np.load(os.path.join(directory, "data.npz")) as data:
            raw = TokenRecords(data["tokens"], data["offsets"])
            return SetDataset(raw, num_classes=int(data["num_classes"][0]))

    def save_queries(self, queries: Sequence[Any], directory: str) -> None:
        _write_json(
            directory,
            "queries.json",
            {"queries": [list(map(int, query)) for query in queries]},
        )

    def load_queries(self, directory: str) -> list[Any] | None:
        data = _read_json(directory, "queries.json")
        return None if data is None else data["queries"]

    def make_workload(self, size: int, num_queries: int, seed: int) -> tuple[SetDataset, list[Any]]:
        workload = dblp_like(num_records=size, num_queries=num_queries, seed=seed)
        return SetDataset(workload.records, num_classes=4), list(workload.queries)


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


class StringBackend(Backend):
    """Edit distance over strings (Pivotal / pigeonring)."""

    name = "strings"
    algorithms = ("ring", "baseline", "linear")

    def prepare(self, dataset: Any) -> StringDataset:
        if isinstance(dataset, StringDataset):
            return dataset
        return StringDataset(dataset)

    def describe(self, store: StringDataset) -> dict:
        return {"num_objects": len(store), "kappa": store.kappa}

    def default_tau(self, store: StringDataset) -> int:
        return 2

    def query_key(self, payload: Any) -> Hashable:
        # The payload is its own key; ``str(payload)`` would file ``b'abc'``
        # under the string "b'abc'" and serve one's cached answer to the other.
        return self.payload_from_wire(payload)

    def make_searcher(
        self,
        store: StringDataset,
        algorithm: str,
        tau: float | int,
        chain_length: int | None,
    ) -> Callable[[Any], SearchResult]:
        self.check_algorithm(algorithm)
        tau = int(tau)
        if algorithm == "linear" or tau < 1:
            searcher = LinearStringSearcher(store)
            return lambda payload: searcher.search(payload, tau)
        if algorithm == "ring":
            searcher = RingStringSearcher(store, tau, chain_length=chain_length)
        else:
            searcher = PivotalSearcher(store, tau)
        return searcher.search

    def distances(
        self, store: StringDataset, payload: Any, ids: Sequence[int], tau: float | int | None
    ) -> list[float]:
        records = store.records
        return self.record_distances(store, payload, [records[obj_id] for obj_id in ids], tau)

    def shard_store(self, store: StringDataset, lo: int, hi: int) -> StringDataset:
        return StringDataset(store.records[lo:hi], kappa=store.kappa)

    def store_records(self, store: StringDataset) -> list[str]:
        return store.records

    def make_dataset(self, store: StringDataset, records: Sequence[Any]) -> StringDataset:
        return StringDataset(list(records), kappa=store.kappa)

    def apply_mutations(self, store: StringDataset, delta: Any) -> tuple[StringDataset, Any]:
        # The fold keeps the store's gram order, so the indexes its
        # searchers hold are spliced rather than rebuilt (``fold_dataset``).
        live_ids, kept, added, from_added = delta.live_layout()
        if not live_ids.size:
            raise empty_fold_error(self.name)
        return fold_dataset(store, kept, added, from_added), delta.compacted(live_ids)

    def check_record(self, store: StringDataset, record: Any) -> str:
        if not isinstance(record, str):
            raise ValueError(f"a strings record must be a string, got {type(record).__name__}")
        if not record:
            raise ValueError("a strings record must be non-empty")
        return record

    def record_size(self, store: StringDataset, record: Any) -> int:
        return len(record)

    def store_sizes(self, store: StringDataset) -> np.ndarray:
        return store.columns().lengths

    def record_distances(
        self, store: StringDataset, payload: Any, records: Sequence[Any], tau: float | int | None
    ) -> list[float]:
        matcher = QueryMatcher(payload)
        return [float(matcher.distance(record)) for record in records]

    def scan_records(
        self, store: StringDataset, payload: Any, records: Sequence[Any], tau: float | int
    ) -> list[bool]:
        # The ring's batch verifier: the length and q-gram count filter rule
        # out nearly every record in one pass, Myers decides the rest.
        matches = [False] * len(records)
        for index in QueryMatcher(payload).indexes_within(records, int(tau), store.kappa):
            matches[index] = True
        return matches

    def payload_from_wire(self, data: Any) -> str:
        if not isinstance(data, str):
            raise ValueError("a strings payload must be a string")
        return data

    def tau_ladder(
        self,
        store: StringDataset,
        payload: Any,
        start: float | int | None,
        max_size: int | None = None,
    ) -> Iterable[int]:
        if max_size is None:
            max_size = int(store.columns().lengths.max())
        max_tau = max(max_size, len(payload), 1)
        tau = int(start) if start is not None else 1
        tau = max(1, min(tau, max_tau))
        while tau < max_tau:
            yield tau
            tau *= 2
        yield max_tau

    def save_store(self, store: StringDataset, directory: str) -> None:
        columns = store.columns()
        codes = columns.codes
        # The narrowest unsigned type that holds every code point (one byte
        # per character for Latin-1 text); the loader widens it back.
        dtype = np.min_scalar_type(int(codes.max())) if codes.size else np.uint8
        arrays = {
            "codes": codes.astype(dtype),
            "offsets": columns.offsets,
            "kappa": np.asarray([store.kappa], dtype=np.int64),
        }
        _write_npz(directory, "data.npz", arrays)

    def load_store(self, directory: str) -> StringDataset:
        with np.load(os.path.join(directory, "data.npz")) as data:
            return StringDataset.from_code_points(
                data["codes"], data["offsets"], kappa=int(data["kappa"][0])
            )

    def save_queries(self, queries: Sequence[Any], directory: str) -> None:
        _write_json(directory, "queries.json", {"queries": list(queries)})

    def load_queries(self, directory: str) -> list[Any] | None:
        data = _read_json(directory, "queries.json")
        return None if data is None else data["queries"]

    def make_workload(
        self, size: int, num_queries: int, seed: int
    ) -> tuple[StringDataset, list[Any]]:
        workload = imdb_like(num_records=size, num_queries=num_queries, seed=seed)
        return StringDataset(workload.records, kappa=2), list(workload.queries)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def _graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": [[vertex, graph.vertex_label(vertex)] for vertex in graph.vertices],
        "edges": [[u, v, label] for u, v, label in graph.edges()],
    }


def _graph_from_json(data: dict) -> Graph:
    graph = Graph()
    for vertex, label in data["vertices"]:
        graph.add_vertex(vertex, label)
    for u, v, label in data["edges"]:
        graph.add_edge(u, v, label)
    return graph


class GraphBackend(Backend):
    """Graph edit distance over labelled graphs (Pars / pigeonring)."""

    name = "graphs"
    algorithms = ("ring", "baseline", "linear")

    def prepare(self, dataset: Any) -> GraphDataset:
        if isinstance(dataset, GraphDataset):
            return dataset
        return GraphDataset(dataset)

    def describe(self, store: GraphDataset) -> dict:
        return {"num_objects": len(store)}

    def default_tau(self, store: GraphDataset) -> int:
        return 3

    def query_key(self, payload: Graph) -> Hashable:
        vertices = tuple(
            sorted(
                ((vertex, payload.vertex_label(vertex)) for vertex in payload.vertices),
                key=repr,
            )
        )
        edges = tuple(sorted(payload.edges(), key=repr))
        return (vertices, edges)

    def make_searcher(
        self,
        store: GraphDataset,
        algorithm: str,
        tau: float | int,
        chain_length: int | None,
    ) -> Callable[[Any], SearchResult]:
        self.check_algorithm(algorithm)
        tau = int(tau)
        if algorithm == "linear" or tau < 1:
            searcher = LinearGraphSearcher(store)
            return lambda payload: searcher.search(payload, tau)
        if algorithm == "ring":
            searcher = RingGraphSearcher(store, tau, chain_length=chain_length)
        else:
            searcher = ParsSearcher(store, tau)
        return searcher.search

    def distances(
        self, store: GraphDataset, payload: Graph, ids: Sequence[int], tau: float | int | None
    ) -> list[float]:
        # Capping the branch-and-bound keeps ranking cheap; top-k only ranks
        # ids that already matched at threshold tau, whose GED is <= tau.
        upper = int(tau) if tau is not None else None
        return [
            float(graph_edit_distance(store.graph(obj_id), payload, upper_bound=upper))
            for obj_id in ids
        ]

    #: largest GED threshold top-k escalation will reach.  Exact GED is
    #: exponential in the threshold, so beyond this radius even a brute-force
    #: scan is intractable; graph top-k is best-effort within it and may
    #: return fewer than k results.
    escalation_cap = 10

    def shard_store(self, store: GraphDataset, lo: int, hi: int) -> GraphDataset:
        return GraphDataset(store.graphs[lo:hi])

    def store_records(self, store: GraphDataset) -> list[Graph]:
        return store.graphs

    def make_dataset(self, store: GraphDataset, records: Sequence[Any]) -> GraphDataset:
        return GraphDataset(list(records))

    def check_record(self, store: GraphDataset, record: Any) -> Graph:
        if not isinstance(record, Graph):
            raise ValueError(f"a graphs record must be a Graph, got {type(record).__name__}")
        if record.num_vertices < 1:
            raise ValueError("a graphs record needs at least one vertex")
        return record

    def record_size(self, store: GraphDataset, record: Graph) -> int:
        return record.num_vertices + record.num_edges

    def store_sizes(self, store: GraphDataset) -> np.ndarray:
        columns = store.columns()
        return columns.num_vertices + columns.num_edges

    def record_distances(
        self, store: GraphDataset, payload: Graph, records: Sequence[Any], tau: float | int | None
    ) -> list[float]:
        upper = int(tau) if tau is not None else None
        return [
            float(graph_edit_distance(record, payload, upper_bound=upper)) for record in records
        ]

    def scan_records(
        self, store: GraphDataset, payload: Graph, records: Sequence[Any], tau: float | int
    ) -> list[bool]:
        # The delta scan only needs the predicate; ``ged_within`` prunes the
        # branch-and-bound harder than a capped exact distance.
        limit = int(tau)
        return [ged_within(record, payload, limit) for record in records]

    def payload_to_wire(self, payload: Graph) -> dict:
        return _graph_to_json(payload)

    def payload_from_wire(self, data: Any) -> Graph:
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise ValueError("a graphs payload must be a {vertices, edges} object")
        return _graph_from_json(data)

    def tau_ladder(
        self,
        store: GraphDataset,
        payload: Graph,
        start: float | int | None,
        max_size: int | None = None,
    ) -> Iterable[int]:
        if max_size is None:
            max_size = int(self.store_sizes(store).max())
        cap = min(max_size + payload.num_vertices + payload.num_edges, self.escalation_cap)
        tau = int(start) if start is not None else 1
        tau = max(1, min(tau, cap))
        # GED verification cost grows steeply with tau, so escalate in +1
        # steps: overshooting by doubling is far more expensive than the
        # extra rungs.
        while tau < cap:
            yield tau
            tau += 1
        yield cap

    def save_store(self, store: GraphDataset, directory: str) -> None:
        _write_json(
            directory,
            "data.json",
            {"graphs": [_graph_to_json(graph) for graph in store.graphs]},
        )

    def load_store(self, directory: str) -> GraphDataset:
        data = _read_json(directory, "data.json")
        return GraphDataset([_graph_from_json(entry) for entry in data["graphs"]])

    def save_queries(self, queries: Sequence[Graph], directory: str) -> None:
        _write_json(
            directory,
            "queries.json",
            {"queries": [_graph_to_json(query) for query in queries]},
        )

    def load_queries(self, directory: str) -> list[Graph] | None:
        data = _read_json(directory, "queries.json")
        if data is None:
            return None
        return [_graph_from_json(entry) for entry in data["queries"]]

    def make_workload(
        self, size: int, num_queries: int, seed: int
    ) -> tuple[GraphDataset, list[Graph]]:
        workload = aids_like(num_graphs=size, num_queries=num_queries, seed=seed)
        return GraphDataset(workload.graphs), list(workload.queries)


HAMMING = register_backend(HammingBackend())
SETS = register_backend(SetBackend())
STRINGS = register_backend(StringBackend())
GRAPHS = register_backend(GraphBackend())
