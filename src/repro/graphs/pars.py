"""The Pars baseline for graph edit distance search (pigeonhole principle).

Pars [136] partitions every data graph into ``tau + 1`` disjoint parts; a data
graph is a candidate only if at least one part is subgraph-isomorphic to the
query.  Candidates are verified with the threshold-limited exact GED.

The filter runs cheapest step first.  The label-multiset lower bound of the
edit distance -- the first thing verification would compute for a pair -- is
evaluated for the whole corpus in one numpy expression over the dataset's
count matrices (:meth:`repro.graphs.columns.GraphColumns.label_bounds`), and
only the graphs it leaves (a few per cent of an AIDS-like corpus) have their
parts matched against the query.  A part is tested by label-count containment
first and by the isomorphism search second; parts are cut from the encoded
graph the first time a query reaches it.  This is the reproduction's
substitution for Pars's partition index.
"""

from __future__ import annotations

import numpy as np

from repro.common.obs import span
from repro.common.stats import SearchResult, Timer
from repro.graphs.columns import EncodedGraph
from repro.graphs.dataset import GraphDataset
from repro.graphs.ged import encoded_distance
from repro.graphs.graph import Graph
from repro.graphs.isomorphism import encoded_mapping_cost
from repro.graphs.partition import partition_encoded, partition_graph


def _labels_contained(part: EncodedGraph, query: EncodedGraph) -> bool:
    """Necessary condition for subgraph isomorphism: label multisets contained."""
    counts = query.vertex_counts
    for code, count in part.vertex_counts.items():
        if count > counts.get(code, 0):
            return False
    counts = query.edge_counts
    for code, count in part.edge_counts.items():
        if count > counts.get(code, 0):
            return False
    return True


def part_matches(part: EncodedGraph, query: EncodedGraph) -> bool:
    """The Pars first step: whether ``part`` is subgraph-isomorphic to ``query``."""
    return _labels_contained(part, query) and encoded_mapping_cost(part, query, 0) == 0


class ParsSearcher:
    """Pigeonhole baseline searcher for graph edit distance.

    Args:
        dataset: the collection of data graphs.
        tau: the GED threshold; the partitioning into ``tau + 1`` parts
            depends on it, so a searcher is built per threshold.
    """

    def __init__(self, dataset: GraphDataset, tau: int):
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._dataset = dataset
        self._columns = dataset.columns()
        self._tau = tau
        self._m = tau + 1
        # Encoded parts per data graph, cut on first touch: the corpus-wide
        # bound leaves few graphs per query, so most are never partitioned.
        self._parts: list[list[EncodedGraph] | None] = [None] * len(dataset)

    @property
    def dataset(self) -> GraphDataset:
        return self._dataset

    @property
    def tau(self) -> int:
        return self._tau

    @property
    def m(self) -> int:
        return self._m

    def parts(self, obj_id: int) -> list[Graph]:
        """The parts of one data graph."""
        return partition_graph(self._dataset.graph(obj_id), self._m)

    def _encoded_parts(self, obj_id: int) -> list[EncodedGraph]:
        parts = self._parts[obj_id]
        if parts is None:
            parts = self._parts[obj_id] = partition_encoded(
                self._dataset.graph(obj_id), self._columns.graphs[obj_id], self._m
            )
        return parts

    def matching_parts(self, obj_id: int, query: Graph) -> list[int]:
        """Indices of parts that are subgraph-isomorphic to the query."""
        encoded = self._columns.encode(query)
        return [
            index
            for index, part in enumerate(self._encoded_parts(obj_id))
            if part_matches(part, encoded)
        ]

    def _is_candidate(self, obj_id: int, query: EncodedGraph) -> bool:
        return any(part_matches(part, query) for part in self._encoded_parts(obj_id))

    def _filter(self, query: Graph) -> tuple[EncodedGraph, list[int], list[int]]:
        """The encoded query, the survivors of the corpus-wide bound, the candidates."""
        encoded = self._columns.encode(query)
        survivors = np.flatnonzero(self._columns.label_bounds(encoded) <= self._tau).tolist()
        return encoded, survivors, [i for i in survivors if self._is_candidate(i, encoded)]

    def candidates(self, query: Graph) -> list[int]:
        return self._filter(query)[2]

    def search(self, query: Graph) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            encoded, survivors, candidates = self._filter(query)
        candidate_time = timer.restart()
        graphs = self._columns.graphs
        results = []
        nodes = 0
        with span("verify"):
            for obj_id in candidates:
                distance, expanded = encoded_distance(graphs[obj_id], encoded, self._tau)
                nodes += expanded
                if distance <= self._tau:
                    results.append(obj_id)
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=candidates,
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"generated": len(survivors), "verified": len(candidates), "nodes": nodes},
        )
