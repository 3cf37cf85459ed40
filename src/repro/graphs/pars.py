"""The Pars baseline for graph edit distance search (pigeonhole principle).

Pars [136] partitions every data graph into ``tau + 1`` disjoint parts; a data
graph is a candidate only if at least one part is subgraph-isomorphic to the
query.  Candidates are verified with the threshold-limited exact GED.

A cheap label-multiset containment test prunes parts before the isomorphism
search.  It is this reproduction's substitution for Pars's partition index:
at the scale of the synthetic workloads (tens to hundreds of small graphs)
testing every part costs less than building and probing that index would.
"""

from __future__ import annotations

from collections import Counter

from repro.common.stats import SearchResult, Timer
from repro.graphs.dataset import GraphDataset
from repro.graphs.ged import ged_within
from repro.graphs.graph import Graph
from repro.graphs.isomorphism import subgraph_isomorphic
from repro.graphs.partition import partition_graph


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
        self._tau = tau
        self._m = tau + 1
        self._parts: list[list[Graph]] = [
            partition_graph(dataset.graph(obj_id), self._m)
            for obj_id in range(len(dataset))
        ]

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
        """The precomputed parts of one data graph."""
        return self._parts[obj_id]

    @staticmethod
    def _labels_contained(part: Graph, query_labels: Counter, query_edge_labels: Counter) -> bool:
        """Necessary condition for subgraph isomorphism: label multisets contained."""
        for label, count in part.vertex_label_counts().items():
            if count > query_labels.get(label, 0):
                return False
        for label, count in part.edge_label_counts().items():
            if count > query_edge_labels.get(label, 0):
                return False
        return True

    def matching_parts(self, obj_id: int, query: Graph) -> list[int]:
        """Indices of parts that are subgraph-isomorphic to the query."""
        query_labels = Counter(query.vertex_label(v) for v in query.vertices)
        query_edge_labels = Counter(label for *_e, label in query.edges())
        matches = []
        for index, part in enumerate(self._parts[obj_id]):
            if not self._labels_contained(part, query_labels, query_edge_labels):
                continue
            if subgraph_isomorphic(part, query):
                matches.append(index)
        return matches

    def candidates(self, query: Graph) -> list[int]:
        query_labels = Counter(query.vertex_label(v) for v in query.vertices)
        query_edge_labels = Counter(label for *_e, label in query.edges())
        found = []
        for obj_id in range(len(self._dataset)):
            for part in self._parts[obj_id]:
                if not self._labels_contained(part, query_labels, query_edge_labels):
                    continue
                if subgraph_isomorphic(part, query):
                    found.append(obj_id)
                    break
        return found

    def search(self, query: Graph) -> SearchResult:
        timer = Timer()
        candidates = self.candidates(query)
        candidate_time = timer.restart()
        results = [
            obj_id
            for obj_id in candidates
            if ged_within(self._dataset.graph(obj_id), query, self._tau)
        ]
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=candidates,
            candidate_time=candidate_time,
            verify_time=verify_time,
        )
