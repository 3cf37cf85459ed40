"""Brute-force graph edit distance search (ground truth for tests)."""

from __future__ import annotations

from repro.common.stats import SearchResult, Timer
from repro.graphs.dataset import GraphDataset
from repro.graphs.ged import encoded_distance
from repro.graphs.graph import Graph


class LinearGraphSearcher:
    """Evaluate the threshold-limited GED against every data graph."""

    def __init__(self, dataset: GraphDataset):
        self._dataset = dataset

    @property
    def dataset(self) -> GraphDataset:
        return self._dataset

    def search(self, query: Graph, tau: int) -> SearchResult:
        timer = Timer()
        columns = self._dataset.columns()
        encoded = columns.encode(query)
        results = [
            obj_id
            for obj_id, graph in enumerate(columns.graphs)
            if encoded_distance(graph, encoded, tau)[0] <= tau
        ]
        elapsed = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=list(range(len(self._dataset))),
            candidate_time=0.0,
            verify_time=elapsed,
        )
