"""Pigeonring-accelerated graph edit distance search (Section 6.4).

The Ring searcher keeps Pars's first step (find parts that are subgraph-
isomorphic to the query, i.e. boxes of value 0) and adds the prefix-viable
chain check of Theorem 3 with the uniform quota ``tau / (tau + 1) < 1``: a
chain can only start at a zero box, and subsequent boxes are charged with a
lower bound of ``min ged(x_j, q')`` obtained from the cheapest
deletion-neighbourhood-style embedding of the part into the query
(:func:`repro.graphs.isomorphism.min_mapping_cost`).  Lower bounds keep the
filter complete while avoiding exact per-part edit distances, mirroring the
paper's Example 12.
"""

from __future__ import annotations

from collections import Counter

from repro.common.obs import span
from repro.common.stats import SearchResult, Timer
from repro.graphs.dataset import GraphDataset
from repro.graphs.ged import ged_within
from repro.graphs.graph import Graph
from repro.graphs.isomorphism import min_mapping_cost
from repro.graphs.pars import ParsSearcher


class RingGraphSearcher(ParsSearcher):
    """Pigeonring searcher for graph edit distance.

    Args:
        dataset: the collection of data graphs.
        tau: the GED threshold (also fixes ``m = tau + 1``).
        chain_length: chain length ``l``; the paper finds ``l`` in
            ``[tau - 2, tau]`` best.
    """

    def __init__(self, dataset: GraphDataset, tau: int, chain_length: int | None = None):
        super().__init__(dataset, tau)
        if chain_length is None:
            chain_length = max(1, tau - 1)
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        self._chain_length = min(chain_length, self._m)

    @property
    def chain_length(self) -> int:
        return self._chain_length

    def _passes_chain_check(self, obj_id: int, starts: list[int], query: Graph) -> bool:
        m = self._m
        length = self._chain_length
        quota = self._tau / m
        parts = self._parts[obj_id]
        # index -> (value, cap used); a value <= cap is exact, a value of
        # cap + 1 is a truncated lower bound that may be refined with a larger
        # budget later.
        cache: dict[int, tuple[float, int]] = {start: (0.0, 0) for start in starts}

        def box_value(index: int, cap: int) -> float:
            """Lower bound of box ``index``, exact whenever it is at most ``cap``."""
            cached = cache.get(index)
            if cached is not None:
                value, cap_used = cached
                if value <= cap_used or cap <= cap_used:
                    return value
            value = float(min_mapping_cost(parts[index], query, budget=cap))
            cache[index] = (value, cap)
            return value

        for start in starts:
            running = 0.0
            passed = True
            for offset in range(length):
                box = (start + offset) % m
                bound = (offset + 1) * quota
                remaining = int(bound - running)
                value = box_value(box, max(0, remaining))
                running += value
                if running > bound + 1e-12:
                    passed = False
                    break
            if passed:
                return True
        return False

    def candidates(self, query: Graph) -> list[int]:
        query_labels = Counter(query.vertex_label(v) for v in query.vertices)
        query_edge_labels = Counter(label for *_e, label in query.edges())
        found = []
        for obj_id in range(len(self._dataset)):
            starts = []
            for index, part in enumerate(self._parts[obj_id]):
                if not self._labels_contained(part, query_labels, query_edge_labels):
                    continue
                if min_mapping_cost(part, query, budget=0) == 0:
                    starts.append(index)
            if not starts:
                continue
            if self._chain_length == 1 or self._passes_chain_check(obj_id, starts, query):
                found.append(obj_id)
        return found

    def search(self, query: Graph) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            candidates = self.candidates(query)
        candidate_time = timer.restart()
        with span("verify"):
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
