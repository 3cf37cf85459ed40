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

from repro.graphs.columns import EncodedGraph
from repro.graphs.dataset import GraphDataset
from repro.graphs.isomorphism import encoded_mapping_cost
from repro.graphs.pars import ParsSearcher, part_matches


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

    def _is_candidate(self, obj_id: int, query: EncodedGraph) -> bool:
        parts = self._encoded_parts(obj_id)
        # box index -> (value, cap used); a value <= cap is exact, a value of
        # cap + 1 is a truncated lower bound that may be refined with a larger
        # budget later.  The first step fills it for every box at cap 0, so
        # the chain check never repeats a budget-0 embedding.
        cache = {
            index: (0 if part_matches(part, query) else 1, 0) for index, part in enumerate(parts)
        }
        starts = [index for index, (value, _cap) in cache.items() if value == 0]
        if not starts:
            return False
        if self._chain_length == 1:
            return True
        m = self._m
        quota = self._tau / m

        def box_value(index: int, cap: int) -> int:
            """Lower bound of box ``index``, exact whenever it is at most ``cap``."""
            value, cap_used = cache[index]
            if value <= cap_used or cap <= cap_used:
                return value
            value = encoded_mapping_cost(parts[index], query, cap)
            cache[index] = (value, cap)
            return value

        for start in starts:
            running = 0
            for offset in range(self._chain_length):
                bound = (offset + 1) * quota
                running += box_value((start + offset) % m, max(0, int(bound - running)))
                if running > bound + 1e-12:
                    break
            else:
                return True
        return False
