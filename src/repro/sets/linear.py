"""Brute-force set similarity search (ground truth for tests)."""

from __future__ import annotations

from typing import Sequence

from repro.common.stats import SearchResult, Timer
from repro.sets.dataset import SetDataset
from repro.sets.verify import merge_overlap


class LinearSetSearcher:
    """Evaluate the predicate against every record."""

    def __init__(self, dataset: SetDataset, predicate):
        self._dataset = dataset
        self._predicate = predicate

    @property
    def dataset(self) -> SetDataset:
        return self._dataset

    def search(self, query: Sequence[int]) -> SearchResult:
        timer = Timer()
        encoded_query = self._dataset.encode_query(query)
        results = []
        for obj_id, record in enumerate(self._dataset.columns().iter_lists()):
            required = self._predicate.pair_required_overlap(len(record), len(encoded_query))
            if merge_overlap(record, encoded_query) >= required:
                results.append(obj_id)
        elapsed = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=list(range(len(self._dataset))),
            candidate_time=0.0,
            verify_time=elapsed,
        )
