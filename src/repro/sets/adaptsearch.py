"""Prefix-filter baseline (the paper's AdaptSearch configuration).

The paper runs AdaptSearch [100] with prefix extension disabled, which makes
it behave like the search versions of AllPairs [8] / PPJoin [115]: index the
standard ``|x| - t + 1`` prefixes of the data records, probe with the query's
standard prefix, apply the length filter, and verify every record that shares
at least one prefix token.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.common.stats import SearchResult, Timer
from repro.sets.dataset import SetDataset
from repro.sets.prefix import standard_prefix_length
from repro.sets.verify import overlap_at_least


class AdaptSearchSearcher:
    """Plain prefix-filter searcher (AllPairs / PPJoin search version)."""

    def __init__(self, dataset: SetDataset, predicate):
        self._dataset = dataset
        self._predicate = predicate
        self._records = list(dataset.columns().iter_lists())
        self._postings: dict[int, list[int]] = defaultdict(list)
        for obj_id, record in enumerate(self._records):
            if not record:
                continue
            required = predicate.index_required_overlap(len(record))
            prefix_length = standard_prefix_length(len(record), required)
            for token in record[:prefix_length]:
                self._postings[token].append(obj_id)

    @property
    def dataset(self) -> SetDataset:
        return self._dataset

    def candidates(self, query: Sequence[int]) -> list[int]:
        encoded_query = self._dataset.encode_query(query)
        return self._candidates_encoded(encoded_query)

    def _candidates_encoded(self, encoded_query: list[int]) -> list[int]:
        if not encoded_query:
            return []
        required = self._predicate.query_required_overlap(len(encoded_query))
        if required > len(encoded_query):
            return []
        prefix_length = standard_prefix_length(len(encoded_query), required)
        low, high = self._predicate.length_bounds(len(encoded_query))
        seen: set[int] = set()
        ordered: list[int] = []
        for token in encoded_query[:prefix_length]:
            for obj_id in self._postings.get(token, ()):  # pragma: no branch
                if obj_id in seen:
                    continue
                size = len(self._records[obj_id])
                if low <= size <= high:
                    seen.add(obj_id)
                    ordered.append(obj_id)
        return ordered

    def search(self, query: Sequence[int]) -> SearchResult:
        timer = Timer()
        encoded_query = self._dataset.encode_query(query)
        candidates = self._candidates_encoded(encoded_query)
        candidate_time = timer.restart()
        results = []
        for obj_id in candidates:
            record = self._records[obj_id]
            required = self._predicate.pair_required_overlap(
                len(record), len(encoded_query)
            )
            if overlap_at_least(record, encoded_query, required):
                results.append(obj_id)
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=candidates,
            candidate_time=candidate_time,
            verify_time=verify_time,
        )
