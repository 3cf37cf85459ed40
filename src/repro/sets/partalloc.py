"""Partition-allocation baseline (the paper's PartAlloc competitor).

PartAlloc [30] partitions the token universe, allocates per-partition overlap
thresholds, and generates candidates from partition-level matches.  The exact
join algorithm enumerates partition signatures with a cost model; for the
search setting reproduced here the same pigeonhole structure is kept but the
partition-level overlaps are counted directly from full-record posting lists:

* the universe is hashed into ``num_parts`` partitions;
* per-partition thresholds ``t_i >= 1`` with ``sum t_i = t + p - 1``
  (Theorem 5 in the ``>=`` direction) are allocated proportionally to the
  query's token mass per partition;
* an object is a candidate when some partition's overlap with the query
  reaches its threshold.

Counting partition overlaps requires walking the posting lists of *all* query
tokens (not only a prefix), which is what gives PartAlloc its characteristic
profile in the paper's Figure 10: few candidates, expensive filtering.  The
signature-enumeration machinery of the original join algorithm is not
reproduced: direct counting is the substitution, keeping the pigeonhole
condition itself (some partition's overlap reaches its threshold).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.common.stats import SearchResult, Timer
from repro.sets.dataset import SetDataset
from repro.sets.verify import overlap_at_least


class PartAllocSearcher:
    """Partition-based pigeonhole searcher with proportional threshold allocation."""

    def __init__(self, dataset: SetDataset, predicate, num_parts: int = 4):
        if num_parts < 1:
            raise ValueError("num_parts must be at least 1")
        self._dataset = dataset
        self._predicate = predicate
        self._num_parts = num_parts
        self._records = list(dataset.columns().iter_lists())
        self._postings: dict[int, list[int]] = defaultdict(list)
        for obj_id, record in enumerate(self._records):
            for token in record:
                self._postings[token].append(obj_id)

    @property
    def dataset(self) -> SetDataset:
        return self._dataset

    @property
    def num_parts(self) -> int:
        return self._num_parts

    def _part_of(self, token: int) -> int:
        return token % self._num_parts

    def _allocate(self, part_sizes: list[int], total: int) -> list[int]:
        """Allocate ``total`` threshold units (each >= 1) proportionally to part sizes."""
        p = self._num_parts
        thresholds = [1] * p
        remaining = total - p
        if remaining <= 0:
            return thresholds
        mass = sum(part_sizes)
        if mass == 0:
            thresholds[0] += remaining
            return thresholds
        allocated = 0
        for i in range(p):
            share = int(remaining * part_sizes[i] / mass)
            thresholds[i] += share
            allocated += share
        i = 0
        while allocated < remaining:
            if part_sizes[i % p] > 0:
                thresholds[i % p] += 1
                allocated += 1
            i += 1
        return thresholds

    def candidates(self, query: Sequence[int]) -> list[int]:
        encoded_query = self._dataset.encode_query(query)
        return self._candidates_encoded(encoded_query)

    def _candidates_encoded(self, encoded_query: list[int]) -> list[int]:
        if not encoded_query:
            return []
        required = self._predicate.query_required_overlap(len(encoded_query))
        if required > len(encoded_query):
            return []
        low, high = self._predicate.length_bounds(len(encoded_query))
        p = self._num_parts
        part_sizes = [0] * p
        for token in encoded_query:
            part_sizes[self._part_of(token)] += 1
        thresholds = self._allocate(part_sizes, required + p - 1)

        counters: dict[int, list[int]] = {}
        for token in encoded_query:
            part = self._part_of(token)
            for obj_id in self._postings.get(token, ()):  # pragma: no branch
                size = len(self._records[obj_id])
                if size < low or size > high:
                    continue
                counts = counters.get(obj_id)
                if counts is None:
                    counts = [0] * p
                    counters[obj_id] = counts
                counts[part] += 1

        ordered = [
            obj_id
            for obj_id, counts in counters.items()
            if any(counts[i] >= thresholds[i] for i in range(p))
        ]
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
