"""Threshold allocation for GPH (variable threshold allocation + integer reduction).

GPH assigns a per-partition threshold ``t_i`` with ``sum t_i = tau - m + 1``
(Theorem 5) and chooses the allocation with a query-specific cost model so
that skewed partitions -- those whose code distribution concentrates near the
query -- receive small (possibly ``-1``) thresholds and selective partitions
absorb the budget.

The cost model here is the greedy marginal-cost allocation: starting from
``t_i = -1`` everywhere (no partition produces candidates), repeatedly grant
one more unit of threshold to the partition whose next unit admits the fewest
additional data objects, until the budget ``tau - m + 1`` is reached.  The
per-unit cost is exact because the partition index can report the full
distance histogram of the query against each partition.  The searchers run
the same greedy loop (:func:`greedy_thresholds`) over the lazily extended
histograms of their one distance pass (:class:`repro.hamming.index.PartScan`);
:func:`allocate_thresholds` computes every histogram in full and is the
reference the tests hold them to.

``even_thresholds`` provides the query-independent fallback allocation used
when no index (and hence no histogram) is available.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.hamming.index import PartitionIndex


def even_thresholds(tau: int, m: int) -> list[int]:
    """Spread ``tau - m + 1`` as evenly as possible over ``m`` parts (floor at -1)."""
    if m <= 0:
        raise ValueError("the number of parts must be positive")
    budget = tau - m + 1
    if budget < -m:
        budget = -m
    base, remainder = divmod(budget + m, m)  # distribute relative to -1 floor
    thresholds = [base - 1 + (1 if i < remainder else 0) for i in range(m)]
    return thresholds


def greedy_thresholds(tau: int, m: int, count_at: Callable[[int, int], int]) -> list[int]:
    """Greedy marginal-cost allocation of ``tau - m + 1`` threshold units.

    Args:
        tau: the Hamming distance threshold.
        m: the number of partitions.
        count_at: ``count_at(part, distance)`` -- the number of data objects
            at exactly that part distance from the query (0 beyond the part's
            width: a fully open partition takes further units for free).

    Returns:
        A list of per-partition thresholds ``t_i >= -1`` summing to
        ``max(tau - m + 1, -m)``.
    """
    budget = tau - m + 1
    thresholds = [-1] * m
    if budget <= -m:
        return thresholds
    # Each heap entry is (marginal cost of raising t_part to next_value, part,
    # next_value).  Raising a threshold from t to t+1 admits exactly the
    # objects at distance t+1.
    heap = [(count_at(part, 0), part, 0) for part in range(m)]
    heapq.heapify(heap)
    for _ in range(budget + m):  # number of +1 steps from the all -1 start
        _cost, part, value = heapq.heappop(heap)
        thresholds[part] = value
        heapq.heappush(heap, (count_at(part, value + 1), part, value + 1))
    return thresholds


def allocate_thresholds(
    index: PartitionIndex, query_codes: np.ndarray, tau: int
) -> list[int]:
    """The cost-model allocation for one query, from full distance histograms.

    Args:
        index: the per-partition index built over the dataset.
        query_codes: the query's per-part codes.
        tau: the Hamming distance threshold.

    Returns:
        The thresholds of :func:`greedy_thresholds`.
    """
    histograms = [
        index.distance_histogram(part, int(query_codes[part])).tolist()
        for part in range(index.m)
    ]

    def count_at(part: int, distance: int) -> int:
        histogram = histograms[part]
        return histogram[distance] if distance < len(histogram) else 0

    return greedy_thresholds(tau, index.m, count_at)
