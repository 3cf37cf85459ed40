"""Search results and per-query statistics shared by all searchers.

The paper's evaluation reports, per query, the number of candidates produced
by the filter, the number of results, the candidate-generation time and the
total search time.  :class:`SearchResult` carries exactly those quantities so
that the experiment harness (:mod:`repro.experiments`) can aggregate them into
the series plotted in Figures 5-12 without knowing which searcher produced
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


class Timer:
    """A tiny perf_counter-based stopwatch used inside the searchers."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return time.perf_counter() - self._start

    def restart(self) -> float:
        """Return the elapsed time and reset the stopwatch."""
        now = time.perf_counter()
        elapsed = now - self._start
        self._start = now
        return elapsed


@dataclass
class SearchResult:
    """Outcome of one thresholded similarity query.

    Attributes:
        results: ids of the data objects satisfying the selection constraint.
        candidates: ids of the data objects that reached verification.  For a
            correct (complete) filter this is always a superset of
            ``results``.
        candidate_time: seconds spent generating candidates (filtering).
        verify_time: seconds spent verifying candidates.
        extra: optional per-algorithm counters (e.g. the Pivotal algorithm
            reports its Cand-1 and Cand-2 sizes here).
    """

    results: list
    candidates: list
    candidate_time: float = 0.0
    verify_time: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def num_results(self) -> int:
        return len(self.results)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def total_time(self) -> float:
        return self.candidate_time + self.verify_time

    @property
    def false_positives(self) -> int:
        return self.num_candidates - self.num_results


@dataclass
class QueryStats:
    """Aggregate of :class:`SearchResult` objects over a query workload.

    ``total_generated`` counts the objects that *entered* the filter
    pipeline (pre-chain candidates); ``total_candidates`` counts the objects
    that survived it and reached verification.  The gap between the two is
    what the filters earned, and the gap between ``total_candidates`` and
    ``total_results`` is what verification still had to reject.  Searchers
    that do not report a ``generated`` counter (the scalar baselines) fall
    back to the candidate count, making the filter look free rather than
    wrong.
    """

    num_queries: int = 0
    total_generated: int = 0
    total_candidates: int = 0
    total_results: int = 0
    total_candidate_time: float = 0.0
    total_verify_time: float = 0.0

    def add(self, result: SearchResult) -> None:
        self.num_queries += 1
        generated = getattr(result, "num_generated", None)
        if generated is None:
            extra = getattr(result, "extra", None)
            generated = extra.get("generated") if extra else None
        self.total_generated += result.num_candidates if generated is None else int(generated)
        self.total_candidates += result.num_candidates
        self.total_results += result.num_results
        self.total_candidate_time += result.candidate_time
        self.total_verify_time += result.verify_time

    @property
    def avg_generated(self) -> float:
        return self.total_generated / self.num_queries if self.num_queries else 0.0

    @property
    def avg_candidates(self) -> float:
        return self.total_candidates / self.num_queries if self.num_queries else 0.0

    @property
    def avg_results(self) -> float:
        return self.total_results / self.num_queries if self.num_queries else 0.0

    @property
    def avg_candidate_time(self) -> float:
        return (
            self.total_candidate_time / self.num_queries if self.num_queries else 0.0
        )

    @property
    def avg_verify_time(self) -> float:
        return self.total_verify_time / self.num_queries if self.num_queries else 0.0

    @property
    def avg_total_time(self) -> float:
        if not self.num_queries:
            return 0.0
        return (self.total_candidate_time + self.total_verify_time) / self.num_queries
