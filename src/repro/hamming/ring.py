"""Pigeonring-accelerated Hamming distance search (Section 6.1).

The Ring searcher keeps GPH's first step (per-partition index probes with the
cost-model thresholds) unchanged, and adds the second step of Section 7: from
every viable part the chains of lengths ``2 .. l`` starting at that part are
checked under Theorem 7 (integer reduction), i.e. each prefix must satisfy
``||c_i^{l'}||_1 <= l' - 1 + sum t_j``.  Only objects passing the check are
verified.  With ``chain_length=1`` the searcher is exactly GPH.

The pipeline is columnar, like :mod:`repro.sets.ring`: one XOR + popcount
pass over the distinct part codes (:class:`repro.hamming.index.PartScan`)
feeds the cost model and the first step; the second step evaluates every
probed (object, starting part) pair at once over the objects' ``(U, m)`` box
matrix; and because the parts are disjoint and cover every dimension
(Lemma 7) a row of that matrix sums to the full Hamming distance, so
verification gathers nothing more.  The generic per-object
:func:`repro.core.candidates.generate_candidates` is the candidate-set oracle
in the tests.  Its Corollary-2 skip has no counterpart here: it only avoids
re-checking starts that fail anyway (if ``c_i^{l'}`` is the first violating
prefix, the chain from ``i + j`` violates at length ``l' - j`` for every
``j < l'``), so the candidate set is the same without it.
"""

from __future__ import annotations

import numpy as np

from repro.common.obs import span
from repro.common.scratch import PerThread, Scratch
from repro.common.stats import SearchResult, Timer
from repro.hamming.cost_model import even_thresholds, greedy_thresholds
from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.index import PartitionIndex, PartScan


class RingHammingSearcher:
    """Pigeonring searcher for Hamming distance.

    Args:
        dataset: the indexed collection.
        chain_length: the chain length ``l``; the paper finds ``l = 5`` or
            ``6`` best overall for Hamming search.
        use_cost_model: allocate thresholds with the query-specific greedy
            cost model (the GPH behaviour; the paper uses the same allocation
            for Ring and GPH).  When False an even allocation is used, which
            isolates the effect of the allocation itself in the ablation
            benchmarks.
        index: a prebuilt index over ``dataset`` to share between searchers.
    """

    def __init__(
        self,
        dataset: BinaryVectorDataset,
        chain_length: int = 5,
        use_cost_model: bool = True,
        index: PartitionIndex | None = None,
    ):
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        self._dataset = dataset
        self._index = PartitionIndex(dataset) if index is None else index
        if self._index.dataset is not dataset:
            raise ValueError("the prebuilt index belongs to a different dataset")
        self._chain_length = min(chain_length, dataset.m)
        self._use_cost_model = use_cost_model
        # windows[i] lists the boxes of the chain of length l starting at i.
        m = dataset.m
        self._windows = (np.arange(m)[:, np.newaxis] + np.arange(self._chain_length)) % m
        self._scratch: PerThread = PerThread(Scratch)

    @property
    def dataset(self) -> BinaryVectorDataset:
        return self._dataset

    @property
    def index(self) -> PartitionIndex:
        return self._index

    @property
    def chain_length(self) -> int:
        return self._chain_length

    def _scan(self, query: np.ndarray) -> tuple[np.ndarray, PartScan]:
        query_codes = self._dataset.query_codes(query)
        return query_codes, PartScan(self._index, query_codes, self._scratch.get())

    def _allocate(self, scan: PartScan, tau: int) -> list[int]:
        if self._use_cost_model:
            return greedy_thresholds(tau, self._dataset.m, scan.count_at)
        return even_thresholds(tau, self._dataset.m)

    def thresholds(self, query: np.ndarray, tau: int) -> list[int]:
        """The per-partition thresholds used for this query."""
        _query_codes, scan = self._scan(query)
        return self._allocate(scan, tau)

    def _filter(self, query: np.ndarray, tau: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both filtering steps over arrays.

        Returns ``(objects, boxes, passed)``: the distinct first-step objects
        (ascending), their ``(U, m)`` box matrix ``b_i(x, q)``, and which of
        them have a prefix-viable chain of length ``l`` from a viable part.
        """
        query_codes, scan = self._scan(query)
        thresholds = self._allocate(scan, tau)
        ids, starts = scan.first_step(thresholds)
        objects, rows = np.unique(ids, return_inverse=True)
        boxes = np.bitwise_count(self._dataset.part_codes[objects] ^ query_codes)
        # Theorem 7: the prefix of length l' may sum to at most
        # sum t_j + l' - 1, i.e. cumsum(t_j + 1) - 1 along the window.
        allocation = np.asarray(thresholds, dtype=np.int64)
        bounds = np.cumsum(allocation[self._windows] + 1, axis=1) - 1
        chains = boxes[rows[:, np.newaxis], self._windows[starts]]
        viable = (np.cumsum(chains, axis=1, dtype=np.int64) <= bounds[starts]).all(axis=1)
        passed = np.zeros(objects.size, dtype=bool)
        passed[rows[viable]] = True
        return objects, boxes, passed

    def candidates(self, query: np.ndarray, tau: int) -> list[int]:
        """Candidates surviving the prefix-viable chain check of length ``l``, ascending."""
        objects, _boxes, passed = self._filter(query, tau)
        return objects[passed].tolist()

    def search(self, query: np.ndarray, tau: int) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            objects, boxes, passed = self._filter(query, tau)
            candidates = objects[passed]
        candidate_time = timer.restart()
        with span("verify"):
            # The parts are disjoint and cover every dimension (Lemma 7), so
            # a candidate's boxes sum to its full Hamming distance.
            distances = boxes[passed].sum(axis=1, dtype=np.int64)
            results = candidates[distances <= tau]
        verify_time = timer.elapsed()
        return SearchResult(
            results=results.tolist(),
            candidates=candidates.tolist(),
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"generated": int(objects.size), "verified": int(candidates.size)},
        )
