"""The GPH baseline for Hamming distance search (pigeonhole principle).

GPH [72] partitions the dimensions into ``m`` disjoint parts, allocates
per-part thresholds with a cost model such that ``sum t_i = tau - m + 1``
(variable threshold allocation + integer reduction, Theorem 5), probes the
per-partition index for parts within their thresholds, unions the matching
object ids, and verifies each candidate with a full Hamming distance
computation.  That is the pigeonring pipeline of :mod:`repro.hamming.ring`
at chain length 1 -- a chain of one box is viable exactly when the probe
found it -- so the baseline is that searcher with the length pinned.
"""

from __future__ import annotations

from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.index import PartitionIndex
from repro.hamming.ring import RingHammingSearcher


class GPHSearcher(RingHammingSearcher):
    """Pigeonhole-principle baseline searcher for Hamming distance.

    Args:
        dataset: the indexed collection.
        use_cost_model: as for :class:`repro.hamming.ring.RingHammingSearcher`.
        index: a prebuilt index over ``dataset`` to share between searchers.
    """

    def __init__(
        self,
        dataset: BinaryVectorDataset,
        use_cost_model: bool = True,
        index: PartitionIndex | None = None,
    ):
        super().__init__(dataset, chain_length=1, use_cost_model=use_cost_model, index=index)
