"""Hamming distance search (Problem 2, Section 6.1).

The paper builds on the GPH algorithm [72]: the ``d`` dimensions are divided
into ``m`` disjoint parts, per-part thresholds are allocated with a cost model
under integer reduction (``sum t_i = tau - m + 1``), and a data object is a
candidate when some part's Hamming distance to the query is within its
threshold.  The pigeonring searcher keeps the same first step and adds the
prefix-viable chain check of lengths ``2 .. l``; both steps run as array
kernels over one distance pass per query (see :mod:`repro.hamming.ring`).

Public API:

* :class:`repro.hamming.dataset.BinaryVectorDataset` -- packed binary vectors
  with per-partition codes.
* :class:`repro.hamming.ring.RingHammingSearcher` -- the pigeonring searcher.
* :class:`repro.hamming.gph.GPHSearcher` -- the pigeonhole baseline: the same
  searcher at ``chain_length=1``.
* :class:`repro.hamming.linear.LinearHammingSearcher` -- brute-force scan used
  as ground truth in tests.
"""

from repro.hamming.dataset import BinaryVectorDataset
from repro.hamming.partition import Partitioning
from repro.hamming.index import PartitionIndex
from repro.hamming.cost_model import allocate_thresholds, even_thresholds
from repro.hamming.linear import LinearHammingSearcher
from repro.hamming.gph import GPHSearcher
from repro.hamming.ring import RingHammingSearcher

__all__ = [
    "BinaryVectorDataset",
    "Partitioning",
    "PartitionIndex",
    "allocate_thresholds",
    "even_thresholds",
    "LinearHammingSearcher",
    "GPHSearcher",
    "RingHammingSearcher",
]
