"""Set similarity search (Problem 3, Section 6.2).

The paper's pigeonring searcher builds on the pkwise algorithm [103]: tokens
are sorted by a global frequency order, the token universe is partitioned into
``m - 1`` classes, and an object's prefix is extended until the k-wise
signature condition covers the required overlap.  The boxes are the per-class
prefix overlaps plus one suffix box; thresholds use variable allocation with
integer reduction in the ``>=`` direction (Theorem 7), and the chain check is
evaluated from the per-class overlap counters that the inverted index already
maintains.

Public API:

* :class:`repro.sets.dataset.SetDataset` -- records encoded in the global
  token order with class assignments, built and held as flat arrays
  (:class:`repro.sets.tokens.TokenRecords` for the raw records).
* :class:`repro.sets.similarity.OverlapPredicate` /
  :class:`repro.sets.similarity.JaccardPredicate` -- selection predicates.
* :class:`repro.sets.ring.RingSetSearcher` -- the pigeonring searcher, the
  engine's served ``ring``: batch-at-a-time numpy kernels over CSR columns
  (``chain_length=1`` is exactly pkwise).
* :class:`repro.sets.pkwise.PkwiseSearcher` -- the pkwise baseline: the same
  searcher at ``chain_length=1``.
* :class:`repro.sets.adaptsearch.AdaptSearchSearcher` -- prefix-filter
  baseline (AllPairs / PPJoin search version).
* :class:`repro.sets.partalloc.PartAllocSearcher` -- partition-allocation
  baseline.
* :class:`repro.sets.linear.LinearSetSearcher` -- brute force ground truth.
"""

from repro.sets.similarity import JaccardPredicate, OverlapPredicate, jaccard, overlap
from repro.sets.tokens import TokenOrder, TokenRecords
from repro.sets.dataset import SetDataset
from repro.sets.linear import LinearSetSearcher
from repro.sets.pkwise import PkwiseSearcher
from repro.sets.ring import RingSetSearcher
from repro.sets.adaptsearch import AdaptSearchSearcher
from repro.sets.partalloc import PartAllocSearcher

__all__ = [
    "JaccardPredicate",
    "OverlapPredicate",
    "jaccard",
    "overlap",
    "TokenOrder",
    "TokenRecords",
    "SetDataset",
    "LinearSetSearcher",
    "PkwiseSearcher",
    "RingSetSearcher",
    "AdaptSearchSearcher",
    "PartAllocSearcher",
]
