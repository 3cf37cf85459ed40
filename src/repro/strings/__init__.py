"""String edit distance search (Problem 4, Section 6.3).

The paper's pigeonring searcher builds on the Pivotal algorithm [28]: each
string's q-grams are sorted by a global frequency order, the first
``kappa * tau + 1`` grams form the prefix, and ``tau + 1`` position-disjoint
*pivotal* grams are chosen from the prefix.  A result must have an exact
pivotal-gram match in the other string's prefix (pivotal prefix filter), and
the sum of the per-pivotal-gram minimum edit distances to nearby substrings is
at most ``tau`` (alignment filter).  The Ring searcher replaces the alignment
filter with the prefix-viable chain check of Theorem 3, evaluating each box by
the cheap content-based (character bit-vector) lower bound instead of exact
edit distances.

Public API:

* :class:`repro.strings.dataset.StringDataset` -- the records as strings
  and as code-point arrays, with every gram position's global rank.
* :class:`repro.strings.pivotal.PivotalSearcher` -- the pigeonhole baseline
  (reports Cand-1 and Cand-2 like the paper's Figure 11); a separate
  algorithm, since its alignment filter is not the ring at ``l = 1``.
* :class:`repro.strings.ring.RingStringSearcher` -- the pigeonring searcher,
  the engine's served ``ring`` (CSR postings, bulk chain checks,
  bit-parallel verification).  It and Pivotal share one index, built from
  the dataset's arrays (:class:`repro.strings.pivotal.PivotalIndexBase`).
* :class:`repro.strings.linear.LinearStringSearcher` -- brute force.
"""

from repro.strings.edit_distance import edit_distance, edit_distance_within
from repro.strings.qgrams import QGramExtractor, positional_qgrams
from repro.strings.dataset import StringDataset
from repro.strings.linear import LinearStringSearcher
from repro.strings.pivotal import PivotalSearcher
from repro.strings.ring import RingStringSearcher

__all__ = [
    "edit_distance",
    "edit_distance_within",
    "QGramExtractor",
    "positional_qgrams",
    "StringDataset",
    "LinearStringSearcher",
    "PivotalSearcher",
    "RingStringSearcher",
]
