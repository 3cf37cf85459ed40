"""Shared infrastructure used by every substrate searcher.

The four case-study packages (:mod:`repro.hamming`, :mod:`repro.sets`,
:mod:`repro.strings`, :mod:`repro.graphs`) expose the same searcher protocol:

* ``search(query, tau)`` returns a :class:`repro.common.stats.SearchResult`
  with the result ids, the candidate ids that were verified, and timing broken
  down into candidate generation and verification -- the quantities plotted in
  the paper's Figures 5-12.

The protocol lives here so the experiment harness can drive any searcher
uniformly.
"""

from repro.common.obs import MetricsRegistry, Trace, span
from repro.common.stats import QueryStats, SearchResult, Timer

__all__ = [
    "MetricsRegistry",
    "QueryStats",
    "SearchResult",
    "Timer",
    "Trace",
    "span",
]
