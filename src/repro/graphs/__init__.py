"""Graph edit distance search (Problem 5, Section 6.4).

The paper's pigeonring searcher builds on the Pars algorithm [136]: each data
graph is divided into ``tau + 1`` disjoint subgraphs; a candidate must have at
least one part subgraph-isomorphic to the query (pigeonhole).  The Ring
searcher keeps the same partitioning and extends the check to chains: box
``b_i`` is the minimum graph edit distance from part ``i`` to any subgraph of
the query, lower-bounded through deletion-neighbourhood-style partial mappings
so the expensive exact value is never computed.

Public API:

* :class:`repro.graphs.graph.Graph` -- labelled graphs.
* :class:`repro.graphs.dataset.GraphDataset` -- its ``columns()`` hold the
  graphs int-coded on arrays (:mod:`repro.graphs.columns`), the form every
  searcher and the exact distance run on.
* :class:`repro.graphs.pars.ParsSearcher` -- the pigeonhole baseline.
* :class:`repro.graphs.ring.RingGraphSearcher` -- the pigeonring searcher.
* :class:`repro.graphs.linear.LinearGraphSearcher` -- brute force.
"""

from repro.graphs.graph import Graph
from repro.graphs.ged import ged_within, graph_edit_distance
from repro.graphs.isomorphism import min_mapping_cost, subgraph_isomorphic
from repro.graphs.partition import partition_graph
from repro.graphs.dataset import GraphDataset
from repro.graphs.linear import LinearGraphSearcher
from repro.graphs.pars import ParsSearcher
from repro.graphs.ring import RingGraphSearcher

__all__ = [
    "Graph",
    "ged_within",
    "graph_edit_distance",
    "min_mapping_cost",
    "subgraph_isomorphic",
    "partition_graph",
    "GraphDataset",
    "LinearGraphSearcher",
    "ParsSearcher",
    "RingGraphSearcher",
]
