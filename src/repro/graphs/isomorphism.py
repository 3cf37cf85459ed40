"""Subgraph isomorphism and partial-mapping lower bounds.

Two related questions are answered here:

* :func:`subgraph_isomorphic` -- is the pattern graph isomorphic to a subgraph
  of the target (labels must match exactly)?  This is the Pars first-step
  test: a data-graph part within edit distance 0 of some query subgraph.
* :func:`min_mapping_cost` -- the cheapest way to embed the pattern into the
  target when deviations are charged like the deletion-neighbourhood
  operations of Section 6.4: wildcarding a vertex label, deleting an edge, or
  deleting a vertex (after its edges) each cost 1.  For every subgraph ``q'``
  of the target, ``min_mapping_cost(pattern, target) <= ged(pattern, q')``, so
  the value is a valid lower bound of the box ``b_i = min ged(x_i, q')`` used
  by the Ring chain check.
"""

from __future__ import annotations

from repro.graphs.columns import EncodedGraph, encode_pair
from repro.graphs.graph import Graph

_UNASSIGNED = -2
_DELETED = -1


def subgraph_isomorphic(pattern: Graph, target: Graph) -> bool:
    """Whether ``pattern`` is isomorphic to a (not necessarily induced) subgraph of ``target``."""
    return min_mapping_cost(pattern, target, budget=0) == 0


def min_mapping_cost(pattern: Graph, target: Graph, budget: int) -> int:
    """Minimum deletion-neighbourhood cost of embedding ``pattern`` into ``target``.

    The search assigns every pattern vertex either to a distinct target vertex
    or to "deleted".  Costs: 1 per deleted vertex, 1 per pattern edge that is
    not matched by a target edge with the same label between the images
    (including edges incident to deleted vertices), and 1 per mapped vertex
    whose label differs from its image's label.  The exact minimum is returned
    when it is at most ``budget``; otherwise ``budget + 1`` is returned (the
    caller only needs to know the bound was exceeded).
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return encoded_mapping_cost(*encode_pair(pattern, target), budget)


def encoded_mapping_cost(pattern: EncodedGraph, target: EncodedGraph, budget: int) -> int:
    """:func:`min_mapping_cost` over two graphs coded with the same codebooks."""
    n = pattern.n
    if n == 0:
        return 0
    # Cheap necessary condition: missing vertex labels alone exceed the budget.
    missing = 0
    target_counts = target.vertex_counts
    for code, count in pattern.vertex_counts.items():
        missing += max(0, count - target_counts.get(code, 0))
        if missing > budget:
            return budget + 1

    labels, target_labels = pattern.labels, target.labels
    adj, target_adj = pattern.adj, target.adj
    nbrs = pattern.nbrs
    order = pattern.order  # most-constrained (highest degree) first
    images = range(target.n)
    image_of = [_UNASSIGNED] * n
    used = [False] * target.n
    best = budget + 1

    def backtrack(index: int, cost: int) -> None:
        nonlocal best
        if index == n:
            best = cost
            return
        vertex = order[index]
        label = labels[vertex]
        row = adj[vertex]
        # Pattern edges to earlier vertices: (image, edge label) of the mapped
        # ones; an edge to a deleted neighbour costs 1 whatever the image.
        mapped = []
        deleted = 0
        for neighbor in nbrs[vertex]:
            neighbor_image = image_of[neighbor]
            if neighbor_image >= 0:
                mapped.append((neighbor_image, row[neighbor]))
            elif neighbor_image == _DELETED:
                deleted += 1
        for image in images:
            if used[image]:
                continue
            step = deleted if target_labels[image] == label else deleted + 1
            target_row = target_adj[image]
            for neighbor_image, edge_label in mapped:
                if target_row[neighbor_image] != edge_label:
                    step += 1
            if cost + step >= best:
                continue
            image_of[vertex] = image
            used[image] = True
            backtrack(index + 1, cost + step)
            used[image] = False
            if cost >= best:
                break  # nothing below this node can improve on ``best`` any more
        # Deleting the vertex: 1 for the vertex plus 1 per edge to an
        # already-assigned neighbour (edges to later vertices are charged when
        # those vertices are processed).
        step = 1 + deleted + len(mapped)
        if cost + step < best:
            image_of[vertex] = _DELETED
            backtrack(index + 1, cost + step)
        image_of[vertex] = _UNASSIGNED

    backtrack(0, 0)
    return best
