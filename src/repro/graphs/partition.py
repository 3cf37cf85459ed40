"""Partitioning a data graph into ``tau + 1`` disjoint parts (the Pars extract step).

Pars divides each data graph into ``tau + 1`` disjoint subgraphs; if
``ged(x, q) <= tau`` then at least one part is untouched by the edit script
and is therefore subgraph-isomorphic to the query.  The original algorithm
keeps *half-edges* (edges crossing parts, owned by one side); this
reproduction assigns vertices to parts with a BFS-balanced sweep and keeps
only the edges internal to a part.  Dropping cross edges makes each part
strictly smaller, so the filter stays complete (an untouched part is still a
subgraph of the query).  That is this reproduction's substitution for
half-edges: parts carry fewer edges, so they match more queries and prune
less, for Pars and Ring alike.
"""

from __future__ import annotations

from collections import deque

from repro.graphs.columns import EncodedGraph
from repro.graphs.graph import Graph


def partition_vertices(graph: Graph, num_parts: int) -> list[list]:
    """Assign vertices to ``num_parts`` groups of nearly equal size.

    A BFS sweep keeps each group as connected as practical, which makes the
    parts more selective patterns than random vertex subsets would be.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    vertices = graph.vertices
    if not vertices:
        return [[] for _ in range(num_parts)]
    order: list = []
    visited: set = set()
    for seed in vertices:
        if seed in visited:
            continue
        queue = deque([seed])
        visited.add(seed)
        while queue:
            vertex = queue.popleft()
            order.append(vertex)
            for neighbor in sorted(graph.neighbors(vertex), key=repr):
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
    base, remainder = divmod(len(order), num_parts)
    groups: list[list] = []
    start = 0
    for part in range(num_parts):
        size = base + (1 if part < remainder else 0)
        groups.append(order[start : start + size])
        start += size
    return groups


def partition_graph(graph: Graph, num_parts: int) -> list[Graph]:
    """The ``num_parts`` induced subgraphs used as Pars / Ring features."""
    return [
        graph.induced_subgraph(group) for group in partition_vertices(graph, num_parts)
    ]


def partition_encoded(graph: Graph, encoded: EncodedGraph, num_parts: int) -> list[EncodedGraph]:
    """The same parts as :func:`partition_graph`, cut from the graph's encoded arrays."""
    position = {vertex: index for index, vertex in enumerate(graph.vertices)}
    return [
        encoded.induced([position[vertex] for vertex in group])
        for group in partition_vertices(graph, num_parts)
    ]
