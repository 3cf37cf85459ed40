"""A small labelled-graph data structure.

Graphs are undirected, with string (or any hashable) labels on vertices and
edges.  They are intentionally lightweight: the search algorithms only need
label lookups, adjacency, induced subgraphs and simple statistics.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping


def _check_label(label: Hashable) -> None:
    """Labels are compared and counted by value, so they must be hashable."""
    try:
        hash(label)
    except TypeError:
        raise ValueError(f"a label must be hashable, got {type(label).__name__}") from None


class Graph:
    """An undirected labelled graph.

    Args:
        vertex_labels: mapping from vertex id to label.
        edges: mapping from a pair of vertex ids (any 2-iterable) to the edge
            label, or an iterable of ``(u, v, label)`` triples.
    """

    def __init__(
        self,
        vertex_labels: Mapping[Hashable, Hashable] | None = None,
        edges: Mapping | Iterable | None = None,
    ):
        self._labels: dict = {}
        self._edges: dict[frozenset, Hashable] = {}
        self._adjacency: dict = {}
        for vertex, label in (vertex_labels or {}).items():
            self.add_vertex(vertex, label)
        if edges:
            items = edges.items() if isinstance(edges, Mapping) else (
                ((u, v), label) for u, v, label in edges
            )
            for (u, v), label in items:
                self.add_edge(u, v, label)

    # -- construction -----------------------------------------------------

    def add_vertex(self, vertex: Hashable, label: Hashable) -> None:
        _check_label(label)
        self._labels[vertex] = label
        self._adjacency.setdefault(vertex, set())

    def add_edge(self, u: Hashable, v: Hashable, label: Hashable) -> None:
        if u == v:
            raise ValueError("self loops are not supported")
        if u not in self._labels or v not in self._labels:
            raise ValueError("both endpoints must be existing vertices")
        _check_label(label)
        self._edges[frozenset((u, v))] = label
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        del self._edges[frozenset((u, v))]
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)

    def remove_vertex(self, vertex: Hashable) -> None:
        for neighbor in list(self._adjacency[vertex]):
            self.remove_edge(vertex, neighbor)
        del self._adjacency[vertex]
        del self._labels[vertex]

    # -- queries ----------------------------------------------------------

    @property
    def vertices(self) -> list:
        return list(self._labels)

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex_label(self, vertex: Hashable) -> Hashable:
        return self._labels[vertex]

    def has_vertex(self, vertex: Hashable) -> bool:
        return vertex in self._labels

    def neighbors(self, vertex: Hashable) -> set:
        return set(self._adjacency[vertex])

    def degree(self, vertex: Hashable) -> int:
        return len(self._adjacency[vertex])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return frozenset((u, v)) in self._edges

    def edge_label(self, u: Hashable, v: Hashable) -> Hashable:
        return self._edges[frozenset((u, v))]

    def edges(self) -> list[tuple]:
        """All edges as ``(u, v, label)`` triples (arbitrary endpoint order)."""
        return [(*sorted(pair, key=repr), label) for pair, label in self._edges.items()]

    def vertex_label_counts(self) -> dict:
        counts: dict = {}
        for label in self._labels.values():
            counts[label] = counts.get(label, 0) + 1
        return counts

    def edge_label_counts(self) -> dict:
        counts: dict = {}
        for label in self._edges.values():
            counts[label] = counts.get(label, 0) + 1
        return counts

    def induced_subgraph(self, vertices: Iterable[Hashable]) -> "Graph":
        """The subgraph induced by a vertex subset (cross edges dropped)."""
        keep = set(vertices)
        subgraph = Graph({v: self._labels[v] for v in keep})
        for pair, label in self._edges.items():
            u, v = tuple(pair)
            if u in keep and v in keep:
                subgraph.add_edge(u, v, label)
        return subgraph

    def copy(self) -> "Graph":
        clone = Graph(dict(self._labels))
        for pair, label in self._edges.items():
            u, v = tuple(pair)
            clone.add_edge(u, v, label)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._edges == other._edges

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"
