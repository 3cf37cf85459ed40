"""Graphs on arrays: int-coded labels, adjacency rows and corpus count matrices.

The search algorithms never walk :class:`repro.graphs.graph.Graph` objects.
A graph is encoded once into an :class:`EncodedGraph` -- vertices are the
positions ``0 .. n - 1`` in ``graph.vertices`` order, labels are small ints,
an edge test is a row lookup -- and a dataset additionally holds each graph's
label counts as one row of a matrix, so the label-multiset lower bound of the
edit distance prunes the whole corpus in one numpy expression
(:meth:`GraphColumns.label_bounds`) before any per-part work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.graphs.graph import Graph


class EncodedGraph:
    """One graph over int codes (immutable by convention, shared across queries).

    Attributes:
        n: number of vertices.
        labels: vertex label code per vertex.
        adj: ``n x n`` rows of edge label codes, 0 meaning "no edge".
        nbrs: neighbour list per vertex, in increasing vertex order.
        edges: every edge once, as a pair of vertices.
        order: the vertices by decreasing degree (ties in vertex order), the
            order the branch-and-bound searches assign them in.
        pending: ``pending[k]`` is the number of edges with an endpoint among
            ``order[k:]``, the edges a search at depth ``k`` has yet to charge.
        vertex_counts / edge_counts: label code -> multiplicity.
    """

    __slots__ = (
        "n", "labels", "adj", "nbrs", "edges", "order", "pending", "vertex_counts", "edge_counts"
    )

    def __init__(self, labels: list[int], adj: list[list[int]]):
        self.n = len(labels)
        self.labels = labels
        self.adj = adj
        self.nbrs = [[v for v, code in enumerate(row) if code] for row in adj]
        self.edges = [(u, v) for u, row in enumerate(self.nbrs) for v in row if u < v]
        self.order = sorted(range(self.n), key=lambda v: -len(self.nbrs[v]))
        self.pending = [len(self.edges)]
        placed: set[int] = set()
        for vertex in self.order:
            self.pending.append(self.pending[-1] - sum(v in placed for v in self.nbrs[vertex]))
            placed.add(vertex)
        self.vertex_counts = _counts(labels)
        self.edge_counts = _counts(adj[u][v] for u, v in self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def induced(self, vertices: Sequence[int]) -> "EncodedGraph":
        """The subgraph induced by a vertex subset (cross edges dropped)."""
        return EncodedGraph(
            [self.labels[v] for v in vertices],
            [[self.adj[u][v] for v in vertices] for u in vertices],
        )


def _counts(codes) -> dict[int, int]:
    counts: dict[int, int] = {}
    for code in codes:
        counts[code] = counts.get(code, 0) + 1
    return counts


def _growing(codes: dict, first: int) -> Callable[[Hashable], int]:
    """label -> code, extending the codebook with every unseen label."""
    return lambda label: codes.setdefault(label, len(codes) + first)


def _frozen(codes: dict) -> Callable[[Hashable], int]:
    """label -> code for a query: labels the book lacks get negative codes of their own."""
    fresh: dict = {}

    def code(label: Hashable) -> int:
        known = codes.get(label)
        return known if known is not None else fresh.setdefault(label, -1 - len(fresh))

    return code


def _encode(graph: Graph, vertex_code, edge_code) -> EncodedGraph:
    vertices = graph.vertices
    position = {vertex: index for index, vertex in enumerate(vertices)}
    n = len(vertices)
    adj = [[0] * n for _ in range(n)]
    for u, v, label in graph.edges():
        i, j = position[u], position[v]
        adj[i][j] = adj[j][i] = edge_code(label)
    return EncodedGraph([vertex_code(graph.vertex_label(v)) for v in vertices], adj)


def encode_pair(g1: Graph, g2: Graph) -> tuple[EncodedGraph, EncodedGraph]:
    """Two graphs over one throwaway codebook (edge codes start at 1)."""
    vertex_code, edge_code = _growing({}, 0), _growing({}, 1)
    return _encode(g1, vertex_code, edge_code), _encode(g2, vertex_code, edge_code)


def _surplus_bound(counts: np.ndarray, query: dict[int, int], first: int) -> np.ndarray:
    """Per row, ``max`` of the row's label surplus over the query and the query's over the row."""
    known = np.zeros(counts.shape[1], dtype=counts.dtype)
    unknown = 0
    for code, count in query.items():
        if code < 0:
            unknown += count  # a label no data graph carries: pure query-side surplus
        else:
            known[code - first] = count
    diff = counts - known
    over = np.maximum(diff, 0).sum(axis=1)
    return np.maximum(over, over - diff.sum(axis=1) + unknown)


@dataclass(frozen=True)
class GraphColumns:
    """A dataset's graphs in encoded form plus the corpus-wide count matrices.

    ``vertex_counts[i, c]`` is how often graph ``i`` carries vertex label code
    ``c``; ``edge_counts[i, c - 1]`` likewise for edge label code ``c`` (edge
    codes start at 1, 0 is "no edge" in the adjacency rows).
    """

    vertex_codes: dict
    edge_codes: dict
    graphs: list[EncodedGraph]
    vertex_counts: np.ndarray
    edge_counts: np.ndarray
    num_vertices: np.ndarray
    num_edges: np.ndarray

    @classmethod
    def build(cls, graphs: Sequence[Graph]) -> "GraphColumns":
        vertex_codes: dict = {}
        edge_codes: dict = {}
        vertex_code, edge_code = _growing(vertex_codes, 0), _growing(edge_codes, 1)
        encoded = [_encode(graph, vertex_code, edge_code) for graph in graphs]
        vertex_counts = np.zeros((len(encoded), len(vertex_codes)), dtype=np.int64)
        edge_counts = np.zeros((len(encoded), len(edge_codes)), dtype=np.int64)
        for row, graph in enumerate(encoded):
            for code, count in graph.vertex_counts.items():
                vertex_counts[row, code] = count
            for code, count in graph.edge_counts.items():
                edge_counts[row, code - 1] = count
        return cls(
            vertex_codes=vertex_codes,
            edge_codes=edge_codes,
            graphs=encoded,
            vertex_counts=vertex_counts,
            edge_counts=edge_counts,
            num_vertices=vertex_counts.sum(axis=1),
            num_edges=edge_counts.sum(axis=1),
        )

    def encode(self, query: Graph) -> EncodedGraph:
        """A query over the dataset's codebooks; unseen labels get fresh negative codes."""
        return _encode(query, _frozen(self.vertex_codes), _frozen(self.edge_codes))

    def label_bounds(self, query: EncodedGraph) -> np.ndarray:
        """The label-multiset lower bound of ``ged(graph, query)`` for every data graph.

        The value the exact distance's own first check computes pair by pair
        (``repro.graphs.ged._label_multiset_lower_bound``), for the whole
        corpus in one expression.
        """
        return np.maximum(
            _surplus_bound(self.vertex_counts, query.vertex_counts, 0),
            _surplus_bound(self.edge_counts, query.edge_counts, 1),
        )
