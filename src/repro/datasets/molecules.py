"""Synthetic molecule-like graph workloads (AIDS / Protein stand-ins).

Graph-edit-distance filtering is driven by label selectivity: the AIDS
compounds have many vertex labels (selective parts), the Protein graphs have
very few (parts match almost anything).  The generator builds small connected
graphs -- a random spanning tree plus a few extra edges, with configurable
vertex/edge label alphabets -- and plants near-duplicates produced by a small
number of random edit operations, so thresholded queries return non-empty
result sets.  Graph sizes are kept around 8-12 vertices so that exact GED
verification stays tractable in pure Python: this reproduction's substitution
for the paper's AIDS and Protein datasets, whose graphs average about 26 and
33 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph


@dataclass
class GraphWorkload:
    """A dataset of labelled graphs plus a query workload."""

    graphs: list[Graph]
    queries: list[Graph]

    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    @property
    def avg_vertices(self) -> float:
        if not self.graphs:
            return 0.0
        return sum(g.num_vertices for g in self.graphs) / len(self.graphs)


def _random_graph(
    rng: np.random.Generator,
    num_vertices: int,
    extra_edges: int,
    vertex_labels: list[str],
    edge_labels: list[str],
) -> Graph:
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, vertex_labels[int(rng.integers(0, len(vertex_labels)))])
    # Random spanning tree keeps the graph connected.
    for vertex in range(1, num_vertices):
        parent = int(rng.integers(0, vertex))
        graph.add_edge(vertex, parent, edge_labels[int(rng.integers(0, len(edge_labels)))])
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 10 * extra_edges + 10:
        attempts += 1
        u = int(rng.integers(0, num_vertices))
        v = int(rng.integers(0, num_vertices))
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v, edge_labels[int(rng.integers(0, len(edge_labels)))])
        added += 1
    return graph


def _random_edit(
    rng: np.random.Generator, graph: Graph, vertex_labels: list[str], edge_labels: list[str]
) -> None:
    """Apply one random edit operation in place."""
    operation = int(rng.integers(0, 4))
    vertices = graph.vertices
    if operation == 0 and vertices:  # relabel a vertex
        vertex = vertices[int(rng.integers(0, len(vertices)))]
        graph.add_vertex(vertex, vertex_labels[int(rng.integers(0, len(vertex_labels)))])
    elif operation == 1 and graph.num_edges > 1:  # delete an edge
        u, v, _label = graph.edges()[int(rng.integers(0, graph.num_edges))]
        graph.remove_edge(u, v)
    elif operation == 2 and len(vertices) >= 2:  # insert an edge
        u = vertices[int(rng.integers(0, len(vertices)))]
        v = vertices[int(rng.integers(0, len(vertices)))]
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, edge_labels[int(rng.integers(0, len(edge_labels)))])
    else:  # relabel an edge
        if graph.num_edges:
            u, v, _label = graph.edges()[int(rng.integers(0, graph.num_edges))]
            graph.remove_edge(u, v)
            graph.add_edge(u, v, edge_labels[int(rng.integers(0, len(edge_labels)))])


def molecule_workload(
    num_graphs: int,
    num_queries: int,
    min_vertices: int = 8,
    max_vertices: int = 12,
    extra_edges: int = 2,
    num_vertex_labels: int = 8,
    num_edge_labels: int = 3,
    duplicate_fraction: float = 0.5,
    max_edits: int = 4,
    seed: int = 0,
) -> GraphWorkload:
    """Generate a molecule-like labelled-graph workload with planted duplicates."""
    if num_graphs <= 0 or num_queries <= 0:
        raise ValueError("the workload needs at least one graph and one query")
    if min_vertices < 2 or max_vertices < min_vertices:
        raise ValueError("invalid vertex-count range")
    rng = np.random.default_rng(seed)
    vertex_labels = [f"V{i}" for i in range(num_vertex_labels)]
    edge_labels = [f"e{i}" for i in range(num_edge_labels)]

    def fresh() -> Graph:
        size = int(rng.integers(min_vertices, max_vertices + 1))
        return _random_graph(rng, size, extra_edges, vertex_labels, edge_labels)

    def noisy_copy(source: Graph) -> Graph:
        copy = source.copy()
        for _ in range(int(rng.integers(1, max_edits + 1))):
            _random_edit(rng, copy, vertex_labels, edge_labels)
        return copy

    num_sources = max(1, int(round(num_graphs * (1.0 - duplicate_fraction))))
    graphs = [fresh() for _ in range(num_sources)]
    while len(graphs) < num_graphs:
        graphs.append(noisy_copy(graphs[int(rng.integers(0, num_sources))]))
    queries = [
        noisy_copy(graphs[int(rng.integers(0, len(graphs)))]) for _ in range(num_queries)
    ]
    return GraphWorkload(graphs=graphs, queries=queries)


def aids_like(num_graphs: int = 150, num_queries: int = 10, seed: int = 0) -> GraphWorkload:
    """Stand-in for the AIDS antivirus compounds (many vertex labels)."""
    return molecule_workload(
        num_graphs=num_graphs,
        num_queries=num_queries,
        min_vertices=8,
        max_vertices=12,
        extra_edges=2,
        num_vertex_labels=10,
        num_edge_labels=3,
        max_edits=4,
        seed=seed,
    )


def protein_like(num_graphs: int = 100, num_queries: int = 8, seed: int = 1) -> GraphWorkload:
    """Stand-in for the Protein structures (few vertex labels, denser)."""
    return molecule_workload(
        num_graphs=num_graphs,
        num_queries=num_queries,
        min_vertices=8,
        max_vertices=11,
        extra_edges=4,
        num_vertex_labels=3,
        num_edge_labels=5,
        max_edits=4,
        seed=seed,
    )
