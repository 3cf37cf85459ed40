"""Exactness of the array-coded graph search, checked against independent references.

* the exact GED against ``networkx.graph_edit_distance`` with unit costs;
* the corpus-wide numpy label bound against the pair-by-pair bound and the
  exact distance;
* ``min_mapping_cost`` against a direct enumeration of every embedding;
* ``ring`` / ``baseline`` / ``linear`` against each other through the engine,
  plain, mutated and over 2 shards.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.molecules import aids_like
from repro.engine import Query, SearchEngine, ShardedEngine, build_shards
from repro.graphs import Graph, GraphDataset, graph_edit_distance, min_mapping_cost
from repro.graphs.ged import _label_multiset_lower_bound

VERTEX_LABELS = ("C", "N", "O")
EDGE_LABELS = ("-", "=")


@st.composite
def labelled_graphs(draw, max_vertices: int = 6) -> Graph:
    n = draw(st.integers(0, max_vertices))
    graph = Graph({v: draw(st.sampled_from(VERTEX_LABELS)) for v in range(n)})
    for u, v in itertools.combinations(range(n), 2):
        label = draw(st.sampled_from((None,) + EDGE_LABELS))
        if label is not None:
            graph.add_edge(u, v, label)
    return graph


def unit_edit(rng: random.Random, graph: Graph) -> None:
    """One edit operation of the paper's model, in place (a no-op when none applies)."""
    vertices = graph.vertices
    free = [(u, v) for u, v in itertools.combinations(vertices, 2) if not graph.has_edge(u, v)]
    edges = graph.edges()
    isolated = [v for v in vertices if graph.degree(v) == 0]
    operation = rng.randrange(6)
    if operation == 0:
        graph.add_vertex(max(vertices, default=-1) + 1, rng.choice(VERTEX_LABELS))
    elif operation == 1 and isolated:
        graph.remove_vertex(rng.choice(isolated))
    elif operation == 2 and vertices:
        graph.add_vertex(rng.choice(vertices), rng.choice(VERTEX_LABELS))  # relabel
    elif operation == 3 and free:
        graph.add_edge(*rng.choice(free), rng.choice(EDGE_LABELS))
    elif operation == 4 and edges:
        graph.remove_edge(*rng.choice(edges)[:2])
    elif operation == 5 and edges:
        u, v, _label = rng.choice(edges)
        graph.add_edge(u, v, rng.choice(EDGE_LABELS))  # relabel


def label_counts(graph: Graph) -> tuple[dict, dict]:
    return graph.vertex_label_counts(), graph.edge_label_counts()


class TestExactDistance:
    @settings(max_examples=40, deadline=None)
    @given(labelled_graphs(), labelled_graphs())
    def test_equals_networkx_with_unit_costs(self, g1, g2):
        nx = pytest.importorskip("networkx")

        def to_networkx(graph: Graph):
            out = nx.Graph()
            for vertex in graph.vertices:
                out.add_node(vertex, label=graph.vertex_label(vertex))
            for u, v, label in graph.edges():
                out.add_edge(u, v, label=label)
            return out

        def same_label(a, b):
            return a["label"] == b["label"]

        expected = nx.graph_edit_distance(
            to_networkx(g1), to_networkx(g2), node_match=same_label, edge_match=same_label
        )
        assert graph_edit_distance(g1, g2) == expected

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(), labelled_graphs(), st.integers(0, 2**32))
    def test_symmetric_capped_and_bounded_by_the_edit_script(self, g1, g2, seed):
        distance = graph_edit_distance(g1, g2)
        assert graph_edit_distance(g2, g1) == distance
        vertex_counts_1, edge_counts_1 = label_counts(g1)
        vertex_counts_2, edge_counts_2 = label_counts(g2)
        assert (
            _label_multiset_lower_bound(
                vertex_counts_1, vertex_counts_2, edge_counts_1, edge_counts_2
            )
            <= distance
        )
        # The ``cap + 1`` contract, for every cap below and above the value.
        for cap in range(distance + 3):
            assert graph_edit_distance(g1, g2, upper_bound=cap) == min(distance, cap + 1)
        # j unit edits never move a graph further than j.
        rng = random.Random(seed)
        edited = g1.copy()
        for j in range(1, 5):
            unit_edit(rng, edited)
            assert graph_edit_distance(g1, edited) <= j
            assert graph_edit_distance(g1, edited, upper_bound=j) <= j


class TestCorpusBound:
    @pytest.mark.parametrize("seed", (3, 2018))
    def test_equals_the_pairwise_bound_and_never_exceeds_the_distance(self, seed):
        workload = aids_like(num_graphs=30, num_queries=6, seed=seed)
        columns = GraphDataset(workload.graphs).columns()
        queries = list(workload.queries)
        # Labels the corpus has never seen, on vertices and on edges.
        alien = queries[0].copy()
        alien.add_vertex(alien.vertices[0], "Xx")
        alien.add_vertex(99, "Yy")
        alien.add_edge(99, alien.vertices[1], "triple")
        queries.append(alien)
        for query in queries:
            bounds = columns.label_bounds(columns.encode(query)).tolist()
            query_counts = label_counts(query)
            for graph, bound in zip(workload.graphs, bounds):
                graph_counts = label_counts(graph)
                assert bound == _label_multiset_lower_bound(
                    graph_counts[0], query_counts[0], graph_counts[1], query_counts[1]
                )
                assert graph_edit_distance(graph, query, upper_bound=bound) >= bound

    def test_matrices_describe_the_corpus(self):
        workload = aids_like(num_graphs=12, num_queries=1, seed=4)
        columns = GraphDataset(workload.graphs).columns()
        assert columns.num_vertices.tolist() == [g.num_vertices for g in workload.graphs]
        assert columns.num_edges.tolist() == [g.num_edges for g in workload.graphs]
        for row, graph in enumerate(workload.graphs):
            for label, count in graph.vertex_label_counts().items():
                assert columns.vertex_counts[row, columns.vertex_codes[label]] == count
            for label, count in graph.edge_label_counts().items():
                assert columns.edge_counts[row, columns.edge_codes[label] - 1] == count


def enumerated_mapping_cost(pattern: Graph, target: Graph) -> int:
    """``min_mapping_cost`` by trying every injective partial embedding."""
    vertices = pattern.vertices
    images = target.vertices + [None] * len(vertices)
    best = None
    for assignment in set(itertools.permutations(images, len(vertices))):
        mapping = dict(zip(vertices, assignment))
        cost = 0
        for vertex, image in mapping.items():
            if image is None or target.vertex_label(image) != pattern.vertex_label(vertex):
                cost += 1
        for u, v, label in pattern.edges():
            a, b = mapping[u], mapping[v]
            if a is None or b is None or not target.has_edge(a, b) or target.edge_label(a, b) != label:
                cost += 1
        best = cost if best is None else min(best, cost)
    return best or 0


class TestMappingCost:
    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs(max_vertices=4), labelled_graphs(max_vertices=5))
    def test_equals_direct_enumeration(self, pattern, target):
        expected = enumerated_mapping_cost(pattern, target)
        for budget in range(4):
            assert min_mapping_cost(pattern, target, budget) == min(expected, budget + 1)


@pytest.fixture(scope="module")
def corpus():
    return aids_like(num_graphs=36, num_queries=4, seed=21)


def answers(engine, queries, tau: int) -> dict:
    """ids per (algorithm, chain length, query); every entry must agree with ``linear``."""
    out = {}
    for position, payload in enumerate(queries):
        expected = engine.search(Query("graphs", payload, tau=tau, algorithm="linear")).ids
        out[position] = expected
        for chain_length in range(1, tau + 2):
            ring = Query("graphs", payload, tau=tau, algorithm="ring", chain_length=chain_length)
            assert engine.search(ring).ids == expected, (tau, chain_length, position)
        assert engine.search(Query("graphs", payload, tau=tau, algorithm="baseline")).ids == expected
    return out


class TestSearchersAgree:
    @pytest.mark.parametrize("tau", (1, 2, 3, 4))
    def test_plain_and_after_mutations(self, corpus, tau):
        queries = list(corpus.queries)
        with SearchEngine() as engine:
            engine.add_dataset("graphs", GraphDataset(corpus.graphs))
            before = answers(engine, queries, tau)
            assert any(before.values())
            # A near-duplicate of each query lands in the delta; a hit of each goes.
            ops = [{"op": "upsert", "record": query.copy()} for query in queries]
            ops += [{"op": "delete", "id": ids[0]} for ids in before.values() if ids]
            engine.mutate("graphs", ops)
            mutated = answers(engine, queries, tau)
            assert mutated != before
            engine.compact("graphs")
            assert answers(engine, queries, tau) == mutated

    def test_through_two_shards(self, corpus, tmp_path):
        queries = list(corpus.queries)
        with SearchEngine() as plain:
            plain.add_dataset("graphs", GraphDataset(corpus.graphs))
            expected = {tau: answers(plain, queries, tau) for tau in (1, 2, 3, 4)}
        directory = str(tmp_path / "shards")
        build_shards("graphs", GraphDataset(corpus.graphs), directory, 2)
        with ShardedEngine(directory, replicas=1) as sharded:
            for tau, per_query in expected.items():
                assert answers(sharded, queries, tau) == per_query
