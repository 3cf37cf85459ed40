"""The paper's structural claims on all four domains, through ``Backend.make_searcher``.

On random data the served ``ring`` searcher must satisfy, for every domain:

* CAND(l + 1) ⊆ CAND(l) for every l < m -- a longer chain only adds prefixes
  that must stay viable;
* results == ``linear`` and results ⊆ candidates, at every l;
* where the paper's baseline *is* the ring at l = 1 (sets' pkwise,
  hamming's GPH), ring at l = 1 returns the baseline's candidates.

Strings also get two explicit cases the random draws do not reach: tau = 64
(m = 65 boxes over long records) and long records whose chain check reads
many "query"-side boxes from the per-query substring-mask table.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import get_backend
from repro.graphs import Graph, GraphDataset
from repro.hamming import BinaryVectorDataset
from repro.sets import SetDataset
from repro.strings import StringDataset


@st.composite
def hamming_cases(draw):
    bits = st.lists(st.integers(0, 1), min_size=16, max_size=16)
    vectors = draw(st.lists(bits, min_size=2, max_size=24))
    dataset = BinaryVectorDataset(np.asarray(vectors, dtype=np.uint8), num_parts=4)
    query = np.asarray(draw(bits), dtype=np.uint8)
    return dataset, query, draw(st.integers(0, 8)), dataset.m


@st.composite
def set_cases(draw):
    record = st.lists(st.integers(0, 24), min_size=1, max_size=8)
    dataset = SetDataset(
        draw(st.lists(record, min_size=2, max_size=30)),
        num_classes=draw(st.integers(1, 4)),
    )
    query = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))
    tau = draw(st.one_of(st.integers(1, 4), st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0])))
    return dataset, query, tau, dataset.num_classes + 1


@st.composite
def string_cases(draw):
    records = draw(st.lists(st.text("abcd", min_size=1, max_size=14), min_size=2, max_size=30))
    dataset = StringDataset(records, kappa=draw(st.integers(1, 3)))
    tau = draw(st.integers(1, 3))
    return dataset, draw(st.text("abcde", max_size=14)), tau, tau + 1


@st.composite
def small_graphs(draw) -> Graph:
    n = draw(st.integers(1, 4))
    graph = Graph({v: draw(st.sampled_from("CNO")) for v in range(n)})
    for u, v in itertools.combinations(range(n), 2):
        label = draw(st.sampled_from((None, "-", "=")))
        if label is not None:
            graph.add_edge(u, v, label)
    return graph


@st.composite
def graph_cases(draw):
    dataset = GraphDataset(draw(st.lists(small_graphs(), min_size=2, max_size=8)))
    tau = draw(st.integers(1, 3))
    return dataset, draw(small_graphs()), tau, tau + 1


CASES = {
    "hamming": hamming_cases(),
    "sets": set_cases(),
    "strings": string_cases(),
    "graphs": graph_cases(),
}

#: Domains whose ``baseline`` is the ring searcher at chain length 1.
BASELINE_IS_RING_AT_ONE = {"hamming", "sets"}


def check_ring_structure(name, dataset, query, tau, lengths) -> None:
    """The claims above for ``ring`` at each of the increasing ``lengths``."""
    backend = get_backend(name)
    store = backend.prepare(dataset)
    expected = sorted(backend.make_searcher(store, "linear", tau, None)(query).results)
    previous: set[int] | None = None
    for length in lengths:
        outcome = backend.make_searcher(store, "ring", tau, length)(query)
        candidates = set(outcome.candidates)
        assert sorted(outcome.results) == expected, length
        assert set(outcome.results) <= candidates, length
        assert previous is None or candidates <= previous, length
        previous = candidates
        if length == 1 and name in BASELINE_IS_RING_AT_ONE:
            baseline = backend.make_searcher(store, "baseline", tau, None)(query)
            assert sorted(baseline.candidates) == sorted(outcome.candidates)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ring_candidates_shrink_with_l_and_results_equal_linear(name, data):
    dataset, query, tau, m = data.draw(CASES[name])
    check_ring_structure(name, dataset, query, tau, range(1, m + 1))


def long_strings(seed: int, length: int) -> tuple[StringDataset, list[str]]:
    """12 random records of ``length`` to ``length + 20`` characters and 4
    queries, each a record with up to ``length // 3`` substitutions."""
    rng = random.Random(seed)
    alphabet = "abcdefgh"
    records = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(length, length + 20)))
        for _ in range(12)
    ]
    queries = []
    for record in records[:4]:
        chars = list(record)
        for _ in range(rng.randint(0, length // 3)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        queries.append("".join(chars))
    return StringDataset(records, kappa=2), queries


def test_strings_ring_at_tau_64_equals_linear():
    # 130+ characters give the 65 disjoint pivotal 2-grams m = 65 needs.
    dataset, queries = long_strings(5, 130)
    for query in queries:
        check_ring_structure("strings", dataset, query, 64, (1, 2, 3, 65))


def test_strings_ring_chain_check_on_long_records_equals_linear():
    """Long records at tau 2 and 6 send many candidates to the chain check,
    whose "query"-side boxes read a substring-mask table built per query
    over just those records' code points."""
    dataset, queries = long_strings(6, 40)
    for tau in (2, 6):
        for query in queries:
            check_ring_structure("strings", dataset, query, tau, range(1, tau + 2))
