"""The graphs filter funnel as exact counts: a gate that times nothing.

On a fixed workload every stage of the pipeline is deterministic, so a change
that weakens a bound, reorders the filter or makes verification expand more of
its search tree moves one of these numbers and fails here, in tier 1, rather
than in a benchmark rerun.  A change that *improves* one of them updates the
figure in the same commit.
"""

import pytest

from repro.datasets.molecules import aids_like
from repro.graphs import GraphDataset, ParsSearcher, RingGraphSearcher

# (searcher, tau) -> survivors of the corpus-wide label bound, candidates after
# part matching / the chain check, results, branch-and-bound nodes expanded by
# verification; summed over the 40 queries against 80 graphs.
EXPECTED = {
    ("ring", 3): (141, 129, 58, 2155),
    ("baseline", 3): (141, 140, 58, 2182),
    ("ring", 4): (390, 371, 76, 5153),
}


@pytest.fixture(scope="module")
def workload():
    return aids_like(num_graphs=80, num_queries=40, seed=2018)


@pytest.mark.parametrize(("algorithm", "tau"), sorted(EXPECTED))
def test_funnel_counts_are_pinned(workload, algorithm, tau):
    dataset = GraphDataset(workload.graphs)
    searcher = (RingGraphSearcher if algorithm == "ring" else ParsSearcher)(dataset, tau)
    outcomes = [searcher.search(query) for query in workload.queries]
    for outcome in outcomes:
        assert outcome.extra["verified"] == outcome.num_candidates
        assert set(outcome.results) <= set(outcome.candidates)
    funnel = (
        sum(outcome.extra["generated"] for outcome in outcomes),
        sum(outcome.num_candidates for outcome in outcomes),
        sum(outcome.num_results for outcome in outcomes),
        sum(outcome.extra["nodes"] for outcome in outcomes),
    )
    assert funnel == EXPECTED[algorithm, tau]
