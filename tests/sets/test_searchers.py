"""Correctness and containment tests for the set similarity searchers."""

import contextlib

import pytest

from repro.datasets.tokens import zipfian_set_workload
from repro.engine import Query, SearchEngine, ShardedEngine, build_shards
from repro.sets.adaptsearch import AdaptSearchSearcher
from repro.sets.dataset import SetDataset
from repro.sets.linear import LinearSetSearcher
from repro.sets.partalloc import PartAllocSearcher
from repro.sets.pkwise import PkwiseSearcher
from repro.sets.ring import RingSetSearcher
from repro.sets.similarity import JaccardPredicate, OverlapPredicate


@pytest.fixture(scope="module")
def workload():
    return zipfian_set_workload(
        num_records=300,
        num_queries=12,
        universe_size=800,
        avg_size=20,
        size_spread=8,
        skew=1.2,
        duplicate_fraction=0.5,
        noise_fraction=0.15,
        seed=7,
    )


@pytest.fixture(scope="module")
def dataset(workload):
    return SetDataset(workload.records, num_classes=4)


JACCARD_TAUS = (0.6, 0.7, 0.8, 0.9)


def ground_truth(dataset, predicate, query):
    return sorted(LinearSetSearcher(dataset, predicate).search(query).results)


class TestExactnessJaccard:
    @pytest.mark.parametrize("tau", JACCARD_TAUS)
    @pytest.mark.parametrize("chain_length", (1, 2, 3, 5))
    def test_ring_matches_linear_scan(self, workload, dataset, tau, chain_length):
        predicate = JaccardPredicate(tau)
        searcher = RingSetSearcher(dataset, predicate, chain_length=chain_length)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, predicate, query
            )

    @pytest.mark.parametrize("tau", JACCARD_TAUS)
    def test_pkwise_matches_linear_scan(self, workload, dataset, tau):
        predicate = JaccardPredicate(tau)
        searcher = PkwiseSearcher(dataset, predicate)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, predicate, query
            )

    @pytest.mark.parametrize("tau", JACCARD_TAUS)
    def test_adaptsearch_matches_linear_scan(self, workload, dataset, tau):
        predicate = JaccardPredicate(tau)
        searcher = AdaptSearchSearcher(dataset, predicate)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, predicate, query
            )

    @pytest.mark.parametrize("tau", JACCARD_TAUS)
    def test_partalloc_matches_linear_scan(self, workload, dataset, tau):
        predicate = JaccardPredicate(tau)
        searcher = PartAllocSearcher(dataset, predicate)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, predicate, query
            )

    def test_queries_have_results(self, workload, dataset):
        # The workload is built so high-similarity queries are not all empty.
        predicate = JaccardPredicate(0.6)
        total = sum(
            len(ground_truth(dataset, predicate, query)) for query in workload.queries
        )
        assert total > 0


class TestExactnessOverlap:
    @pytest.mark.parametrize("tau", (5, 10, 15))
    @pytest.mark.parametrize("chain_length", (1, 2, 3))
    def test_ring_matches_linear_scan(self, workload, dataset, tau, chain_length):
        predicate = OverlapPredicate(tau)
        searcher = RingSetSearcher(dataset, predicate, chain_length=chain_length)
        for query in workload.queries:
            assert sorted(searcher.search(query).results) == ground_truth(
                dataset, predicate, query
            )


class TestCandidateContainment:
    @pytest.mark.parametrize("tau", (0.7, 0.8))
    def test_ring_candidates_subset_of_pkwise(self, workload, dataset, tau):
        predicate = JaccardPredicate(tau)
        pkwise = PkwiseSearcher(dataset, predicate)
        for chain_length in (2, 3):
            ring = RingSetSearcher(dataset, predicate, chain_length=chain_length)
            for query in workload.queries:
                assert set(ring.candidates(query)) <= set(pkwise.candidates(query))

    def test_chain_length_one_equals_pkwise(self, workload, dataset):
        predicate = JaccardPredicate(0.8)
        pkwise = PkwiseSearcher(dataset, predicate)
        ring = RingSetSearcher(dataset, predicate, chain_length=1)
        for query in workload.queries:
            assert set(ring.candidates(query)) == set(pkwise.candidates(query))

    def test_candidates_contain_results(self, workload, dataset):
        predicate = JaccardPredicate(0.7)
        ring = RingSetSearcher(dataset, predicate, chain_length=2)
        for query in workload.queries:
            outcome = ring.search(query)
            assert set(outcome.results) <= set(outcome.candidates)

    def test_ring_reduces_candidates_on_average(self, workload, dataset):
        predicate = JaccardPredicate(0.7)
        pkwise = PkwiseSearcher(dataset, predicate)
        ring = RingSetSearcher(dataset, predicate, chain_length=2)
        pkwise_total = sum(len(pkwise.candidates(q)) for q in workload.queries)
        ring_total = sum(len(ring.candidates(q)) for q in workload.queries)
        assert ring_total <= pkwise_total


class TestConstruction:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            SetDataset([])

    def test_invalid_num_classes(self, workload):
        with pytest.raises(ValueError):
            SetDataset(workload.records[:5], num_classes=0)

    def test_invalid_chain_length(self, dataset):
        with pytest.raises(ValueError):
            RingSetSearcher(dataset, JaccardPredicate(0.8), chain_length=0)

    def test_invalid_partalloc_parts(self, dataset):
        with pytest.raises(ValueError):
            PartAllocSearcher(dataset, JaccardPredicate(0.8), num_parts=0)

    def test_chain_length_clamped(self, dataset):
        searcher = RingSetSearcher(dataset, JaccardPredicate(0.8), chain_length=50)
        assert searcher.chain_length == dataset.num_classes + 1


class TestTinyRecordsEdgeCases:
    """Small records at low thresholds exercise the stall / fallback paths."""

    RECORDS = [
        [1, 2],
        [1, 2, 3],
        [4, 5, 6, 7],
        [1, 2, 3, 4, 5, 6],
        [8],
        [9, 10, 11],
        [1, 3, 5, 7, 9],
        [2, 4, 6, 8, 10],
    ]

    @pytest.mark.parametrize("tau", (0.3, 0.5, 0.7, 1.0))
    @pytest.mark.parametrize("chain_length", (1, 2, 3))
    def test_exactness_on_tiny_records(self, tau, chain_length):
        dataset = SetDataset(self.RECORDS, num_classes=4)
        predicate = JaccardPredicate(tau)
        ring = RingSetSearcher(dataset, predicate, chain_length=chain_length)
        for query in self.RECORDS + [[1, 2, 3, 4], [7, 8], [12, 13]]:
            expected = ground_truth(dataset, predicate, query)
            assert sorted(ring.search(query).results) == expected

    @pytest.mark.parametrize("sharded", (False, True))
    def test_unseen_query_tokens_with_one_hash_rank_count_twice(self, sharded, tmp_path):
        """Two unseen query tokens whose hash ranks collide are still two
        tokens: |q| = 3, so [1, 2] has Jaccard 1/4 with the query -- in the
        main index, in the delta and after compaction alike."""
        records = [[1, 2], [3, 4], [5, 6, 7]]
        query = [1, 100, 100 + 2**30]
        with contextlib.ExitStack() as stack:
            if sharded:
                directory = str(tmp_path / "shards")
                build_shards("sets", SetDataset(records, num_classes=2), directory, 2)
                engine = stack.enter_context(ShardedEngine(directory, replicas=1))
            else:
                engine = stack.enter_context(SearchEngine(cache_size=0))
                engine.add_dataset("sets", SetDataset(records, num_classes=2))
            engine.mutate("sets", [{"op": "upsert", "record": [1, 2]}])  # id 3
            assert engine.search(Query("sets", query, tau=0.3)).ids == []
            topk = engine.search(Query("sets", query, tau=0.3, k=2))
            assert (topk.ids, topk.scores) == ([0, 3], [-0.25, -0.25])
            engine.compact("sets")
            assert engine.search(Query("sets", query, tau=0.3)).ids == []
            assert engine.search(Query("sets", query, tau=0.25)).ids == [0, 3]

    @pytest.mark.parametrize("tau", (1, 2, 3))
    def test_exactness_on_tiny_records_overlap(self, tau):
        dataset = SetDataset(self.RECORDS, num_classes=3)
        predicate = OverlapPredicate(tau)
        ring = RingSetSearcher(dataset, predicate, chain_length=2)
        for query in self.RECORDS:
            expected = ground_truth(dataset, predicate, query)
            assert sorted(ring.search(query).results) == expected
