"""The served ``ring`` pipelines against their references, for threshold and
top-k queries, including after mutations.

Every domain has one ``ring`` searcher, and its results and scores must
equal the ``linear`` scan's.  Candidate sets are pinned separately: on sets
and strings by digests of seeded random draws, recorded when a second,
scalar implementation of each ring still served as the reference (the two
agreed on sets; on strings the digests are the served searcher's, whose
content prefilter keeps a subset of the scalar candidates); on hamming by
the generic ``repro.core.candidates`` oracle
(``tests/hamming/test_columnar_ring.py``).
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro.datasets.binary import clustered_binary_workload
from repro.datasets.molecules import aids_like
from repro.datasets.text import name_workload
from repro.datasets.tokens import zipfian_set_workload
from repro.engine import Query, SearchEngine
from repro.graphs import GraphDataset
from repro.hamming import BinaryVectorDataset
from repro.sets import LinearSetSearcher, RingSetSearcher, SetDataset
from repro.sets.similarity import JaccardPredicate, OverlapPredicate
from repro.strings import LinearStringSearcher, RingStringSearcher, StringDataset

from .conftest import delete, upsert


@pytest.fixture(scope="module")
def workloads():
    return {
        "hamming": clustered_binary_workload(180, 64, 5, seed=31),
        "sets": zipfian_set_workload(250, 10, seed=32),
        "strings": name_workload(160, 8, seed=33),
        "graphs": aids_like(num_graphs=20, num_queries=3, seed=34),
    }


@pytest.fixture(scope="module")
def datasets(workloads):
    return {
        "hamming": BinaryVectorDataset(workloads["hamming"].vectors, num_parts=4),
        "sets": SetDataset(workloads["sets"].records, num_classes=4),
        "strings": StringDataset(workloads["strings"].records, kappa=2),
        "graphs": GraphDataset(workloads["graphs"].graphs),
    }


@pytest.fixture(scope="module")
def payloads(workloads):
    return {
        "hamming": [row for row in workloads["hamming"].queries],
        "sets": list(workloads["sets"].queries),
        "strings": list(workloads["strings"].queries),
        "graphs": list(workloads["graphs"].queries),
    }


TAUS = {"hamming": 14, "sets": 0.6, "strings": 2, "graphs": 3}
#: Graph top-k escalates an exponential-cost GED radius, so it gets a small
#: ``k`` and a single query to keep the suite fast.
TOPK = {"hamming": 5, "sets": 5, "strings": 5, "graphs": 2}


def topk_payloads(name, payloads):
    return payloads[name][:1] if name == "graphs" else payloads[name]


def fresh_engine(datasets, names=None):
    engine = SearchEngine(cache_size=0)
    for name in names or datasets:
        engine.add_dataset(name, datasets[name])
    return engine


# ---------------------------------------------------------------------------
# Candidate and result ids on seeded random draws
# ---------------------------------------------------------------------------


def digest(rows: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def test_sets_ring_matches_recorded_digests_and_linear():
    rng = random.Random(91)
    candidates, results = [], []
    for _ in range(6):
        records = [
            [rng.randint(0, 70) for _ in range(rng.randint(1, 16))]
            for _ in range(rng.randint(20, 150))
        ]
        dataset = SetDataset(records, num_classes=rng.choice([1, 2, 4]))
        for predicate in (
            OverlapPredicate(rng.randint(1, 4)),
            JaccardPredicate(rng.choice([0.4, 0.6, 0.8])),
        ):
            linear = LinearSetSearcher(dataset, predicate)
            for chain_length in (1, 2, 3):
                ring = RingSetSearcher(dataset, predicate, chain_length=chain_length)
                for _ in range(6):
                    query = [rng.randint(0, 80) for _ in range(rng.randint(1, 12))]
                    got = ring.search(query)
                    # Both emitted ascending.
                    assert got.candidates == sorted(got.candidates)
                    assert got.results == sorted(linear.search(query).results)
                    assert set(got.results) <= set(got.candidates)
                    candidates.append(got.candidates)
                    results.append(got.results)
    assert len(candidates) == 216
    assert digest(candidates) == "9865b7dea8e4dd35"
    assert digest(results) == "bbc345326c4f294d"


def test_strings_ring_matches_recorded_digests_and_linear():
    rng = random.Random(92)
    alphabet = "abcdef"
    candidates, results = [], []
    for _ in range(5):
        records = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 18)))
            for _ in range(rng.randint(20, 120))
        ]
        dataset = StringDataset(records, kappa=rng.choice([2, 3]))
        linear = LinearStringSearcher(dataset)
        for tau in (1, 2, 3):
            ring = RingStringSearcher(dataset, tau)
            for _ in range(6):
                query = "".join(
                    rng.choice(alphabet + "gh") for _ in range(rng.randint(0, 16))
                )
                got = ring.search(query)
                assert got.candidates == sorted(got.candidates)
                assert got.results == sorted(linear.search(query, tau).results)
                assert set(got.results) <= set(got.candidates)
                candidates.append(got.candidates)
                results.append(got.results)
    assert len(candidates) == 90
    assert digest(candidates) == "682561ca9392608d"
    assert digest(results) == "134f9f60163400a9"


# ---------------------------------------------------------------------------
# Engine-level equivalence: threshold and top-k
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TAUS))
def test_threshold_ids_byte_identical(name, datasets, payloads):
    engine = fresh_engine(datasets, [name])
    for payload in payloads[name]:
        ring = engine.search(Query(backend=name, payload=payload, tau=TAUS[name]))
        reference = engine.search(
            Query(backend=name, payload=payload, tau=TAUS[name], algorithm="linear")
        )
        assert sorted(ring.ids) == sorted(reference.ids)


@pytest.mark.parametrize("name", sorted(TAUS))
def test_topk_ids_and_scores_byte_identical(name, datasets, payloads):
    engine = fresh_engine(datasets, [name])
    for payload in topk_payloads(name, payloads):
        ring = engine.search(
            Query(backend=name, payload=payload, k=TOPK[name], tau=TAUS[name])
        )
        reference = engine.search(
            Query(
                backend=name,
                payload=payload,
                k=TOPK[name],
                tau=TAUS[name],
                algorithm="linear",
            )
        )
        assert ring.ids == reference.ids
        assert ring.scores == reference.scores


def test_sets_threshold_both_predicates(datasets, payloads):
    engine = fresh_engine(datasets, ["sets"])
    for tau in (0.7, 3):  # Jaccard float and overlap int
        for payload in payloads["sets"]:
            ring = engine.search(Query(backend="sets", payload=payload, tau=tau))
            reference = engine.search(
                Query(backend="sets", payload=payload, tau=tau, algorithm="linear")
            )
            assert sorted(ring.ids) == sorted(reference.ids)


# ---------------------------------------------------------------------------
# Mutations: delta records flow through the vectorised scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sets", "strings", "graphs", "hamming"])
def test_mutated_index_byte_identical_to_rebuild(name, datasets, payloads, workloads):
    engine = fresh_engine(datasets, [name])
    backend = engine.backend(name)
    store = engine.store(name)
    records = list(backend.store_records(store))
    rng = random.Random(77)
    # Upsert recycled records (fresh ids), overwrite one id, delete a few.
    for index in range(8):
        upsert(engine, name, records[rng.randrange(len(records))])
    upsert(engine, name, records[0], obj_id=1)
    for obj_id in (2, 5, len(records) + 2):
        delete(engine, name, obj_id)

    delta = engine.delta(name)
    live_ids, live_records = delta.live_records(backend.store_records(store))
    rebuilt = fresh_engine({}, [])
    rebuilt.add_dataset(name, backend.make_dataset(store, live_records))

    for payload in payloads[name]:
        for algorithm in ("ring", "linear"):
            mutated = engine.search(
                Query(backend=name, payload=payload, tau=TAUS[name], algorithm=algorithm)
            )
            fresh = rebuilt.search(
                Query(backend=name, payload=payload, tau=TAUS[name], algorithm=algorithm)
            )
            expected = sorted(live_ids[position] for position in fresh.ids)
            assert mutated.ids == expected, (name, algorithm)
        # And ring agrees with the scan on the mutated index (delta scan
        # included) at threshold ...
        ring = engine.search(Query(backend=name, payload=payload, tau=TAUS[name]))
        reference = engine.search(
            Query(backend=name, payload=payload, tau=TAUS[name], algorithm="linear")
        )
        assert ring.ids == reference.ids
    # ... and for top-k (escalation rungs walk the mutated ladder).
    for payload in topk_payloads(name, payloads):
        ring_topk = engine.search(
            Query(backend=name, payload=payload, k=TOPK[name], tau=TAUS[name])
        )
        reference_topk = engine.search(
            Query(
                backend=name,
                payload=payload,
                k=TOPK[name],
                tau=TAUS[name],
                algorithm="linear",
            )
        )
        assert ring_topk.ids == reference_topk.ids
        assert ring_topk.scores == reference_topk.scores


def test_hamming_wide_codes_after_mutation_and_topk():
    """The uint64 code path (parts wider than 32 bits), served: every
    algorithm agrees with the scan after upserts and deletes, at threshold
    and for top-k, as the 16-bit rows above do."""
    workload = clustered_binary_workload(150, 100, 5, seed=35)
    dataset = BinaryVectorDataset(workload.vectors, num_parts=3)  # widths 34, 33, 33
    assert dataset.part_codes.dtype == np.uint64
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("hamming", dataset)
    rng = random.Random(78)
    for _ in range(6):
        upsert(engine, "hamming", workload.vectors[rng.randrange(150)])
    upsert(engine, "hamming", workload.vectors[0], obj_id=1)
    for obj_id in (2, 5, 152):
        delete(engine, "hamming", obj_id)
    for compacted in (False, True):
        if compacted:
            engine.compact("hamming")
        for payload in workload.queries:
            for tau in (0, 9, 22, 100):
                expected = engine.search(
                    Query(backend="hamming", payload=payload, tau=tau, algorithm="linear")
                )
                for algorithm, chain_length in (("ring", None), ("ring", 2), ("baseline", None)):
                    got = engine.search(
                        Query(
                            backend="hamming",
                            payload=payload,
                            tau=tau,
                            algorithm=algorithm,
                            chain_length=chain_length,
                        )
                    )
                    assert got.ids == expected.ids, (compacted, tau, algorithm, chain_length)
                    assert got.num_generated >= got.num_candidates >= len(got.ids)
            ring_topk = engine.search(Query(backend="hamming", payload=payload, k=5, tau=22))
            reference_topk = engine.search(
                Query(backend="hamming", payload=payload, k=5, tau=22, algorithm="linear")
            )
            assert ring_topk.ids == reference_topk.ids
            assert ring_topk.scores == reference_topk.scores


# ---------------------------------------------------------------------------
# Pipeline stats: the funnel counters surface per backend
# ---------------------------------------------------------------------------


def test_engine_stats_report_filter_funnel(datasets, payloads):
    names = ["sets", "strings", "hamming"]
    engine = fresh_engine(datasets, names)
    for name in names:
        for payload in payloads[name]:
            response = engine.search(Query(backend=name, payload=payload, tau=TAUS[name]))
            # Every ring searcher reports what entered its filter.
            assert response.num_generated is not None
        snapshot = engine.stats.snapshot()["per_backend"][name]
        assert snapshot["avg_generated_candidates"] >= snapshot["avg_candidates"]
        assert snapshot["avg_candidates"] >= snapshot["avg_results"]
        assert snapshot["avg_candidate_time_ms"] >= 0.0
        assert snapshot["avg_verify_time_ms"] >= 0.0
