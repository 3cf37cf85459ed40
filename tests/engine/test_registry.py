"""Registry registration/lookup across the four backends."""

from __future__ import annotations

import pytest

from repro.engine import (
    Backend,
    Query,
    SearchEngine,
    available_backends,
    get_backend,
    register_backend,
)
from repro.sets.similarity import jaccard, overlap


def test_all_four_domains_registered():
    assert available_backends() == ["graphs", "hamming", "sets", "strings"]


@pytest.mark.parametrize("name", ["hamming", "sets", "strings", "graphs"])
def test_lookup_returns_named_backend(name):
    backend = get_backend(name)
    assert isinstance(backend, Backend)
    assert backend.name == name
    assert {"ring", "baseline", "linear"} <= set(backend.algorithms)


def test_unknown_backend_raises_with_known_names():
    with pytest.raises(KeyError, match="hamming"):
        get_backend("vectors")


def test_duplicate_registration_rejected_unless_replaced():
    backend = get_backend("hamming")
    with pytest.raises(ValueError, match="already registered"):
        register_backend(backend)
    assert register_backend(backend, replace=True) is backend


def test_engine_tracks_attached_backends(datasets):
    engine = SearchEngine()
    assert engine.describe()["backends"] == {}
    engine.add_dataset("strings", datasets["strings"])
    assert list(engine.describe()["backends"]) == ["strings"]
    with pytest.raises(KeyError, match="no dataset attached"):
        engine.store("hamming")


def test_query_without_attached_dataset_fails(query_payloads):
    engine = SearchEngine()
    with pytest.raises(KeyError, match="no dataset attached"):
        engine.search(Query(backend="hamming", payload=query_payloads["hamming"][0], tau=4))


def test_unknown_algorithm_rejected(engine, query_payloads):
    query = Query(backend="hamming", payload=query_payloads["hamming"][0], tau=4, algorithm="faiss")
    with pytest.raises(ValueError, match="does not implement"):
        engine.search(query)


def test_query_validation():
    with pytest.raises(ValueError, match="tau"):
        Query(backend="hamming", payload=None)
    with pytest.raises(ValueError, match="k must be"):
        Query(backend="hamming", payload=None, k=0)


def test_raw_datasets_are_prepared(workloads):
    """Backends wrap raw inputs (arrays, lists of records) into stores."""
    engine = SearchEngine()
    engine.add_dataset("hamming", workloads["hamming"].vectors)
    engine.add_dataset("sets", workloads["sets"].records)
    engine.add_dataset("strings", workloads["strings"].records)
    engine.add_dataset("graphs", workloads["graphs"].graphs)
    described = engine.describe()["backends"]
    assert list(described) == ["graphs", "hamming", "sets", "strings"]
    for name, entry in described.items():
        assert entry["descriptor"] == engine.backend(name).describe(engine.store(name))
        assert entry["descriptor"]["num_objects"] > 0


# ---------------------------------------------------------------------------
# The adapter surface: one scoring spelling, checked at instantiation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["hamming", "sets", "strings", "graphs"])
def test_stored_and_raw_records_score_alike(name, engine, query_payloads, taus):
    """``distances`` over ids and ``record_distances`` over those ids' records
    are the same floats, and ``scan_records`` is ``score_matches`` over them."""
    backend, store = engine.backend(name), engine.store(name)
    ids = list(range(0, backend.store_size(store), 3))
    records = [backend.store_records(store)[i] for i in ids]
    thresholds = [taus[name], None] + ([2] if name == "sets" else [])  # overlap too
    payloads = query_payloads[name][:2]
    if name == "strings":
        # Past one Myers word (the banded-DP fallback), and an astral character.
        payloads = payloads + [payloads[0] * 12, payloads[1][:4] + "\U0001d538" + payloads[1][4:]]
        assert len(payloads[2]) > 64
    for payload in payloads:
        for tau in thresholds:
            if name == "graphs" and tau is None:
                continue  # uncapped exact GED
            scores = backend.distances(store, payload, ids, tau)
            assert all(type(score) is float for score in scores)
            raw = backend.record_distances(store, payload, records, tau)
            assert [score.hex() for score in raw] == [score.hex() for score in scores]
            if tau is not None:
                matches = backend.scan_records(store, payload, records, tau)
                assert matches == [backend.score_matches(score, tau) for score in scores]
            if name == "sets":
                # Both set kernels against plain set arithmetic on raw tokens.
                exact = [
                    -float(overlap(record, payload)) if tau == 2 else -jaccard(record, payload)
                    for record in records
                ]
                assert [score.hex() for score in scores] == [score.hex() for score in exact]
        if name in ("sets", "strings"):
            # The ladder's largest record size comes from the stored columns.
            largest = max(backend.store_sizes(store))
            assert list(backend.tau_ladder(store, payload, None)) == list(
                backend.tau_ladder(store, payload, None, max_size=largest)
            )
    # The stored sizes a mutated ladder reads are the raw records' sizes.
    every = backend.store_records(store)
    sizes = [backend.record_size(store, record) for record in every]
    assert list(backend.store_sizes(store)) == sizes
    assert backend.distances(store, query_payloads[name][0], [], taus[name]) == []
    assert backend.record_distances(store, query_payloads[name][0], [], taus[name]) == []


@pytest.mark.parametrize(
    "missing", ["distances", "record_distances", "store_records", "make_dataset", "shard_store"]
)
def test_an_incomplete_backend_fails_at_instantiation(missing):
    complete = type(get_backend("strings"))
    incomplete = type("Incomplete", (complete,), {missing: getattr(Backend, missing)})
    with pytest.raises(TypeError, match=missing):
        incomplete()
