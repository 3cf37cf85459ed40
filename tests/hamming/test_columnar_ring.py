"""Property test: the columnar Hamming pipeline against its two oracles.

* The candidate *set* equals the generic per-object
  :func:`repro.core.candidates.generate_candidates` (Corollary-2 skip and
  all), driven by ``PartitionIndex.probe_arrays`` and a Theorem-7
  ``ThresholdAllocation``.
* The results equal the linear scan.

The draws cover what the array kernels could get wrong: ``d`` not divisible
by ``m``, part widths from 1 to 40 bits (both code dtypes), duplicate
vectors, thresholds from "nothing is viable" to "everything is", every chain
length and both threshold allocations.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import generate_candidates
from repro.core.thresholds import ThresholdAllocation
from repro.hamming import (
    BinaryVectorDataset,
    GPHSearcher,
    LinearHammingSearcher,
    PartitionIndex,
    RingHammingSearcher,
    allocate_thresholds,
    even_thresholds,
)
from repro.hamming.bitvec import hamming_distance


@st.composite
def cases(draw):
    m = draw(st.integers(1, 6))
    width = draw(st.integers(1, 40))
    d = m * width + draw(st.integers(0, m - 1))  # leading parts one bit wider
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A few centres with bit-flip noise, so part distances are small often
    # enough for every threshold regime to have viable boxes.
    centres = rng.integers(0, 2, size=(draw(st.integers(1, 4)), d), dtype=np.uint8)
    noise = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    n = draw(st.integers(1, 40))
    vectors = centres[rng.integers(0, len(centres), size=n)]
    vectors = vectors ^ (rng.random((n, d)) < noise).astype(np.uint8)
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=8))
    vectors = np.concatenate([vectors, vectors[duplicates]])
    query = vectors[rng.integers(0, len(vectors))] ^ (
        rng.random(d) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    ).astype(np.uint8)
    tau = draw(st.one_of(st.sampled_from([0, max(m - 2, 0), m - 1, m, d]), st.integers(0, d)))
    chain_length = draw(st.integers(1, m))
    use_cost_model = draw(st.booleans())
    return vectors, m, query, tau, chain_length, use_cost_model


def oracle_candidates(dataset, index, query, thresholds, chain_length):
    """The generic two-step candidate generation of Section 7."""
    query_codes = dataset.query_codes(query)
    boundaries = dataset.partitioning.boundaries
    allocation = ThresholdAllocation(thresholds, integer_reduction=True)

    def probe_index(_query):
        for part, threshold in enumerate(thresholds):
            ids, _distances = index.probe_arrays(part, int(query_codes[part]), threshold)
            for obj_id in ids.tolist():
                yield obj_id, part

    def box_value(obj_id, part):
        start, end = boundaries[part]
        return hamming_distance(dataset.vectors[obj_id, start:end], query[start:end])

    return set(
        generate_candidates(query, probe_index, box_value, lambda _obj: allocation, chain_length)
    )


@given(cases())
@settings(max_examples=150, deadline=None)
def test_columnar_pipeline_matches_generic_oracle_and_linear_scan(case):
    vectors, m, query, tau, chain_length, use_cost_model = case
    dataset = BinaryVectorDataset(vectors, num_parts=m)
    assert dataset.part_codes.dtype == (
        np.uint32 if max(dataset.partitioning.widths) <= 32 else np.uint64
    )
    index = PartitionIndex(dataset)
    searcher = RingHammingSearcher(
        dataset, chain_length=chain_length, use_cost_model=use_cost_model, index=index
    )

    # The lazily extended histograms allocate exactly what the full ones do.
    if use_cost_model:
        thresholds = allocate_thresholds(index, dataset.query_codes(query), tau)
    else:
        thresholds = even_thresholds(tau, m)
    assert searcher.thresholds(query, tau) == thresholds

    expected = oracle_candidates(dataset, index, query, thresholds, chain_length)
    outcome = searcher.search(query, tau)
    assert outcome.candidates == sorted(expected)
    assert searcher.candidates(query, tau) == outcome.candidates
    assert outcome.results == LinearHammingSearcher(dataset).search(query, tau).results

    # The funnel: distinct first-step objects in, candidates out.
    gph = GPHSearcher(dataset, use_cost_model=use_cost_model, index=index)
    first_step = gph.candidates(query, tau)
    assert first_step == sorted(oracle_candidates(dataset, index, query, thresholds, 1))
    assert outcome.extra == {"generated": len(first_step), "verified": len(outcome.candidates)}
    if chain_length == 1:
        assert outcome.candidates == first_step


def test_shared_searcher_is_race_free_across_threads():
    """Scratch is per thread: concurrent queries on one searcher do not mix."""
    rng = np.random.default_rng(5)
    centres = rng.integers(0, 2, size=(6, 96), dtype=np.uint8)
    vectors = centres[rng.integers(0, 6, size=600)] ^ (rng.random((600, 96)) < 0.08).astype(
        np.uint8
    )
    dataset = BinaryVectorDataset(vectors, num_parts=6)
    searcher = RingHammingSearcher(dataset, chain_length=4)
    queries = vectors[rng.integers(0, 600, size=24)] ^ (rng.random((24, 96)) < 0.05).astype(
        np.uint8
    )
    expected = [searcher.search(query, 20).results for query in queries]
    assert any(expected)

    mismatches: list[int] = []
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        barrier.wait(timeout=30)
        for _ in range(6):
            for position in range(len(queries)):
                slot = (position + offset) % len(queries)
                if searcher.search(queries[slot], 20).results != expected[slot]:
                    mismatches.append(slot)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
