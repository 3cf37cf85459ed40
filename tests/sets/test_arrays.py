"""The sets store and its ring index, built on arrays, against a scalar reference.

The reference is written here from the definitions: document frequencies
over each record's distinct tokens, ranks by (frequency, token), every
record encoded as its sorted distinct ranks, and per record the pkwise
prefix of :func:`repro.sets.prefix.pkwise_prefix_length`, posted token by
token.  The arrays must equal it exactly, dtype included.
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.tokens import dblp_like
from repro.engine import get_backend
from repro.sets import dataset as dataset_module, ring as ring_module
from repro.sets.dataset import SetDataset
from repro.sets.prefix import class_counts, pkwise_prefix_length
from repro.sets.ring import RingSetSearcher
from repro.sets.similarity import JaccardPredicate, OverlapPredicate
from repro.sets.tokens import TokenRecords, _dense_ids

INDEX_ARRAYS = (
    "_post_keys",
    "_post_offsets",
    "_post_objs",
    "_always",
    "_prefix_lengths",
    "_last_prefix",
)


def reference_encoding(records: list[list[int]]) -> tuple[dict[int, int], list[list[int]]]:
    frequency: Counter = Counter()
    for record in records:
        frequency.update(set(record))
    ordered = sorted(frequency, key=lambda token: (frequency[token], token))
    rank = {token: position for position, token in enumerate(ordered)}
    return rank, [sorted({rank[token] for token in record}) for record in records]


def reference_index(encoded: list[list[int]], num_classes: int, predicate) -> dict:
    postings: dict[int, list[int]] = defaultdict(list)
    always, prefix_lengths, last_prefix = [], [], []
    for obj_id, record in enumerate(encoded):
        size = len(record)
        required = predicate.index_required_overlap(size)
        prefix_length = 0
        if not record:
            always.append(obj_id)
        elif required <= size:
            classes = [rank % num_classes + 1 for rank in record]
            counts = class_counts(classes, size, num_classes)
            budget = sum(max(0, counts[k] - k + 1) for k in range(1, num_classes + 1))
            if budget < size - required + 1:
                always.append(obj_id)
                prefix_length = size
            else:
                prefix_length = pkwise_prefix_length(classes, num_classes, required)
                for token in record[:prefix_length]:
                    postings[token].append(obj_id)
        prefix_lengths.append(prefix_length)
        last_prefix.append(record[prefix_length - 1] if prefix_length else -1)
    keys = sorted(postings)
    return {
        "_post_keys": keys,
        "_post_offsets": np.cumsum([0] + [len(postings[key]) for key in keys]),
        "_post_objs": [obj_id for key in keys for obj_id in postings[key]],
        "_always": always,
        "_prefix_lengths": prefix_lengths,
        "_last_prefix": last_prefix,
    }


def assert_int64_equal(actual: np.ndarray, expected) -> None:
    assert actual.dtype == np.int64
    np.testing.assert_array_equal(actual, np.asarray(expected, dtype=np.int64).reshape(-1))


# Small tokens (duplicates within and across records, negatives), tokens that
# need int32 or int64 storage and are too widely spread for the presence
# table (the np.unique path), and the int64 extremes.
TOKENS = st.one_of(
    st.integers(-20, 40),
    st.integers(2**20, 2**20 + 6),
    st.integers(2**40, 2**40 + 6),
    st.sampled_from([-(2**63), 2**63 - 1]),
)
RECORDS = st.lists(st.lists(TOKENS, max_size=12), min_size=1, max_size=30)
PREDICATES = st.one_of(
    st.builds(JaccardPredicate, st.sampled_from([0.2, 0.4, 0.5, 0.8, 1.0])),
    st.builds(OverlapPredicate, st.integers(1, 5)),
)


@settings(max_examples=150, deadline=None)
@given(
    records=RECORDS,
    num_classes=st.integers(1, 5),
    predicate=PREDICATES,
    chunk=st.sampled_from([1, 3, 4096]),
)
def test_columns_and_index_equal_the_scalar_reference(records, num_classes, predicate, chunk):
    dataset = SetDataset(records, num_classes=num_classes)
    rank, encoded = reference_encoding(records)
    assert {token: dataset.order.rank(token) for token in rank} == rank
    assert dataset.order.universe_size == len(rank)
    columns = dataset.columns()
    assert_int64_equal(columns.tokens, [token for record in encoded for token in record])
    assert_int64_equal(columns.offsets, np.cumsum([0] + [len(record) for record in encoded]))
    assert_int64_equal(columns.sizes, [len(record) for record in encoded])
    assert [dataset.record(obj_id) for obj_id in range(len(dataset))] == encoded
    assert [dataset.encode_query(record) for record in records] == encoded
    with mock.patch.object(dataset_module, "_LIST_CHUNK", chunk):
        assert list(columns.iter_lists()) == encoded

    with mock.patch.object(ring_module, "_CHUNK", chunk):
        searcher = RingSetSearcher(dataset, predicate)
    expected = reference_index(encoded, num_classes, predicate)
    for name in INDEX_ARRAYS:
        assert_int64_equal(getattr(searcher, name), expected[name])

    backend = get_backend("sets")
    with tempfile.TemporaryDirectory() as directory:
        backend.save_store(dataset, directory)
        loaded = backend.load_store(directory)
    assert list(loaded.raw_records) == records
    assert loaded.num_classes == num_classes
    np.testing.assert_array_equal(loaded.columns().tokens, columns.tokens)
    np.testing.assert_array_equal(loaded.columns().offsets, columns.offsets)


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(TOKENS, max_size=40))
def test_dense_ids_equal_np_unique_on_both_paths(tokens):
    array = np.asarray(tokens, dtype=np.int64)
    universe, inverse = _dense_ids(array)
    expected_universe, expected_inverse = np.unique(array, return_inverse=True)
    np.testing.assert_array_equal(universe, expected_universe)
    np.testing.assert_array_equal(inverse, expected_inverse)


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, lo=st.integers(0, 30), hi=st.integers(0, 30))
def test_token_records_index_slice_and_iterate_like_lists(records, lo, hi):
    raw = TokenRecords.of(records)
    assert len(raw) == len(records)
    assert list(raw) == records
    assert [raw[-1 - position] for position in range(len(records))] == records[::-1]
    assert list(raw[lo:hi]) == records[lo:hi]
    with pytest.raises(IndexError):
        raw[len(records)]


@pytest.mark.parametrize(
    "records, match",
    [
        ([[1, 2**63]], "must lie in"),
        ([[1], [-(2**63) - 1]], "must lie in"),
        ([[1, 2.5]], "integers, got float"),
        ([[1, True]], "integers, got bool"),
        ([[1, "2"]], "integers, got str"),
        ([[1], 7], "sequence of integer tokens"),
        ([np.array([2**64 - 1], dtype=np.uint64)], "must lie in"),
    ],
)
def test_dataset_refuses_tokens_that_are_not_int64(records, match):
    with pytest.raises(ValueError, match=match):
        SetDataset(records)


def test_numpy_integer_tokens_are_accepted():
    records = [
        np.array([3, 1, 2], dtype=np.uint8),
        [np.int64(5), 1],
        np.array([2**63 - 1], dtype=np.uint64),
    ]
    dataset = SetDataset(records, num_classes=2)
    assert list(dataset.raw_records) == [[3, 1, 2], [5, 1], [2**63 - 1]]
    assert dataset.encode_query(np.array([5, 1], dtype=np.int32)) == dataset.record(1)


def test_store_and_index_memory_at_40k_records():
    """The sets store plus its ring index at tau 0.8, 40 000 ``dblp_like``
    records: peak traced memory while building, and what stays held."""
    records = dblp_like(num_records=40000, num_queries=1, seed=2018).records
    gc.collect()
    tracemalloc.start()
    try:
        dataset = SetDataset(records, num_classes=4)
        searcher = RingSetSearcher(dataset, JaccardPredicate(0.8))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert searcher.dataset is dataset
    assert peak <= 30e6, f"build peak {peak / 1e6:.1f} MB"
    assert held <= 12e6, f"held after the build {held / 1e6:.1f} MB"
