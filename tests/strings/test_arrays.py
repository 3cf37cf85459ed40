"""The strings store and its prefix/pivotal index, built on arrays, against a
per-record reference.

The reference is written here from the definitions: gram frequencies over
every positional gram, ranks by (frequency, gram), and per record the
prefix (the first ``kappa * tau + 1`` grams by (rank, position)), the
greedy position-disjoint pivotal selection of its ``tau + 1`` rarest grams,
and the postings, filled record by record.  The arrays must equal it
exactly, dtype included; Pivotal's ``(cand1, cand2)`` must equal the
per-record Cand-1 and alignment filters run over the reference index.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.datasets.text import imdb_like
from repro.engine import get_backend
from repro.strings import pivotal as pivotal_module
from repro.strings.dataset import StringDataset
from repro.strings.pivotal import PivotalSearcher, window_edit_distance
from repro.strings.qgrams import character_mask
from repro.strings.ring import RingStringSearcher

INDEX_ARRAYS = (
    "_pre_keys",
    "_pre_offsets",
    "_pre_objs",
    "_pre_positions",
    "_piv_keys",
    "_piv_offsets",
    "_piv_objs",
    "_piv_positions",
    "_piv_boxes",
    "_last_rank",
    "_always",
    "_piv_pos_mat",
)


def reference_ranks(records: list[str], kappa: int) -> dict[str, int]:
    frequency: Counter = Counter()
    for record in records:
        frequency.update(record[i : i + kappa] for i in range(len(record) - kappa + 1))
    ordered = sorted(frequency, key=lambda gram: (frequency[gram], gram))
    return {gram: rank for rank, gram in enumerate(ordered)}


def reference_pivotal(grams: list[tuple[int, int]], kappa: int, tau: int):
    """``(rank, position)`` prefix grams -> the ``tau + 1`` pivotal ones in
    position order, or ``None``."""
    chosen: list[tuple[int, int]] = []
    for rank, position in sorted(grams, key=lambda gram: gram[1]):
        if all(abs(position - other) >= kappa for _, other in chosen):
            chosen.append((rank, position))
    if len(chosen) < tau + 1:
        return None
    chosen.sort(key=lambda gram: gram[0])
    return sorted(chosen[: tau + 1], key=lambda gram: gram[1])


def reference_index(records: list[str], kappa: int, tau: int, rank: dict[str, int]) -> dict:
    prefix_index: dict[int, list[tuple[int, int]]] = defaultdict(list)
    pivotal_index: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    pivotal_rows, last_rank, always = [], [], []
    for obj_id, record in enumerate(records):
        grams = [(rank[record[i : i + kappa]], i) for i in range(len(record) - kappa + 1)]
        prefix = sorted(grams)[: kappa * tau + 1]
        last_rank.append(max((gram_rank for gram_rank, _ in prefix), default=-1))
        pivotal = reference_pivotal(prefix, kappa, tau) if prefix else None
        pivotal_rows.append(pivotal)
        if pivotal is None:
            always.append(obj_id)
            continue
        for gram_rank, position in prefix:
            prefix_index[gram_rank].append((obj_id, position))
        for box, (gram_rank, position) in enumerate(pivotal):
            pivotal_index[gram_rank].append((obj_id, position, box))

    def csr(index: dict, names: tuple[str, ...], prefix: str) -> dict:
        keys = sorted(index)
        columns = {
            f"{prefix}_keys": keys,
            f"{prefix}_offsets": np.cumsum([0] + [len(index[key]) for key in keys]),
        }
        for field, name in enumerate(names):
            columns[f"{prefix}_{name}"] = [entry[field] for key in keys for entry in index[key]]
        return columns

    positions = np.zeros((len(records), tau + 1), dtype=np.int64)
    masks = np.zeros((len(records), tau + 1), dtype=np.uint64)
    for obj_id, pivotal in enumerate(pivotal_rows):
        for box, (_, position) in enumerate(pivotal or ()):
            positions[obj_id, box] = position
            masks[obj_id, box] = character_mask(records[obj_id][position : position + kappa])
    return {
        **csr(prefix_index, ("objs", "positions"), "_pre"),
        **csr(pivotal_index, ("objs", "positions", "boxes"), "_piv"),
        "_last_rank": last_rank,
        "_always": always,
        "_piv_pos_mat": positions,
        "_piv_mask_mat": masks,
        "prefix_index": prefix_index,
        "pivotal_index": pivotal_index,
        "pivotal_rows": pivotal_rows,
    }


def reference_candidates(
    records: list[str], kappa: int, tau: int, index: dict, searcher: PivotalSearcher, query: str
) -> tuple[list[int], list[int]]:
    """Pivotal's Cand-1 and Cand-2, posting by posting over the reference index."""
    lengths_ok = {
        obj_id for obj_id, record in enumerate(records) if abs(len(record) - len(query)) <= tau
    }
    plan = searcher.query_plan(query)
    if plan.fallback:
        return sorted(lengths_ok), sorted(lengths_ok)
    unconditional = sorted(set(index["_always"]) & lengths_ok)
    rank = searcher.dataset.extractor.rank
    sides: dict[int, str] = {}
    for gram in plan.prefix:
        for obj_id, position, _box in index["pivotal_index"].get(rank(gram.gram), ()):
            if (
                abs(position - gram.position) <= tau
                and obj_id in lengths_ok
                and index["_last_rank"][obj_id] <= plan.last_prefix_rank
            ):
                sides[obj_id] = "data"
    for gram in plan.pivotal:
        for obj_id, position in index["prefix_index"].get(rank(gram.gram), ()):
            if (
                abs(position - gram.position) <= tau
                and obj_id in lengths_ok
                and index["_last_rank"][obj_id] > plan.last_prefix_rank
            ):
                sides.setdefault(obj_id, "query")
    cand2 = list(unconditional)
    for obj_id, side in sides.items():
        if side == "data":
            record = records[obj_id]
            boxes = [(record[p : p + kappa], p) for _, p in index["pivotal_rows"][obj_id]]
            text = query
        else:
            boxes = [(gram.gram, gram.position) for gram in plan.pivotal]
            text = records[obj_id]
        if sum(window_edit_distance(gram, text, position, tau) for gram, position in boxes) <= tau:
            cand2.append(obj_id)
    return sorted(unconditional + list(sides)), sorted(cand2)


def assert_arrays_equal(actual: np.ndarray, expected, dtype=np.int64) -> None:
    assert actual.dtype == dtype
    np.testing.assert_array_equal(actual, np.asarray(expected, dtype=dtype).reshape(actual.shape))


# A small alphabet (many repeated grams), an astral character and the two
# lone-surrogate ends, which ``utf-32-le`` with ``surrogatepass`` keeps as
# single code points.
CHARS = st.sampled_from(["a", "b", "c", "\U0001d538", "\ud800", "\udfff"])
TEXTS = st.text(alphabet=CHARS, max_size=14)


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(TEXTS, min_size=1, max_size=25),
    queries=st.lists(TEXTS, max_size=4),
    kappa=st.integers(1, 5),
    tau=st.integers(0, 4),
    chunk=st.sampled_from([1, 3, 4096]),
)
def test_store_and_index_equal_the_per_record_reference(records, queries, kappa, tau, chunk):
    dataset = StringDataset(records, kappa=kappa)
    rank = reference_ranks(records, kappa)
    assert dataset.extractor._rank == rank
    columns = dataset.columns()
    assert_arrays_equal(
        columns.gram_ranks,
        [rank[r[i : i + kappa]] for r in records for i in range(len(r) - kappa + 1)],
        np.int32,
    )
    assert_arrays_equal(columns.lengths, [len(record) for record in records])
    assert_arrays_equal(columns.masks, [character_mask(record) for record in records], np.uint64)
    assert_arrays_equal(
        columns.codes, [ord(char) for record in records for char in record], np.uint32
    )

    with mock.patch.object(pivotal_module, "_CHUNK", chunk):
        ring = RingStringSearcher(dataset, tau)
        pivotal = PivotalSearcher(dataset, tau)
    expected = reference_index(records, kappa, tau, rank)
    for name in INDEX_ARRAYS:
        assert_arrays_equal(getattr(ring, name), expected[name])
        assert_arrays_equal(getattr(pivotal, name), expected[name])
    assert_arrays_equal(ring._piv_mask_mat, expected["_piv_mask_mat"], np.uint64)
    for query in queries + records[:3]:
        assert pivotal.candidates(query) == reference_candidates(
            records, kappa, tau, expected, pivotal, query
        )

    backend = get_backend("strings")
    with tempfile.TemporaryDirectory() as directory:
        backend.save_store(dataset, directory)
        loaded = backend.load_store(directory)
    assert loaded.records == records and loaded.kappa == kappa
    assert loaded.extractor._rank == rank
    for name in ("codes", "offsets", "lengths", "masks", "gram_ranks"):
        expected_column = getattr(columns, name)
        assert_arrays_equal(getattr(loaded.columns(), name), expected_column, expected_column.dtype)


RANK_RECORDS = [
    "john smith", "jane smyth", "joan smith", "john smithe", "jon smith", "mary jones",
    "marie jonas", "jim smith", "john smit", "joanna smith", "jo smith", "john smithson",
]

# Ranks of a query's grams and its ring and Pivotal candidates at kappa 2,
# tau 2 (packed keys) and kappa 4, tau 1 (digests); argv: records and query
# as JSON.
_RANKS_SCRIPT = """
import json, sys
from repro.strings.dataset import StringDataset
from repro.strings.pivotal import PivotalSearcher
from repro.strings.ring import RingStringSearcher

records, query = json.loads(sys.argv[1])
out = []
for kappa, tau in ((2, 2), (4, 1)):
    dataset = StringDataset(records, kappa=kappa)
    grams = [query[i : i + kappa] for i in range(len(query) - kappa + 1)]
    out.append([
        [dataset.extractor.rank(gram) for gram in grams],
        RingStringSearcher(dataset, tau).candidates(query),
        PivotalSearcher(dataset, tau).candidates(query),
    ])
print(json.dumps(out))
"""


def test_unseen_gram_ranks_do_not_depend_on_the_hash_seed():
    """Unseen query grams rank by their code points, so two processes with
    different ``PYTHONHASHSEED`` order them -- and pick prefixes, pivotal
    grams and candidates -- alike."""
    query = "johnxsmizh"  # 4 unseen 2-grams, 6 unseen 4-grams
    for kappa in (2, 4):
        known = StringDataset(RANK_RECORDS, kappa=kappa).extractor._rank
        grams = {query[i : i + kappa] for i in range(len(query) - kappa + 1)}
        assert len(grams - set(known)) >= 4
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", _RANKS_SCRIPT, json.dumps([RANK_RECORDS, query])],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    (_, ring_2, (cand1_2, _)), (_, _, (cand1_4, _)) = outputs[0]
    assert ring_2 and cand1_2 and cand1_4  # the candidates are not vacuous


def test_store_and_index_memory_at_20k_records():
    """The strings store plus its ring index at kappa 2, tau 2, 20 000
    ``imdb_like`` records: peak traced memory while building, and what
    stays held (the records themselves included)."""
    records = list(imdb_like(num_records=20000, num_queries=1, seed=2018).records)
    gc.collect()
    tracemalloc.start()
    try:
        dataset = StringDataset(records, kappa=2)
        searcher = RingStringSearcher(dataset, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert searcher.dataset is dataset
    assert peak <= 20e6, f"build peak {peak / 1e6:.1f} MB"
    assert held <= 10e6, f"held after the build {held / 1e6:.1f} MB"
