"""A strings compaction keeps the gram order and splices the index.

Rounds of random upsert/delete batches, each folded by ``compact()``.  The
batches bring grams and code points the store has never seen.  After every
fold:

* the store's rank table keeps every known gram's rank and gives the new
  grams the next dense ``int32`` ranks;
* the index the first search after the fold reads equals the per-record
  reference of ``test_arrays`` under that kept, extended table, and every
  untouched record's row in it is what it was before the fold;
* that search builds no index: the fold spliced it;
* ring and Pivotal answers equal a linear scan over a from-scratch rebuild
  of the live records.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import Query, SearchEngine
from repro.strings import pivotal as pivotal_module
from repro.strings.dataset import StringDataset
from tests.strings.test_arrays import INDEX_ARRAYS, assert_arrays_equal, reference_index

KAPPA = 2
TEXTS = st.text(alphabet="abcd", min_size=1, max_size=12)
# An op: (kind, which live id it names, record text); upserts may add the
# letters and the astral character the initial records never hold.
OPS = st.tuples(
    st.sampled_from(["append", "overwrite", "delete"]),
    st.integers(0, 1 << 16),
    st.text(alphabet="abcdxy\U0001d538", min_size=1, max_size=12),
)


def _ops(round_index: int, draws: list, model: dict) -> list[dict]:
    """One batch from the drawn ops, plus one record with a code point no
    earlier round used, so every fold meets unseen grams."""
    fresh = chr(0x100 + round_index)
    ops = [{"op": "upsert", "id": None, "record": "a" + fresh + "b" + fresh}]
    live = sorted(model)
    for kind, pick, text in draws:
        if kind == "append":
            ops.append({"op": "upsert", "id": None, "record": text})
        elif kind == "overwrite":
            ops.append({"op": "upsert", "id": live[pick % len(live)], "record": text})
        elif len(live) > 1:
            victim = live.pop(pick % len(live))
            ops.append({"op": "delete", "id": victim})
    return ops


def _rows(index, position: int) -> tuple:
    return (
        int(index.last_rank[position]),
        bool(np.isin(position, index.always)),
        index.piv_pos_mat[position].tolist(),
        index.piv_mask_mat[position].tolist(),
    )


@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(TEXTS, min_size=1, max_size=20),
    queries=st.lists(TEXTS, min_size=1, max_size=3),
    rounds=st.lists(st.lists(OPS, max_size=8), min_size=1, max_size=4),
    tau=st.integers(1, 3),
    algorithm=st.sampled_from(["ring", "baseline"]),
)
def test_fold_splices_the_index_a_build_under_the_kept_order_gives(
    records, queries, rounds, tau, algorithm
):
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("strings", StringDataset(records, kappa=KAPPA))
    model = dict(enumerate(records))
    builds = []
    build = pivotal_module._build_index

    def counted(*args):
        builds.append(args)
        return build(*args)

    with mock.patch.object(pivotal_module, "_build_index", counted):
        for round_index, draws in enumerate(rounds):
            # Searches on the store about to fold build the index it splices.
            for query in queries:
                engine.search(Query(backend="strings", payload=query, tau=tau, algorithm=algorithm))
            store = engine.store("strings")
            before = store.indexes.live()[tau]
            old_ids = engine.delta("strings").live_ids(range(len(store)))
            old_rank = dict(store.extractor._rank)

            ops = _ops(round_index, draws, model)
            outcome = engine.mutate("strings", ops)
            touched = set()
            for op, result in zip(ops, outcome["results"]):
                touched.add(result["id"])
                if op["op"] == "upsert":
                    model[result["id"]] = op["record"]
                else:
                    model.pop(result["id"], None)
            engine.compact("strings")

            store = engine.store("strings")
            extractor = store.extractor
            assert store.records == [model[obj_id] for obj_id in sorted(model)]
            assert store.columns().gram_ranks.dtype == np.int32
            assert {gram: extractor._rank[gram] for gram in old_rank} == old_rank
            assert sorted(extractor._rank.values()) == list(range(len(extractor._rank)))
            assert extractor._unknown_base == len(extractor._rank)

            built = len(builds)
            answers = [
                engine.search(Query(backend="strings", payload=query, tau=tau, algorithm=algorithm))
                for query in queries
            ]
            assert len(builds) == built, "the first search after the fold built an index"

            index = store.indexes.live()[tau]
            expected = reference_index(store.records, KAPPA, tau, extractor._rank)
            for name in INDEX_ARRAYS:
                assert_arrays_equal(getattr(index, name[1:]), expected[name])
            assert_arrays_equal(index.piv_mask_mat, expected["_piv_mask_mat"], np.uint64)
            new_ids = sorted(model)
            for position, obj_id in enumerate(old_ids):
                if obj_id in model and obj_id not in touched:
                    assert _rows(index, new_ids.index(obj_id)) == _rows(before, position)

            rebuilt = SearchEngine(cache_size=0)
            rebuilt.add_dataset("strings", StringDataset([model[i] for i in new_ids], kappa=KAPPA))
            for query, answer in zip(queries, answers):
                truth = rebuilt.search(
                    Query(backend="strings", payload=query, tau=tau, algorithm="linear")
                )
                assert answer.ids == [new_ids[position] for position in truth.ids]


def test_a_dataset_pickles_without_its_indexes():
    """The per-threshold indexes are a cache: a pickled copy of a dataset
    with a searcher on it comes back with the same columns and no index."""
    dataset = StringDataset(["abcab", "bcabc", "cabca"], kappa=KAPPA)
    searcher = pivotal_module.PivotalSearcher(dataset, 1)
    copy = pickle.loads(pickle.dumps(dataset))
    assert copy.records == dataset.records
    assert_arrays_equal(copy.columns().gram_ranks, dataset.columns().gram_ranks, np.int32)
    assert dataset.indexes.live() and not copy.indexes.live()
    assert pivotal_module.PivotalSearcher(copy, 1).search("abcab").results == searcher.search(
        "abcab"
    ).results


def test_a_fold_that_only_deletes_splices_the_index():
    """No record comes in: the spliced index is the old one minus the dead
    rows, equal to a build over the survivors, and answers stay exact."""
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("strings", StringDataset(["abcab", "bcabc", "cabca", "xyzab"], kappa=KAPPA))
    for algorithm in ("ring", "baseline"):
        engine.search(Query(backend="strings", payload="abcab", tau=1, algorithm=algorithm))
    engine.mutate("strings", [{"op": "delete", "id": 1}, {"op": "delete", "id": 3}])
    engine.compact("strings")
    for algorithm in ("ring", "baseline", "linear"):
        query = Query(backend="strings", payload="abcab", tau=1, algorithm=algorithm)
        assert engine.search(query).ids == [0]
    store = engine.store("strings")
    expected = reference_index(store.records, KAPPA, 1, store.extractor._rank)
    index = store.indexes.live()[1]
    for name in INDEX_ARRAYS:
        assert_arrays_equal(getattr(index, name[1:]), expected[name])
