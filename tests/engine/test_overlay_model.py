"""The mutation overlay against a dict model.

:class:`DeltaStore` keeps arrays (ascending ``int64`` ids, a dead mask over
main positions) plus a records dict; the model keeps what a user sees -- a
dict from live id to record and the next fresh id.  Random batches of new
upserts, overwrites, deletes of live, dead and unknown ids, compactions and
JSON round trips must leave both agreeing on every step.
"""

from __future__ import annotations

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Query, SearchEngine, get_backend
from repro.engine.mutation import DeltaStore, delta_from_json, delta_to_json
from repro.strings import StringDataset

BACKEND = get_backend("strings")
SUMMARY_KEYS = {"num_main", "num_tombstones", "delta_records", "num_live", "next_id", "mutated"}

records = st.text(alphabet="abc", min_size=1, max_size=4)
# Explicit ids in 0..12 over a main store of at most 6 records reach live,
# dead and never-assigned ids alike; an upsert without an id appends.
ids = st.integers(0, 12)
ops = st.one_of(
    st.fixed_dictionaries({"op": st.just("upsert"), "record": records, "id": st.none() | ids}),
    st.fixed_dictionaries({"op": st.just("delete"), "id": ids}),
)
steps = st.one_of(
    st.tuples(st.just("batch"), st.lists(ops, min_size=1, max_size=5)),
    st.just(("compact",)),
    st.just(("roundtrip",)),
)


class Model:
    """What the overlay must mean: live records by id, plus id bookkeeping."""

    def __init__(self, main: list[str]) -> None:
        self.main = list(main)  # the main store's records, by position
        self.main_ids = list(range(len(main)))  # their external ids
        self.live = dict(enumerate(main))
        self.in_main = set(self.live)  # live ids still served by their main copy
        self.next_id = len(main)

    def apply(self, ops: list[dict]) -> list[dict]:
        results = []
        for op in ops:
            obj_id = self.next_id if op["id"] is None else op["id"]
            self.in_main.discard(obj_id)
            if op["op"] == "delete":
                deleted = self.live.pop(obj_id, None) is not None
                results.append({"op": "delete", "id": obj_id, "deleted": deleted})
                continue
            self.live[obj_id] = op["record"]
            self.next_id = max(self.next_id, obj_id + 1)
            results.append({"op": "upsert", "id": obj_id})
        return results

    def compact(self) -> None:
        self.main_ids = sorted(self.live)
        self.main = [self.live[obj_id] for obj_id in self.main_ids]
        self.in_main = set(self.live)


def roundtrip(delta: DeltaStore) -> DeltaStore:
    return delta_from_json(BACKEND, json.loads(json.dumps(delta_to_json(BACKEND, delta))))


def assert_agrees(delta: DeltaStore, model: Model) -> None:
    ids, rows = delta.live_records(model.main)
    assert ids == sorted(model.live)
    assert rows == [model.live[obj_id] for obj_id in ids]
    summary = delta.summary()
    assert set(summary) == SUMMARY_KEYS
    assert summary["num_live"] == delta.num_live == len(model.live)
    assert summary["next_id"] == model.next_id
    assert summary["num_main"] == len(model.main)
    assert summary["num_tombstones"] == len(model.main) - len(model.in_main)
    assert summary["delta_records"] == len(model.live) - len(model.in_main)
    assert summary["mutated"] == (
        summary["num_tombstones"] > 0
        or summary["delta_records"] > 0
        or model.main_ids != list(range(len(model.main)))
        or model.next_id > len(model.main)
    )
    assert delta.live_ids(range(len(model.main))) == sorted(model.in_main)
    live = sorted(model.live)
    positions, slots = delta.split(live)
    assert [live[slot] for slot in slots] == sorted(set(model.live) - model.in_main)
    assert [model.main_ids[position] for position in positions] == sorted(model.in_main)


@settings(max_examples=150, deadline=None)
@given(main=st.lists(records, min_size=1, max_size=6), script=st.lists(steps, max_size=12))
def test_overlay_matches_a_dict_model(main, script):
    delta, model = DeltaStore.fresh(len(main)), Model(main)
    assert_agrees(delta, model)
    for step in script:
        if step[0] == "batch":
            delta, results = delta.apply(step[1])
            assert results == model.apply(step[1])
        elif step[0] == "compact":
            live_ids, rows = delta.live_records(model.main)
            delta = delta.compacted(live_ids)
            model.compact()
            assert rows == model.main
        else:
            delta = roundtrip(delta)
        assert_agrees(delta, model)


def test_a_deleted_append_is_not_reused_after_save_and_reload(tmp_path):
    engine = SearchEngine()
    engine.add_dataset("strings", StringDataset(["ant", "bee", "cat"], kappa=2))
    appended = engine.mutate("strings", [{"op": "upsert", "record": "dog"}])["results"][0]["id"]
    assert appended == 3
    assert engine.mutate("strings", [{"op": "delete", "id": 3}])["results"][0]["deleted"]
    assert engine.delta("strings").mutated  # only next_id remembers the append
    engine.save_index("strings", str(tmp_path / "idx"))
    reloaded = SearchEngine()
    reloaded.load_index(str(tmp_path / "idx"))
    again = reloaded.mutate("strings", [{"op": "upsert", "record": "eel"}])["results"][0]["id"]
    assert again == 4


#: ``mutations.json`` as the tuple-and-dict overlay wrote it: main records
#: ant, cat, dog, fox, gnu under ids 0, 2, 3, 5, 6 (a compaction dropped 1
#: and 4), then id 3 overwritten with "hen", 5 deleted, "ibis" appended as
#: 7 and "jay" appended as 8 and deleted.
TUPLE_OVERLAY_MUTATIONS = {
    "ids": [0, 2, 3, 5, 6],
    "num_main": 5,
    "tombstones": [3, 5],
    "next_id": 9,
    "mutated": True,
    "records": [[3, "hen"], [7, "ibis"]],
}
TUPLE_OVERLAY_SUMMARY = {
    "num_main": 5,
    "num_tombstones": 2,
    "delta_records": 2,
    "num_live": 5,
    "next_id": 9,
    "mutated": True,
}


def test_a_mutations_file_of_the_tuple_overlay_loads_unchanged(tmp_path):
    directory = str(tmp_path / "idx")
    builder = SearchEngine()
    builder.add_dataset("strings", StringDataset(["ant", "cat", "dog", "fox", "gnu"], kappa=2))
    builder.save_index("strings", directory)
    with open(os.path.join(directory, "mutations.json"), "w", encoding="utf-8") as handle:
        json.dump(TUPLE_OVERLAY_MUTATIONS, handle)
    engine = SearchEngine()
    engine.load_index(directory)
    info = engine.mutation_info("strings")
    del info["backend"]
    assert info == TUPLE_OVERLAY_SUMMARY
    delta = engine.delta("strings")
    assert delta.live_records(["ant", "cat", "dog", "fox", "gnu"]) == (
        [0, 2, 3, 6, 7],
        ["ant", "cat", "hen", "gnu", "ibis"],
    )
    hits = engine.search(Query(backend="strings", payload="fox", tau=1)).ids
    assert 5 not in hits and hits == sorted(hits)
    assert engine.search(Query(backend="strings", payload="hen", tau=0)).ids == [3]
    assert engine.mutate("strings", [{"op": "upsert", "record": "kea"}])["results"][0]["id"] == 9
    # Written back, the overlay keeps the same keys and values.
    engine.save_index("strings", directory)
    with open(os.path.join(directory, "mutations.json"), encoding="utf-8") as handle:
        saved = json.load(handle)
    assert set(saved) == set(TUPLE_OVERLAY_MUTATIONS)
    assert saved["ids"] == TUPLE_OVERLAY_MUTATIONS["ids"] and saved["next_id"] == 10
