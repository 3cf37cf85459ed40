"""The one mutation-op codec: ``op_to_wire`` / ``op_from_wire``.

The WAL, replay and ``POST /mutate`` share it; ``encode_mutate`` and
``decode_mutate`` add only the envelope.  Checked over all four backends:
envelope round trips, WAL-op round trips, and a malformed op at any position
refused as a :class:`WireFormatError` naming ``ops[i]``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import WireFormatError, get_backend
from repro.engine.mutation import MAX_ID, check_ops
from repro.engine.wal import op_from_wire, op_to_wire
from repro.engine.wire import decode_mutate, encode_mutate
from repro.graphs import Graph


@st.composite
def _graphs(draw) -> Graph:
    labels = draw(st.lists(st.sampled_from("CNOS"), min_size=1, max_size=5))
    pairs = [(u, v) for u in range(len(labels)) for v in range(u + 1, len(labels))]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(
        dict(enumerate(labels)), [(u, v, draw(st.sampled_from((1, 2)))) for u, v in edges]
    )


RECORDS = {
    "hamming": st.lists(st.integers(0, 1), min_size=1, max_size=16).map(
        lambda bits: np.array(bits, dtype=np.uint8)
    ),
    "sets": st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8),
    "strings": st.text(min_size=1, max_size=12),
    "graphs": _graphs(),
}
#: A wire record each backend decodes, and one its decoder refuses.
DECODABLE = {
    "hamming": [0, 1, 1],
    "sets": [1, 2],
    "strings": "ant",
    "graphs": {"vertices": [[0, "C"]], "edges": []},
}
UNDECODABLE = {"hamming": "0101", "sets": "1 2 3", "strings": 42, "graphs": [1, 2]}
IDS = st.integers(0, MAX_ID)


def _ops(backend: str, ids: st.SearchStrategy) -> st.SearchStrategy:
    upsert = st.builds(
        lambda record, obj_id: {"op": "upsert", "record": record, "id": obj_id},
        RECORDS[backend],
        ids,
    )
    delete = st.builds(lambda obj_id: {"op": "delete", "id": obj_id}, IDS)
    return st.lists(st.one_of(upsert, delete), min_size=1, max_size=6)


def _canonical(backend: str, ops: list[dict]) -> list[dict]:
    """Ops with every record in its wire form, so arrays compare by value."""
    codec = get_backend(backend)
    return [
        dict(op, record=codec.record_to_wire(op["record"])) if op["op"] == "upsert" else op
        for op in ops
    ]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("backend", sorted(RECORDS))
def test_mutate_envelope_round_trips(backend, data):
    ops = data.draw(_ops(backend, st.none() | IDS))
    durability = data.draw(st.sampled_from([None, "memory", "wal"]))
    name, decoded, level = decode_mutate(encode_mutate(backend, ops, durability))
    assert (name, level) == (backend, durability)
    assert _canonical(backend, decoded) == _canonical(backend, check_ops(ops))
    for op in decoded:
        assert op["id"] is None or type(op["id"]) is int


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("backend", sorted(RECORDS))
def test_wal_ops_round_trip(backend, data):
    codec = get_backend(backend)
    for op in data.draw(_ops(backend, IDS)):
        wire = op_to_wire(codec, op)
        assert list(wire) == (["op", "id", "record"] if op["op"] == "upsert" else ["op", "id"])
        assert _canonical(backend, [op_from_wire(codec, wire)]) == _canonical(backend, [op])


def test_an_append_carries_no_id():
    assert op_to_wire(get_backend("sets"), {"op": "upsert", "record": [3], "id": None}) == {
        "op": "upsert",
        "record": [3],
    }


def test_an_unencodable_record_is_a_value_error():
    with pytest.raises(ValueError, match="unencodable 'hamming' record"):
        op_to_wire(get_backend("hamming"), {"op": "upsert", "record": object(), "id": 1})


def _malformed(backend: str) -> list[tuple[object, str]]:
    return [
        ({"op": "merge", "id": 1}, "unknown mutation op 'merge'"),
        ({"op": "upsert", "id": 1}, "require a record"),
        ({"op": "delete", "id": True}, "non-negative"),
        ({"op": "delete", "id": 2.5}, "non-negative"),
        ({"op": "upsert", "record": DECODABLE[backend], "id": -3}, "non-negative"),
        ({"op": "upsert", "record": DECODABLE[backend], "id": False}, "non-negative"),
        ({"op": "delete", "id": -3}, "non-negative"),
        ({"op": "delete", "id": MAX_ID + 1}, "int64"),
        ({"op": "delete"}, "require an id"),
        ({"op": "upsert", "record": UNDECODABLE[backend]}, f"undecodable {backend!r} record"),
        (["delete", 3], "JSON object"),
    ]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("backend", sorted(RECORDS))
def test_a_malformed_op_is_refused_by_position(backend, data):
    valid = encode_mutate(backend, data.draw(_ops(backend, st.none() | IDS)))["ops"]
    position = data.draw(st.integers(0, len(valid)))
    bad, reason = data.draw(st.sampled_from(_malformed(backend)))
    ops = valid[:position] + [bad] + valid[position:]
    with pytest.raises(WireFormatError, match=rf"^ops\[{position}\]: .*{reason}"):
        decode_mutate({"backend": backend, "ops": ops})
