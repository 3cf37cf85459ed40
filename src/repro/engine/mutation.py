"""Online index mutation: a delta/tombstone overlay over an immutable index.

The engine's four domain indexes (partition index, prefix filters, q-gram
inverted lists, Pars partitions) are built once over a frozen dataset; none
of them supports in-place inserts or deletes.  This module makes a served
index *writable* the way LSM-style systems do, with a **main/delta split**:

* the **main** store is the immutable prepared dataset plus its build-once
  index, exactly as before;
* a small :class:`DeltaStore` rides on top, holding

  - ``records`` -- freshly upserted objects, answered by an exact linear
    scan (batched through the backend's vectorised
    :meth:`repro.engine.backend.Backend.scan_records` /
    :meth:`~repro.engine.backend.Backend.record_distances` kernels, so a
    large delta is one kernel call, not one Python dispatch per record)
    and merged into every main answer,
  - ``tombstones`` -- external ids whose main copy is dead (deleted, or
    shadowed by an upsert), filtered out of every main answer, and
  - ``ids`` -- the mapping from main *positions* (what the searchers emit)
    to stable *external* ids, which stops being the identity after the
    first compaction that drops records;

* :meth:`repro.engine.backend.Backend.apply_mutations` (compaction) folds
  the delta into a rebuilt main store, clearing the overlay.

Because the pigeonring searchers are exact at every threshold, merging the
delta scan into the main answer reproduces, byte for byte, the answer an
index rebuilt from the post-mutation dataset would give -- the property the
engine's mutation tests assert per domain.

A :class:`DeltaStore` is treated as **immutable**: every mutation returns a
new instance (sharing the unchanged parts), so an in-flight search that
snapshotted the overlay keeps a consistent view while writers advance it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class DeltaStore:
    """The mutable overlay of one backend's store.

    Attributes:
        ids: external id of every main position, ascending (``ids[pos]``).
        positions: the inverse map, external id -> main position.
        tombstones: external ids whose main copy must not be served.
        records: external id -> raw record, for objects living in the delta.
        next_id: the smallest never-assigned external id.
        mutated: True once any mutation has ever been applied (survives
            compaction; a mutated index returns threshold answers sorted by
            external id, like the sharded engine, so answers stay comparable
            to a from-scratch rebuild).
    """

    ids: tuple[int, ...]
    positions: Mapping[int, int]
    tombstones: frozenset = frozenset()
    records: dict[int, Any] = field(default_factory=dict)
    next_id: int = 0
    mutated: bool = False

    @classmethod
    def fresh(cls, num_objects: int) -> "DeltaStore":
        """The identity overlay of a just-prepared store of ``num_objects``."""
        ids = tuple(range(num_objects))
        return cls(
            ids=ids,
            positions={obj_id: obj_id for obj_id in ids},
            next_id=num_objects,
        )

    # -- views -------------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        """True when the overlay changes nothing about the served content.

        ``next_id`` may have advanced past the main size (an append that was
        deleted again) -- that affects future id assignment, not the stored
        records, so compaction has nothing to fold.
        """
        return not self.tombstones and not self.records and self.ids == tuple(range(len(self.ids)))

    @property
    def num_live(self) -> int:
        """Objects a query can currently match (main minus dead, plus delta)."""
        return len(self.ids) - len(self.tombstones) + len(self.records)

    def live_main(self) -> Iterator[tuple[int, int]]:
        """``(position, external id)`` of every live main object, id order."""
        for position, obj_id in enumerate(self.ids):
            if obj_id not in self.tombstones:
                yield position, obj_id

    def summary(self) -> dict:
        """JSON-friendly counters for manifests, ``/stats`` and CLIs."""
        return {
            "num_main": len(self.ids),
            "num_tombstones": len(self.tombstones),
            "delta_records": len(self.records),
            "num_live": self.num_live,
            "next_id": self.next_id,
            "mutated": self.mutated,
        }

    # -- mutations (copy-on-write) -----------------------------------------

    def with_upsert(self, record: Any, obj_id: int | None = None) -> tuple["DeltaStore", int]:
        """Insert or overwrite one record; returns the overlay and its id."""
        if obj_id is None:
            obj_id = self.next_id
        elif obj_id < 0:
            raise ValueError(f"object ids are non-negative, got {obj_id}")
        tombstones = self.tombstones
        if obj_id in self.positions and obj_id not in tombstones:
            # The id names a main object: shadow it, the delta copy wins.
            tombstones = tombstones | {obj_id}
        records = dict(self.records)
        records[obj_id] = record
        return (
            replace(
                self,
                tombstones=tombstones,
                records=records,
                next_id=max(self.next_id, obj_id + 1),
                mutated=True,
            ),
            obj_id,
        )

    def with_delete(self, obj_id: int) -> tuple["DeltaStore", bool]:
        """Remove one external id; returns the overlay and whether it was live."""
        deleted = False
        tombstones = self.tombstones
        records = self.records
        if obj_id in self.records:
            records = dict(self.records)
            del records[obj_id]
            deleted = True
        if obj_id in self.positions and obj_id not in tombstones:
            tombstones = tombstones | {obj_id}
            deleted = True
        if not deleted:
            return self, False
        return replace(self, tombstones=tombstones, records=records, mutated=True), True

    def live_records(self, main_records: Any) -> tuple[list[int], list[Any]]:
        """Every live ``(external id, record)`` pair, ascending by id.

        ``main_records`` is indexed by main *position* (the backend's raw
        record sequence); delta records shadow tombstoned main copies.
        """
        merged = {obj_id: main_records[position] for position, obj_id in self.live_main()}
        merged.update(self.records)
        ordered = sorted(merged)
        return ordered, [merged[obj_id] for obj_id in ordered]

    def compacted(self, live_ids: list[int]) -> "DeltaStore":
        """The overlay of the rebuilt main store holding ``live_ids``.

        The rebuilt store is immutable again -- empty delta, no tombstones --
        but the id mapping and ``next_id`` survive, so external ids stay
        stable across compactions.
        """
        ids = tuple(live_ids)
        return DeltaStore(
            ids=ids,
            positions={obj_id: position for position, obj_id in enumerate(ids)},
            next_id=self.next_id,
            mutated=self.mutated,
        )


# ---------------------------------------------------------------------------
# Op validation (the one check both engines and the client encoder share)
# ---------------------------------------------------------------------------


def _check_id(obj_id: Any) -> int:
    """``obj_id`` as a plain int; rejects bools, floats, strings, negatives."""
    if isinstance(obj_id, bool) or not hasattr(obj_id, "__index__"):
        raise ValueError(f"object ids are non-negative integers, got {obj_id!r}")
    value = operator.index(obj_id)
    if value < 0:
        raise ValueError(f"object ids are non-negative, got {value}")
    return value


def check_ops(ops: Sequence[Any]) -> list[dict]:
    """Validate one mutation batch's structure; returns the normalised ops.

    Each op comes back as ``{"op": "upsert", "record": ..., "id": int | None}``
    or ``{"op": "delete", "id": int}``.  Ids are never coerced: ``2.9``,
    ``True`` and ``"7"`` are errors, not ids 2, 1 and 7.  Record *contents*
    are the store's to judge (``Backend.check_record``), not this function's.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("mutation batch is empty: 'ops' must be a non-empty list")
    checked: list[dict] = []
    for op in ops:
        kind = op.get("op") if isinstance(op, dict) else None
        if kind == "upsert":
            if "record" not in op:
                raise ValueError("upsert ops require a record")
            obj_id = op.get("id")
            checked.append(
                {
                    "op": "upsert",
                    "record": op["record"],
                    "id": None if obj_id is None else _check_id(obj_id),
                }
            )
        elif kind == "delete":
            if op.get("id") is None:
                raise ValueError("delete ops require an id")
            checked.append({"op": "delete", "id": _check_id(op["id"])})
        else:
            raise ValueError(f"unknown mutation op {kind!r}")
    return checked


# ---------------------------------------------------------------------------
# Serialisation (used by repro.engine.persistence)
# ---------------------------------------------------------------------------


def delta_to_json(backend: Any, delta: DeltaStore) -> dict:
    """The JSON form of an overlay; records cross through the wire codec."""
    identity_ids = tuple(range(len(delta.ids))) == delta.ids
    return {
        "ids": None if identity_ids else list(delta.ids),
        "num_main": len(delta.ids),
        "tombstones": sorted(delta.tombstones),
        "next_id": delta.next_id,
        "mutated": delta.mutated,
        "records": [
            [obj_id, backend.record_to_wire(record)]
            for obj_id, record in sorted(delta.records.items())
        ],
    }


def delta_from_json(backend: Any, data: dict) -> DeltaStore:
    """Rebuild an overlay written by :func:`delta_to_json`."""
    if data["ids"] is None:
        ids = tuple(range(int(data["num_main"])))
    else:
        ids = tuple(int(obj_id) for obj_id in data["ids"])
    return DeltaStore(
        ids=ids,
        positions={obj_id: position for position, obj_id in enumerate(ids)},
        tombstones=frozenset(int(obj_id) for obj_id in data["tombstones"]),
        records={
            int(obj_id): backend.record_from_wire(wire) for obj_id, wire in data["records"]
        },
        next_id=int(data["next_id"]),
        mutated=bool(data["mutated"]),
    )
