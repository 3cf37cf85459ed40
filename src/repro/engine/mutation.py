"""Online index mutation: a delta/tombstone overlay over an immutable index.

The engine's four domain indexes (partition index, prefix filters, q-gram
inverted lists, Pars partitions) are built once over a frozen dataset; none
of them supports in-place inserts or deletes.  This module makes a served
index *writable* the way LSM-style systems do, with a **main/delta split**:

* the **main** store is the immutable prepared dataset plus its build-once
  index, exactly as before;
* a small :class:`DeltaStore` rides on top, held as arrays plus one dict:

  - ``ids`` -- the ascending ``int64`` external id of every main *position*
    (what the searchers emit), or ``None`` while that map is the identity;
    it stops being the identity after the first compaction that drops
    records, and an id's position is one ``searchsorted``,
  - ``dead`` -- a boolean mask over main positions: the main copies that
    are deleted, or shadowed by an upsert, and so dropped from every main
    answer, and
  - ``records`` -- external id -> raw record, for freshly upserted objects,
    answered by an exact linear scan (batched through the backend's
    vectorised :meth:`repro.engine.backend.Backend.scan_records` /
    :meth:`~repro.engine.backend.Backend.record_distances` kernels, so a
    large delta is one kernel call, not one Python dispatch per record)
    and merged into every main answer;

* :meth:`repro.engine.backend.Backend.apply_mutations` (compaction) folds
  the delta into a rebuilt main store, clearing the overlay.

Every read runs the same three steps whether or not the store was ever
mutated: drop dead positions, map the rest through ``ids``, merge in the
delta hits.  Because the pigeonring searchers are exact at every threshold,
that reproduces, byte for byte, the answer an index rebuilt from the
post-mutation dataset would give -- the property the engine's mutation
tests assert per domain.

A :class:`DeltaStore` is **immutable**: :meth:`DeltaStore.apply` copies the
overlay once per batch and returns a new instance, so an in-flight search
that snapshotted the overlay keeps a consistent view while writers advance
it.  External ids are ``int64``: :func:`check_ops` refuses an explicit id
past :data:`MAX_ID`, and an append that would pass it is refused too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

#: The largest external id: ids are stored as ``int64``.
MAX_ID = 2**63 - 1


def _identity_or(ids: Sequence[int] | np.ndarray) -> np.ndarray | None:
    """Ascending distinct ids as ``int64``, or ``None`` when they are ``0..n-1``."""
    ids = np.asarray(ids, dtype=np.int64)
    return None if len(ids) == 0 or ids[-1] == len(ids) - 1 else ids


@dataclass(frozen=True, eq=False)
class DeltaStore:
    """The overlay of one backend's store.

    Attributes:
        dead: one flag per main position, set where the main copy must not
            be served; its length is the main store's size.
        ids: external id of every main position, ascending (``ids[pos]``),
            or ``None`` for the identity map.
        records: external id -> raw record, for objects living in the delta.
        next_id: the smallest never-assigned external id.
    """

    dead: np.ndarray
    ids: np.ndarray | None = None
    records: Mapping[int, Any] = field(default_factory=dict)
    next_id: int = 0

    @classmethod
    def fresh(cls, num_main: int) -> "DeltaStore":
        """The identity overlay of a just-prepared store of ``num_main`` objects."""
        return cls(dead=np.zeros(num_main, dtype=bool), next_id=num_main)

    # -- views -------------------------------------------------------------

    @property
    def num_main(self) -> int:
        return len(self.dead)

    @cached_property
    def num_tombstones(self) -> int:
        return int(np.count_nonzero(self.dead))

    @property
    def is_identity(self) -> bool:
        """True when compaction has nothing to fold or renumber.

        ``next_id`` may have advanced past the main size (an append that was
        deleted again) -- that affects future id assignment, not the stored
        records.
        """
        return self.ids is None and not self.records and not self.num_tombstones

    @property
    def mutated(self) -> bool:
        """True when the overlay differs from :meth:`fresh` of the main store.

        The ``next_id`` term keeps an overlay whose only trace is a deleted
        append worth persisting, so that id is never assigned again.
        """
        return not self.is_identity or self.next_id > self.num_main

    @property
    def num_live(self) -> int:
        """Objects a query can currently match (main minus dead, plus delta)."""
        return self.num_main - self.num_tombstones + len(self.records)

    def summary(self) -> dict:
        """JSON-friendly counters for manifests, ``/stats`` and CLIs."""
        return {
            "num_main": self.num_main,
            "num_tombstones": self.num_tombstones,
            "delta_records": len(self.records),
            "num_live": self.num_live,
            "next_id": self.next_id,
            "mutated": self.mutated,
        }

    def _external(self, positions: np.ndarray) -> np.ndarray:
        return positions if self.ids is None else self.ids[positions]

    def positions_of(self, ids: Sequence[int]) -> np.ndarray:
        """The main position of each external id; -1 where it names no main object."""
        wanted = np.asarray(ids, dtype=np.int64)
        if self.ids is None:
            return np.where(wanted < self.num_main, wanted, -1)
        at = np.minimum(np.searchsorted(self.ids, wanted), self.num_main - 1)
        return np.where(self.ids[at] == wanted, at, -1)

    def live_ids(self, positions: Sequence[int]) -> list[int]:
        """External ids of the live main objects among ``positions``, ascending."""
        ordered = sorted(positions)
        if self.ids is None and not self.num_tombstones:
            # Nothing to drop or map: skip the list-to-array round trip, which
            # costs more than the search itself on a large answer.
            return ordered
        at = np.asarray(ordered, dtype=np.int64)
        return self._external(at[~self.dead[at]]).tolist()

    def split(self, ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Where live ``ids`` are served from: ``(main positions of the ones in
        the main store, ascending slots in ids of the ones in the delta)``."""
        records = self.records
        slots = [slot for slot, obj_id in enumerate(ids) if obj_id in records] if records else []
        main = [obj_id for obj_id in ids if obj_id not in records] if slots else ids
        if self.ids is None:
            return list(main), slots
        return np.searchsorted(self.ids, main).tolist(), slots

    def live_max_size(self, main_sizes: Sequence[int], delta_sizes: Sequence[int]) -> int:
        """The largest size among live objects (1 when there are none)."""
        main = np.asarray(main_sizes)
        if self.num_tombstones:  # a masked reduction costs ~8x a plain one
            main = main[~self.dead]
        return max([int(main.max(initial=1)), *delta_sizes])

    def live_layout(self) -> tuple[np.ndarray, np.ndarray, list[Any], np.ndarray]:
        """Where the live records go when ordered by external id.

        Returns ``(live ids ascending, the live main positions ascending,
        the delta records ascending by id, a mask over the live ids that is
        True where a delta record goes)``; the main positions fill the
        other slots in order.  Delta records shadow dead main copies, so
        the two id sets are disjoint.
        """
        kept = np.flatnonzero(~self.dead)
        kept_ids = self._external(kept)
        added_ids = np.fromiter(self.records, np.int64, len(self.records))
        by_id = np.argsort(added_ids)
        records = list(self.records.values())
        from_added = np.zeros(kept.size + by_id.size, dtype=bool)
        from_added[np.searchsorted(kept_ids, added_ids[by_id]) + np.arange(by_id.size)] = True
        live_ids = np.empty(from_added.size, dtype=np.int64)
        live_ids[~from_added] = kept_ids
        live_ids[from_added] = added_ids[by_id]
        return live_ids, kept, [records[index] for index in by_id.tolist()], from_added

    def live_records(self, main_records: Any) -> tuple[list[int], list[Any]]:
        """Every live ``(external id, record)`` pair, ascending by id.

        ``main_records`` is indexed by main *position* (the backend's raw
        record sequence).
        """
        live_ids, kept, added, from_added = self.live_layout()
        main = iter([main_records[position] for position in kept.tolist()])
        delta = iter(added)
        return live_ids.tolist(), [next(delta if flag else main) for flag in from_added.tolist()]

    # -- mutations (copy-on-write) -----------------------------------------

    def apply(self, ops: Sequence[dict]) -> tuple["DeltaStore", list[dict]]:
        """Apply one batch of checked ops in order; returns the overlay and
        one result per op.

        An upsert (``id`` ``None`` appends at ``next_id``) shadows a live main
        copy and reports ``{"op": "upsert", "id"}``; a delete drops the main
        and delta copies and reports ``{"op": "delete", "id", "deleted"}``,
        whether the id was live.  The mask and the records are copied once
        for the whole batch, and a batch that changes nothing returns this
        very overlay.  An append past :data:`MAX_ID` raises ``ValueError``
        with this overlay untouched.
        """
        dead = self.dead.copy()
        records = dict(self.records)
        next_id = self.next_id
        changed = False
        where = iter(self.positions_of([op["id"] for op in ops if op["id"] is not None]).tolist())
        results: list[dict] = []
        for op in ops:
            obj_id = op["id"]
            # An appended id is at least next_id, so it names no main object.
            position = next(where) if obj_id is not None else -1
            main_live = position >= 0 and not dead[position]
            if main_live:
                dead[position] = True
            if op["op"] == "upsert":
                obj_id = assign_id(obj_id, next_id)
                records[obj_id] = op["record"]
                next_id = max(next_id, obj_id + 1)
                changed = True
                results.append({"op": "upsert", "id": obj_id})
            else:
                deleted = main_live or obj_id in records
                records.pop(obj_id, None)
                changed = changed or deleted
                results.append({"op": "delete", "id": obj_id, "deleted": deleted})
        if not changed:
            return self, results
        return DeltaStore(dead=dead, ids=self.ids, records=records, next_id=next_id), results

    def compacted(self, live_ids: Sequence[int]) -> "DeltaStore":
        """The overlay of the rebuilt main store holding ``live_ids``.

        The rebuilt store is immutable again -- empty delta, nothing dead --
        but the id mapping and ``next_id`` survive, so external ids stay
        stable across compactions.
        """
        return DeltaStore(
            dead=np.zeros(len(live_ids), dtype=bool),
            ids=_identity_or(live_ids),
            next_id=self.next_id,
        )


# ---------------------------------------------------------------------------
# Op validation (the one check both engines and the client encoder share)
# ---------------------------------------------------------------------------


def _check_id(obj_id: Any) -> int:
    """``obj_id`` as a plain int; rejects bools, floats, strings, negatives
    and ids past :data:`MAX_ID`."""
    if isinstance(obj_id, bool) or not hasattr(obj_id, "__index__"):
        raise ValueError(f"object ids are non-negative integers, got {obj_id!r}")
    value = operator.index(obj_id)
    if value < 0:
        raise ValueError(f"object ids are non-negative, got {value}")
    if value > MAX_ID:
        raise ValueError(f"object ids are int64: at most {MAX_ID}, got {value}")
    return value


def assign_id(obj_id: int | None, next_id: int) -> int:
    """The id an upsert lands on: its own, or ``next_id`` for an append.

    An append past :data:`MAX_ID` is a ``ValueError``: the id space is spent.
    """
    if obj_id is not None:
        return obj_id
    if next_id > MAX_ID:
        raise ValueError(f"no fresh object id is left: ids are int64, at most {MAX_ID}")
    return next_id


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
    return {
        "ids": None if delta.ids is None else delta.ids.tolist(),
        "num_main": delta.num_main,
        "tombstones": delta._external(np.flatnonzero(delta.dead)).tolist(),
        "next_id": delta.next_id,
        "mutated": delta.mutated,
        "records": [
            [obj_id, backend.record_to_wire(record)]
            for obj_id, record in sorted(delta.records.items())
        ],
    }


def delta_from_json(backend: Any, data: dict) -> DeltaStore:
    """Rebuild an overlay written by :func:`delta_to_json`."""
    num_main = int(data["num_main"])
    ids = None if data["ids"] is None else _identity_or(data["ids"])
    positions = DeltaStore(np.zeros(num_main, dtype=bool), ids).positions_of(data["tombstones"])
    dead = np.zeros(num_main, dtype=bool)
    dead[positions[positions >= 0]] = True
    return DeltaStore(
        dead=dead,
        ids=ids,
        records={
            int(obj_id): backend.record_from_wire(wire) for obj_id, wire in data["records"]
        },
        next_id=int(data["next_id"]),
    )
