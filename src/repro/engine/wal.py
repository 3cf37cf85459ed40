"""Per-index write-ahead log: crash durability for acknowledged mutations.

The mutation overlay of :mod:`repro.engine.mutation` lives in memory until an
explicit save writes ``mutations.json`` -- a crash between saves silently
drops every acknowledged upsert and delete.  This module closes that gap the
way LSM engines do, with a **write-ahead log** per served index:

* every mutation batch is appended to the WAL *and fsynced* before the
  caller is acknowledged (``durability="wal"``; ``"memory"`` appends without
  the fsync and rides on the next synced batch -- group commit);
* on load, the WAL is replayed into the delta store, so the recovered index
  contains exactly the acknowledged prefix of the write history;
* a torn tail (partial record from a crash mid-append) or a
  checksum-corrupted record is detected and cleanly discarded together with
  everything after it -- the WAL is trusted only up to its last valid
  record;
* after a checkpoint (an explicit save, or the auto-compaction swap) the
  log is truncated up to the checkpointed sequence number, keeping replay
  bounded.

File layout (all integers little-endian)::

    8 bytes   magic ``PRWAL001``
    repeated  <u32 payload length> <u32 crc32(payload)> <payload>

where each payload is one UTF-8 JSON *batch document*::

    {"seq": <int>, "backend": <name>, "ops": [<op>, ...]}

and each op is either ``{"op": "upsert", "id": <int>, "record": <wire>}``
or ``{"op": "delete", "id": <int>}``.  Records cross through the backend's
wire codec, and upserts always carry the **explicit** external id the engine
assigned at accept time, so replay is deterministic and idempotent: the same
batch applied twice produces the same overlay, and batches whose ``seq`` is
already covered by the container manifest's checkpoint are skipped.

Sequence numbers are per-WAL, start at 1, and keep increasing across
truncations (the checkpointed seq is recorded in the container manifest and
restored at attach time), so "which batches does this container already
contain" is always a single integer comparison.

Besides the log itself, this module is the one owner of the write-path
rules that both topologies (:class:`repro.engine.executor.SearchEngine` and
the sharded parent of :mod:`repro.engine.sharding` /
:mod:`repro.engine.replication`) and the HTTP layer call instead of
restating:

* the **durability rule** -- :func:`resolve_durability` (the default level,
  and the two refusals) and :func:`check_durability` (the level names,
  :data:`DURABILITY_LEVELS`);
* the **op codec** -- :func:`op_to_wire` / :func:`op_from_wire`, the one
  JSON form of a mutation op in the WAL, in replay and in ``/mutate``;
* **background compaction** -- :class:`AutoCompactionPolicy`, the
  delta-size / scan-cost crossover rule, and :class:`BackgroundCompactor`,
  which weighs it right after every write batch and runs at most one fold
  per backend or shard on a daemon thread; and
* :func:`write_path_info`, the write-path half of ``durability_info()``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.persistence import fsync_directory

WAL_MAGIC = b"PRWAL001"
_RECORD_HEADER = struct.Struct("<II")

#: Acknowledgment levels for mutation batches.  ``"wal"`` fsyncs the log
#: before the batch is acknowledged; ``"memory"`` appends without syncing
#: (the next synced batch or checkpoint makes it durable).
DURABILITY_LEVELS = ("memory", "wal")


def check_durability(level: str | None) -> None:
    """Refuse a level that is neither ``None`` (the default) nor a known one."""
    if level is not None and level not in DURABILITY_LEVELS:
        raise ValueError(f"unknown durability {level!r} (accepted: {', '.join(DURABILITY_LEVELS)})")


def resolve_durability(level: str | None, logged: bool, backend_name: str) -> str:
    """The level a mutation batch is acknowledged at: the one durability rule.

    ``None`` means ``"wal"`` when a log is attached (``logged``), else
    ``"memory"``; an unknown level, and ``"wal"`` without a log, are
    ``ValueError``.  Both engines call this before any state changes.
    """
    check_durability(level)
    if level is None:
        return "wal" if logged else "memory"
    if level == "wal" and not logged:
        raise ValueError(f"durability 'wal' requires a WAL attached to backend {backend_name!r}")
    return level


class WalCorruptionError(ValueError):
    """A WAL file does not start with the expected magic bytes."""


@dataclass(frozen=True)
class WalBatch:
    """One decoded batch record of a WAL file."""

    seq: int
    backend: str
    ops: tuple[dict, ...]
    offset: int
    num_bytes: int


def read_wal(path: str) -> tuple[list[WalBatch], int, int, str | None]:
    """Scan a WAL file, stopping at the first invalid byte.

    Returns ``(batches, valid_end, file_size, tail_error)``: the decodable
    batch prefix, the byte offset where validity ends, the file size, and
    why scanning stopped (``None`` when the whole file is valid).  The
    prefix property is the recovery invariant: a record is trusted only if
    every record before it is intact, so a torn or corrupted record
    invalidates itself *and everything after it*.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    size = len(data)
    if size == 0:
        return [], 0, 0, "empty file (missing magic)"
    if size < len(WAL_MAGIC) or data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruptionError(f"{path!r} is not a write-ahead log (bad magic)")
    offset = len(WAL_MAGIC)
    batches: list[WalBatch] = []
    while offset < size:
        if offset + _RECORD_HEADER.size > size:
            return batches, offset, size, "torn record header"
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        start = offset + _RECORD_HEADER.size
        payload = data[start : start + length]
        if len(payload) < length:
            return batches, offset, size, "torn record payload"
        if zlib.crc32(payload) != crc:
            return batches, offset, size, "record checksum mismatch"
        try:
            doc = json.loads(payload.decode("utf-8"))
            batch = WalBatch(
                seq=int(doc["seq"]),
                backend=str(doc.get("backend", "")),
                ops=tuple(doc["ops"]),
                offset=offset,
                num_bytes=_RECORD_HEADER.size + length,
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return batches, offset, size, "undecodable record payload"
        batches.append(batch)
        offset += _RECORD_HEADER.size + length
    return batches, offset, size, None


def wal_summary(path: str) -> dict:
    """JSON-friendly description of a WAL file (the ``wal-inspect`` view)."""
    batches, valid_end, size, tail_error = read_wal(path)
    return {
        "path": path,
        "size_bytes": size,
        "valid_bytes": valid_end,
        "discarded_bytes": size - valid_end,
        "tail_error": tail_error,
        "num_batches": len(batches),
        "last_seq": batches[-1].seq if batches else 0,
        "batches": [
            {
                "seq": batch.seq,
                "backend": batch.backend,
                "num_ops": len(batch.ops),
                "upserts": sum(1 for op in batch.ops if op.get("op") == "upsert"),
                "deletes": sum(1 for op in batch.ops if op.get("op") == "delete"),
                "offset": batch.offset,
                "num_bytes": batch.num_bytes,
            }
            for batch in batches
        ],
    }


def replay_batches(path: str, after_seq: int = 0) -> list[WalBatch]:
    """Valid batches with ``seq`` past a checkpoint (the shared-lineage view).

    Replicas sharing one parent-owned WAL catch up by reading the file
    directly: the parent appends, every replica replays whatever suffix it
    has not folded in yet.  A missing file is an empty history (the parent
    has not appended anything), not an error.
    """
    if not os.path.exists(path):
        return []
    return [batch for batch in read_wal(path)[0] if batch.seq > after_seq]


class WriteAheadLog:
    """An append-only, checksummed mutation log for one served index.

    Opening an existing file scans it, **truncates** any torn or corrupted
    tail in place (recording why in :attr:`tail_discarded`), and resumes
    sequence numbering after the last valid batch.  Appends and truncations
    are serialised by an internal lock, so a background compaction can
    rotate the log while writers keep appending.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.RLock()
        self.tail_discarded: str | None = None
        #: Size of the most recently appended record (header + payload);
        #: read by the engine's WAL throughput instrumentation.
        self.last_append_bytes = 0
        if os.path.exists(path):
            batches, valid_end, size, tail_error = read_wal(path)
            self._last_seq = batches[-1].seq if batches else 0
            self._handle = open(path, "r+b")
            if tail_error is not None:
                # Discard the invalid suffix so later appends extend a
                # clean prefix instead of burying garbage mid-file.  An
                # empty (0-byte) file -- e.g. created but never synced --
                # is re-stamped with the magic the same way.
                if size > 0:
                    self.tail_discarded = f"{tail_error} ({size - valid_end} bytes)"
                if valid_end == 0:
                    self._handle.write(WAL_MAGIC)
                    valid_end = len(WAL_MAGIC)
                self._handle.truncate(valid_end)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._handle.seek(0, os.SEEK_END)
        else:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "x+b")
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            fsync_directory(directory)
            self._last_seq = 0

    # -- state ---------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended batch."""
        with self._lock:
            return self._last_seq

    def resume_from(self, seq: int) -> None:
        """Advance sequencing past ``seq`` (the container's checkpoint).

        After a checkpoint truncates the log, the file alone no longer
        remembers how far numbering got; the engine restores it from the
        manifest so sequence numbers never repeat.
        """
        with self._lock:
            self._last_seq = max(self._last_seq, int(seq))

    def batches(self) -> list[WalBatch]:
        """Re-read every valid batch currently on disk (the replay view)."""
        with self._lock:
            return read_wal(self.path)[0]

    def describe(self) -> dict:
        """Cheap JSON-friendly state for ``durability_info()``."""
        with self._lock:
            return {
                "path": self.path,
                "last_seq": self._last_seq,
                "size_bytes": os.path.getsize(self.path),
                "tail_discarded": self.tail_discarded,
            }

    # -- writes --------------------------------------------------------------

    def append(self, backend_name: str, ops: Sequence[dict], sync: bool = True) -> int:
        """Append one batch; fsync before returning when ``sync`` is True.

        Returns the sequence number assigned to the batch.  With
        ``sync=False`` the bytes reach the OS (a process crash keeps them)
        but not necessarily the disk -- the ``"memory"`` durability level.
        """
        with self._lock:
            seq = self._last_seq + 1
            doc = {"seq": seq, "backend": backend_name, "ops": list(ops)}
            payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
            self._handle.write(_RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
            self._handle.write(payload)
            self._handle.flush()
            if sync:
                os.fsync(self._handle.fileno())
            self._last_seq = seq
            self.last_append_bytes = _RECORD_HEADER.size + len(payload)
            return seq

    def truncate_upto(self, seq: int) -> None:
        """Drop every batch with ``seq`` <= the given checkpoint, atomically.

        The surviving suffix (batches appended after the checkpoint was
        snapshotted) is rewritten to a temp file and renamed over the log,
        so a crash mid-truncate leaves either the old or the new file --
        never a half-written one.
        """
        with self._lock:
            survivors = [batch for batch in self.batches() if batch.seq > seq]
            temp_path = self.path + ".tmp"
            with open(self.path, "rb") as source, open(temp_path, "wb") as temp:
                temp.write(WAL_MAGIC)
                for batch in survivors:
                    source.seek(batch.offset)
                    temp.write(source.read(batch.num_bytes))
                temp.flush()
                os.fsync(temp.fileno())
            self._handle.close()
            os.replace(temp_path, self.path)
            fsync_directory(os.path.dirname(self.path))
            self._handle = open(self.path, "r+b")
            self._handle.seek(0, os.SEEK_END)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Op codec (engine form <-> WAL/wire form)
# ---------------------------------------------------------------------------


def op_to_wire(backend: Any, op: dict) -> dict:
    """Engine-form op (decoded record) -> WAL/wire form.

    The one encoder of the WAL and of ``/mutate`` bodies.  An upsert
    without an id (an append the engine has not numbered yet) omits
    ``id``; a record the backend cannot encode is a ``ValueError``.
    """
    kind = op["op"]
    if kind == "delete":
        return {"op": "delete", "id": int(op["id"])}
    if kind != "upsert":
        raise ValueError(f"unknown mutation op {kind!r}")
    try:
        record = backend.record_to_wire(op["record"])
    except Exception as exc:
        raise ValueError(f"unencodable {backend.name!r} record: {exc}") from exc
    doc: dict[str, Any] = {"op": "upsert"}
    if op.get("id") is not None:
        doc["id"] = int(op["id"])
    doc["record"] = record
    return doc


def op_from_wire(backend: Any, doc: dict) -> dict:
    """WAL/wire-form op -> engine form with the record decoded.

    The one decoder of WAL replay and of ``/mutate`` bodies.  Ids pass
    through as sent (``None`` when absent) for
    :func:`repro.engine.mutation.check_ops` to judge; an unknown op, a
    missing record or one the backend cannot decode is a ``ValueError``.
    """
    kind = doc.get("op")
    if kind == "delete":
        return {"op": "delete", "id": doc.get("id")}
    if kind != "upsert":
        raise ValueError(f"unknown mutation op {kind!r}")
    if "record" not in doc:
        raise ValueError("upsert ops require a record")
    try:
        record = backend.record_from_wire(doc["record"])
    except Exception as exc:
        raise ValueError(f"undecodable {backend.name!r} record: {exc}") from exc
    return {"op": "upsert", "id": doc.get("id"), "record": record}


# ---------------------------------------------------------------------------
# Auto-compaction policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutoCompactionPolicy:
    """When to fold the delta overlay back into a rebuilt main store.

    Every query pays an exact linear scan over the delta records on top of
    the main pipeline's candidate work, so the natural trigger is the
    crossover between the two: once the delta holds more records than
    ``cost_ratio`` x the average candidates the main funnel generates per
    query (the ``engine_candidates_generated_total`` stat), scanning the
    delta dominates and compaction pays for itself.  ``min_delta_records``
    keeps tiny overlays from churning rebuilds, and ``max_delta_records``
    bounds the overlay (and WAL replay time) even for write-only workloads
    where no query traffic feeds the funnel stats.
    """

    min_delta_records: int = 256
    cost_ratio: float = 0.5
    max_delta_records: int = 8192

    def __post_init__(self) -> None:
        if self.min_delta_records < 1:
            raise ValueError("min_delta_records must be >= 1")
        if self.cost_ratio <= 0:
            raise ValueError("cost_ratio must be positive")
        if self.max_delta_records < self.min_delta_records:
            raise ValueError("max_delta_records must be >= min_delta_records")

    def should_compact(self, delta_records: int, avg_generated: float) -> bool:
        """Decide from the overlay size and the funnel's per-query cost."""
        if delta_records >= self.max_delta_records:
            return True
        if delta_records < self.min_delta_records:
            return False
        if avg_generated <= 0:
            # No query traffic yet: the delta is pure replay/memory overhead
            # with nothing to amortise it, so compact at the floor.
            return True
        return delta_records >= self.cost_ratio * avg_generated

    def summary(self) -> dict:
        return {
            "min_delta_records": self.min_delta_records,
            "cost_ratio": self.cost_ratio,
            "max_delta_records": self.max_delta_records,
        }


class BackgroundCompactor:
    """Auto-compaction of one backend or shard: the policy and its thread.

    Both engines call :meth:`after_write` right after a write batch with
    the overlay's delta size and the funnel's ``avg_generated`` of that
    backend or shard; when the policy fires and no compaction of this
    compactor is in flight, ``compact`` runs on one daemon thread.  A
    failure is kept (never raised) and shows in :meth:`summary`, the
    ``auto_compaction`` block of ``durability_info()``.  The internal lock
    is a leaf: no engine, replica-set or WAL lock is taken while it is
    held (the thread is started under it, so :meth:`wait` never sees one
    that has not started).
    """

    def __init__(self, policy: AutoCompactionPolicy, compact: Callable[[], Any], name: str):
        self.policy = policy
        self._compact = compact
        self._name = name
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._compactions = 0
        self._last_error: str | None = None

    def after_write(self, delta_records: int, avg_generated: float) -> None:
        """Start a background compaction when the policy says so."""
        with self._lock:
            idle = self._thread is None or not self._thread.is_alive()
            if idle and self.policy.should_compact(delta_records, avg_generated):
                self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
                self._thread.start()

    def _run(self) -> None:
        error = None
        try:
            self._compact()
        except Exception as exc:  # surfaced through summary(), never raised
            error = repr(exc)
        with self._lock:
            if error is None:
                self._compactions += 1
            self._last_error = error

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the in-flight background compaction (if any) is done."""
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        return thread is None or not thread.is_alive()

    def summary(self, in_flight: bool) -> dict:
        """The ``auto_compaction`` block; ``in_flight`` counts any compaction."""
        with self._lock:
            return {
                "enabled": True,
                **self.policy.summary(),
                "in_flight": in_flight,
                "compactions": self._compactions,
                "last_error": self._last_error,
            }


def write_path_info(
    backend_name: str,
    wal: WriteAheadLog | None,
    compactor: BackgroundCompactor | None,
    compacting: bool,
) -> dict:
    """The write-path half of one backend's or shard's ``durability_info()``:
    its default level, its log and its background compaction."""
    return {
        "default_durability": resolve_durability(None, wal is not None, backend_name),
        "auto_compaction": (
            {"enabled": False} if compactor is None else compactor.summary(compacting)
        ),
        "wal": {"attached": False} if wal is None else {"attached": True, **wal.describe()},
    }
