"""Runtime lock witness: record real acquisition orders, check the graph.

Static analysis sees ``with self._lock`` nesting but not cross-object
edges (the engine holding every writer lock while the metrics registry
takes its own lock inside ``to_wire``).  The witness closes that gap the
way a thread sanitizer does, at test scope:

* :class:`LockWitness` wraps a real ``threading.Lock`` under a stable
  name -- the same ``module.Class.attr`` node ids the static graph uses,
  with ``attr[key]`` for members of a lock family (``_writer_locks[sets]``);
* every acquisition while other witnessed locks are held records one
  observed ``held -> acquired`` edge in a shared :class:`WitnessLog`;
* :func:`check_consistent` unions the observed edges with the statically
  derived graph and asserts the result acyclic -- an execution that takes
  locks in an order the static graph's transpose allows is a deadlock
  candidate the moment both paths run concurrently.

Members of one family stay distinct nodes (``[sets]`` vs ``[hamming]``),
so the *intra*-family order -- invisible statically, sorted at runtime by
``metrics_wire`` -- is checked here at instance granularity; across
families, edges are collapsed to the family node (``[*]``) to match the
static graph, which is conservative in the usual partitioned-lock sense.
"""

from __future__ import annotations

import threading
from typing import Iterable


def family(name: str) -> str:
    """``..._writer_locks[sets]`` -> ``..._writer_locks[*]``; others unchanged."""
    if name.endswith("]") and "[" in name:
        return name[: name.rindex("[")] + "[*]"
    return name


class WitnessLog:
    """Observed acquisition edges across every witness sharing this log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[tuple[str, str], int] = {}
        self._held = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def record_acquire(self, name: str, reentrant: bool = False) -> None:
        stack = self._stack()
        if stack:
            with self._lock:
                for holder in stack:
                    if reentrant and holder == name:
                        # A legal RLock re-entry (e.g. ``truncate_upto``
                        # calling ``batches`` under the same lock) is not a
                        # self-deadlock edge.
                        continue
                    key = (holder, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
        stack.append(name)

    def record_release(self, name: str) -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] == name:
                del stack[position]
                return

    def edges(self) -> set[tuple[str, str]]:
        with self._lock:
            return set(self._edges)

    def counts(self) -> dict[tuple[str, str], int]:
        with self._lock:
            return dict(self._edges)


class LockWitness:
    """A named, order-recording wrapper around one real lock.

    Drop-in for the ``with`` protocol and ``acquire``/``release``, so it
    can replace ``engine._lock`` (or a ``_writer_locks`` entry) on a live
    object under test without the production code noticing.
    """

    def __init__(
        self, inner: threading.Lock, name: str, log: WitnessLog, reentrant: bool = False
    ):
        self._inner = inner
        self.name = name
        self._log = log
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._log.record_acquire(self.name, reentrant=self._reentrant)
        return acquired

    def release(self) -> None:
        self._log.record_release(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _find_cycle(edges: set[tuple[str, str]]) -> list[str] | None:
    adjacency: dict[str, set[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    visited: set[str] = set()

    def visit(node: str, path: list[str], on_path: set[str]) -> list[str] | None:
        visited.add(node)
        for succ in sorted(adjacency.get(node, ())):
            if succ in on_path:
                return path[path.index(succ) :]
            if succ not in visited:
                found = visit(succ, path + [succ], on_path | {succ})
                if found is not None:
                    return found
        return None

    for start in sorted(adjacency):
        if start not in visited:
            found = visit(start, [start], {start})
            if found is not None:
                return found
    return None


def check_consistent(
    static_edges: Iterable[tuple[str, str]],
    witness_edges: Iterable[tuple[str, str]],
) -> list[str]:
    """Problems (empty list = consistent) in the static+observed union.

    Observed edges between members of the *same* family stay at instance
    granularity (their order is exactly what the static pass cannot see);
    every other edge is collapsed to family nodes so it can interact with
    the static graph.  Any cycle in the union is reported.
    """
    combined: set[tuple[str, str]] = set(static_edges)
    for src, dst in witness_edges:
        src_family, dst_family = family(src), family(dst)
        if src_family == dst_family and src != dst:
            combined.add((src, dst))
        elif src_family != dst_family:
            combined.add((src_family, dst_family))
        else:
            return [f"lock {src!r} was re-acquired while already held"]
    cycle = _find_cycle(combined)
    if cycle is not None:
        ring = " -> ".join(cycle + [cycle[0]])
        return [f"lock-order cycle in the static+observed union: {ring}"]
    return []


# ---------------------------------------------------------------------------
# Instrumentation helpers for the concurrency tests
# ---------------------------------------------------------------------------

ENGINE_LOCK = "repro.engine.executor.SearchEngine._lock"
WRITER_FAMILY = "repro.engine.executor.SearchEngine._writer_locks"
REGISTRY_LOCK = "repro.common.obs.MetricsRegistry._lock"
REPLICA_WRITE_LOCK = "repro.engine.replication.ReplicaSet._write_lock"
REPLICA_LOCK = "repro.engine.replication.ReplicaSet._lock"
WAL_LOCK = "repro.engine.wal.WriteAheadLog._lock"


def instrument_engine(engine: object, log: WitnessLog) -> None:
    """Swap a live ``SearchEngine``'s locks for witnesses, in place.

    Wraps the engine ``_lock``, every already-created per-backend writer
    lock (named ``_writer_locks[<backend>]``), and the stats registry's
    internal lock, all under the node ids the static graph uses.
    """
    engine._lock = LockWitness(engine._lock, ENGINE_LOCK, log)  # type: ignore[attr-defined]
    writer_locks = engine._writer_locks  # type: ignore[attr-defined]
    for backend_name, lock in list(writer_locks.items()):
        writer_locks[backend_name] = LockWitness(
            lock, f"{WRITER_FAMILY}[{backend_name}]", log
        )
    registry = engine._stats.registry  # type: ignore[attr-defined]
    registry._lock = LockWitness(registry._lock, REGISTRY_LOCK, log)


def instrument_replica_set(rset: object, log: WitnessLog) -> None:
    """Swap a live ``ReplicaSet``'s locks (and its WAL's) for witnesses.

    Wraps the write-serialisation lock, the replica-table lock and -- when
    the set owns a shared WAL lineage -- the log's reentrant lock, under
    the node ids the static graph uses.  The documented order is
    ``_write_lock -> _lock -> WAL._lock``; any concurrent execution that
    observes an inversion (supervisor heal vs writer vs compaction and
    its checkpoint) turns the union graph cyclic and fails the witness
    check.
    """
    rset._write_lock = LockWitness(  # type: ignore[attr-defined]
        rset._write_lock, REPLICA_WRITE_LOCK, log
    )
    rset._lock = LockWitness(rset._lock, REPLICA_LOCK, log)  # type: ignore[attr-defined]
    wal = getattr(rset, "_wal", None)
    if wal is not None:
        wal._lock = LockWitness(wal._lock, WAL_LOCK, log, reentrant=True)
