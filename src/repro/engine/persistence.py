"""On-disk index containers: build once, save, and serve without rebuilding.

A container is a directory holding

* ``manifest.json`` -- format version, backend name, store descriptor and
  ``wal_seq``,
* a backend-owned payload (``data.npz`` for Hamming -- vectors plus the
  serialised partition index --, for sets -- the raw records as CSR
  token and offset arrays plus ``num_classes`` -- and for strings -- the
  records' concatenated code points, their offsets and ``kappa``;
  ``data.json`` for graphs),
* an optional persisted query workload (``queries.npz`` / ``queries.json``),
  and
* ``mutations.json`` when the index is mutated -- the delta/tombstone
  overlay (:mod:`repro.engine.mutation`), so upserts and deletes survive
  save/load without forcing a compaction.

Format versioning: there is one format, version 5, with one writer and one
reader.  ``wal_seq`` is the write-ahead-log sequence number the container
checkpoints (every WAL batch with ``seq <= wal_seq`` is already folded into
the stored state, so replay after a crash skips them; 0 without a WAL).  A
container of any other version -- including the versions 1-4 of earlier
builds, whose strings payload (and before version 4 the sets payload) was
``data.json`` -- is refused with a message to rebuild it with
``build-index``.

Every file a container write touches goes through :func:`atomic_write`:
write to a temp file, fsync, then ``os.replace`` over the target.  A crash
mid-save leaves either the old file or the new one, never a half-written
manifest that a later load would trust.

Loading resolves the backend through the registry, so a container is
self-describing: :func:`load_container` needs only the path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Sequence

from repro.engine.backend import Backend, get_backend
from repro.engine.mutation import DeltaStore, delta_from_json, delta_to_json

FORMAT_VERSION = 5
SUPPORTED_FORMAT_VERSIONS = frozenset({FORMAT_VERSION})
MANIFEST_NAME = "manifest.json"
MUTATIONS_NAME = "mutations.json"


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry (makes a rename durable)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem refuses dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write(path: str, writer: Callable[[BinaryIO], None]) -> None:
    """Write a file atomically: temp file + fsync + ``os.replace``.

    ``writer`` receives a binary handle positioned at the start of a temp
    file next to ``path``; on any failure the temp file is removed and the
    original is left untouched.
    """
    temp_path = path + ".tmp"
    try:
        with open(temp_path, "wb") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.remove(temp_path)
        raise
    fsync_directory(os.path.dirname(path))


def atomic_write_json(path: str, payload: Any, indent: int | None = None) -> None:
    """Serialise ``payload`` as JSON and write it atomically to ``path``."""
    data = json.dumps(payload, indent=indent).encode("utf-8")
    atomic_write(path, lambda handle: handle.write(data))


@dataclass
class Container:
    """A loaded index container."""

    backend: Backend
    store: Any
    queries: list[Any] | None
    manifest: dict
    delta: DeltaStore | None = None

    @property
    def wal_seq(self) -> int:
        """The WAL sequence number this container's state checkpoints."""
        return int(self.manifest["wal_seq"])


def save_container(
    backend: Backend,
    store: Any,
    directory: str,
    queries: Sequence[Any] | None = None,
    delta: DeltaStore | None = None,
    wal_seq: int = 0,
) -> dict:
    """Write a store (and optionally a workload and overlay) to ``directory``.

    ``wal_seq`` records how much write-ahead-log history the saved state
    already contains; replay on load applies only batches after it.
    """
    os.makedirs(directory, exist_ok=True)
    write_delta = delta is not None and delta.mutated
    manifest = {
        "format_version": FORMAT_VERSION,
        "backend": backend.name,
        "descriptor": backend.describe(store),
        # Recorded at build time (JSON keeps the int/float distinction, which
        # is semantic for the sets backend) so network clients and the load
        # generator can pick a threshold without loading the store.
        "default_tau": backend.default_tau(store),
        "wal_seq": int(wal_seq),
    }
    backend.save_store(store, directory)
    mutations_path = os.path.join(directory, MUTATIONS_NAME)
    if write_delta:
        manifest["mutations"] = delta.summary()
        atomic_write_json(mutations_path, delta_to_json(backend, delta))
    elif os.path.exists(mutations_path):
        # Overwriting a mutated container with an unmutated store: a stale
        # overlay must not resurrect on the next load.
        os.remove(mutations_path)
    if queries is not None:
        backend.save_queries(queries, directory)
        manifest["num_queries"] = len(queries)
    atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest, indent=2)
    return manifest


def read_manifest(directory: str) -> dict:
    """A container's manifest; ``ValueError`` for a format this build does
    not read.  A sharded engine checks every shard with it before it starts
    a worker, so an old shard is refused in the parent process."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{directory!r} is not an index container (no manifest)")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(
            f"unsupported container format {version!r} in {directory!r} (this build reads "
            f"version {FORMAT_VERSION}); rebuild the index with `build-index` "
            f"(`build-shards` for a sharded index)"
        )
    return manifest


def load_container(directory: str) -> Container:
    """Load a container written by :func:`save_container`."""
    manifest = read_manifest(directory)
    backend = get_backend(manifest["backend"])
    store = backend.load_store(directory)
    queries = backend.load_queries(directory)
    delta = None
    mutations_path = os.path.join(directory, MUTATIONS_NAME)
    if os.path.exists(mutations_path):
        with open(mutations_path, encoding="utf-8") as handle:
            delta = delta_from_json(backend, json.load(handle))
    return Container(backend=backend, store=store, queries=queries, manifest=manifest, delta=delta)
