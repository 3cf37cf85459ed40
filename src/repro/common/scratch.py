"""Reusable per-query scratch and CSR kernels for the columnar searchers.

The columnar candidate pipeline evaluates whole candidate arrays per query;
allocating every intermediate afresh would make the allocator the hot path
under serving traffic.  A :class:`Scratch` instance owns named, grow-only
numpy buffers that searchers reuse across queries; the
accumulation helpers work on *compact* touched-object arrays, so per-query
cost (including the implicit reset between queries) scales with the
candidates a query touches, never with the dataset size -- the same property
an epoch-stamped dense visited array gives, without the dense memory.

Searchers hold their scratch behind :class:`PerThread`, so every thread
that runs searches (the server's engine pool, say) gets a private set of
buffers, which the queries on that thread keep reusing.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


class Scratch:
    """Named grow-only numpy buffers reused across queries."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype: np.dtype | type) -> np.ndarray:
        """A length-``size`` view of the named buffer, grown when needed.

        The contents are whatever the previous query left behind; callers
        must fully overwrite the view before reading it.
        """
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != np.dtype(dtype):
            capacity = max(size, 2 * buffer.size if buffer is not None else 256)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size]

    def arange(self, size: int) -> np.ndarray:
        """A read-only-by-convention ``arange(size)`` view, grown when needed.

        A prefix of a longer arange *is* the shorter arange, so the buffer
        never needs refilling -- callers must not write through the view.
        """
        buffer = self._buffers.get("__arange__")
        if buffer is None or buffer.size < size:
            capacity = max(size, 2 * buffer.size if buffer is not None else 256)
            buffer = np.arange(capacity, dtype=np.int64)
            self._buffers["__arange__"] = buffer
        return buffer[:size]


class PerThread:
    """A lazily constructed per-thread instance of anything.

    The engine answers batches on a thread pool; scratch buffers are
    mutable, so each worker thread gets its own copy while sequential
    queries on one thread share it.
    """

    def __init__(self, factory: Callable[[], T]):
        self._factory = factory
        self._local = threading.local()

    def get(self) -> T:
        instance = getattr(self._local, "value", None)
        if instance is None:
            instance = self._factory()
            self._local.value = instance
        return instance


def csr_gather_indices(
    starts: np.ndarray, ends: np.ndarray, scratch: Scratch | None = None
) -> np.ndarray:
    """Flat gather indices for CSR row slices ``[starts[i], ends[i])``.

    The classic vectorised expansion: an ``arange`` over the total payload
    shifted per row so each row's block counts from its own ``starts``.
    """
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Row i's block must start at starts[i]; the arange starts it at the
    # cumulative length of the preceding rows, so shift by the difference.
    shifts = starts - (np.cumsum(lengths) - lengths)
    expanded = np.repeat(shifts, lengths)
    if scratch is not None:
        out = scratch.take("csr_gather", total, np.int64)
        np.add(scratch.arange(total), expanded, out=out)
        return out
    expanded += np.arange(total, dtype=np.int64)
    return expanded


def grouped_counts(objs: np.ndarray, cols: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Count ``(objs[i], cols[i])`` pairs grouped by object.

    Returns ``(touched, counts)`` where ``touched`` holds the distinct object
    ids ascending and ``counts`` is a ``(len(touched), width)`` matrix with
    ``counts[t, c]`` the number of pairs ``(touched[t], c)``.  Works entirely
    in the compact touched-object domain: nothing is allocated or zeroed at
    dataset size.
    """
    if objs.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros((0, width), dtype=np.int64)
    touched, inverse = np.unique(objs, return_inverse=True)
    flat = np.bincount(inverse * width + cols, minlength=touched.size * width)
    return touched, flat.reshape(touched.size, width)


def sorted_member_mask(haystack: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which of ``values`` occur in the *sorted* array ``haystack``.

    One clipped ``searchsorted`` sweep: the shared membership kernel of the
    set verifiers, the columnar batch verification and the delta-store
    scan.
    """
    if not haystack.size or not values.size:
        return np.zeros(values.size, dtype=bool)
    slots = np.searchsorted(haystack, values)
    np.minimum(slots, haystack.size - 1, out=slots)
    return haystack[slots] == values


def segment_sums(flags: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``flags`` for CSR segments split at ``boundaries``.

    ``boundaries`` has ``num_segments + 1`` entries into ``flags``; empty
    segments yield 0 (unlike ``np.add.reduceat``, which misbehaves on them).
    """
    prefix = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=prefix[1:])
    return prefix[boundaries[1:]] - prefix[boundaries[:-1]]
