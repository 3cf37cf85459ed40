"""Dataset container for Hamming distance search."""

from __future__ import annotations

import numpy as np

from repro.hamming.bitvec import as_bit_matrix, pack_words, packed_hamming_distances
from repro.hamming.partition import Partitioning, default_num_parts


class BinaryVectorDataset:
    """A collection of ``d``-dimensional binary vectors with partition codes.

    The dataset precomputes, once, everything the searchers need per data
    object: the packed uint64 words used by the linear scan and by ranking,
    and the per-part integer codes used by the partition index and by the
    chain check.  The codes are held once, at their native width
    (:attr:`repro.hamming.partition.Partitioning.code_dtype`), so a per-part
    XOR + popcount runs over them without a widening copy.

    Args:
        vectors: ``(n, d)`` array of 0/1 values.
        num_parts: the number of partitions ``m``; defaults to the paper's
            ``floor(d / 16)``.
    """

    def __init__(self, vectors: np.ndarray, num_parts: int | None = None):
        self._vectors = as_bit_matrix(vectors)
        if self._vectors.ndim != 2 or self._vectors.shape[0] == 0:
            raise ValueError("the dataset needs at least one vector")
        self._d = self._vectors.shape[1]
        m = default_num_parts(self._d) if num_parts is None else num_parts
        self._partitioning = Partitioning(self._d, m)
        code_dtype = self._partitioning.code_dtype
        self._part_codes = self._partitioning.part_codes(self._vectors).astype(code_dtype)
        self._packed = pack_words(self._vectors)
        # Query coding without the per-part matrix round trip: dimension k is
        # worth ``1 << (k - start of its part)``, summed within each part.
        starts = [start for start, _end in self._partitioning.boundaries]
        self._part_starts = np.asarray(starts, dtype=np.int64)
        shifts = np.arange(self._d, dtype=np.int64) - np.repeat(
            self._part_starts, self._partitioning.widths
        )
        self._bit_weights = np.left_shift(code_dtype(1), shifts.astype(code_dtype))

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def d(self) -> int:
        return self._d

    @property
    def m(self) -> int:
        return self._partitioning.m

    @property
    def partitioning(self) -> Partitioning:
        return self._partitioning

    @property
    def part_codes(self) -> np.ndarray:
        """``(n, m)`` unsigned codes of every part of every vector."""
        return self._part_codes

    @property
    def packed(self) -> np.ndarray:
        """``(n, n_words)`` packed uint64 representation."""
        return self._packed

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def query_codes(self, query: np.ndarray) -> np.ndarray:
        """Per-part codes of a query vector, at the width of :attr:`part_codes`."""
        matrix = np.asarray(query).reshape(1, -1)
        if matrix.shape[1] != self._d:
            raise ValueError(f"expected a {self._d}-dimensional query, got {matrix.shape[1]}")
        weights = self._bit_weights
        bits = as_bit_matrix(matrix)[0].astype(weights.dtype)
        return np.add.reduceat(weights * bits, self._part_starts, dtype=weights.dtype)

    def distances_to(self, query: np.ndarray) -> np.ndarray:
        """Full Hamming distances from the query to every data vector."""
        query_words = pack_words(np.asarray(query).reshape(1, -1))[0]
        return packed_hamming_distances(query_words, self._packed)

    def distances_to_subset(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Full Hamming distances from the query to the given data ids only."""
        ids = np.asarray(ids, dtype=np.int64)
        query_words = pack_words(np.asarray(query).reshape(1, -1))[0]
        return packed_hamming_distances(query_words, self._packed[ids])
