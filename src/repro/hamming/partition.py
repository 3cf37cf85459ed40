"""Vertical partitioning of binary vectors (the extract component for Hamming search).

The filtering instance of Section 6.1 partitions the ``d`` dimensions into
``m`` disjoint, (as) equi-width (as possible) parts.  Each part of an object
is a feature; box ``b_i(x, q)`` is the Hamming distance between the ``i``-th
parts.  Because the parts are disjoint, ``||B(x, q)||_1 = H(x, q)`` and the
instance is complete and tight (Lemma 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamming.bitvec import as_bit_matrix, codes_from_bits


@dataclass(frozen=True)
class Partitioning:
    """An equi-width partitioning of ``d`` dimensions into ``m`` parts.

    When ``d`` is not divisible by ``m`` the remainder dimensions are spread
    over the leading parts, so part widths differ by at most one.
    """

    d: int
    m: int

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError("dimensionality d must be positive")
        if not 1 <= self.m <= self.d:
            raise ValueError(f"the number of parts must be in [1, {self.d}], got {self.m}")

    @property
    def widths(self) -> tuple[int, ...]:
        """Width of each part."""
        base, remainder = divmod(self.d, self.m)
        return tuple(base + 1 if i < remainder else base for i in range(self.m))

    @property
    def boundaries(self) -> tuple[tuple[int, int], ...]:
        """Half-open ``[start, end)`` dimension ranges of each part."""
        bounds = []
        start = 0
        for width in self.widths:
            bounds.append((start, start + width))
            start += width
        return tuple(bounds)

    @property
    def code_dtype(self) -> type[np.unsignedinteger]:
        """The width codes are stored and XORed at: 32 bits when every part fits, else 64."""
        return np.uint32 if max(self.widths) <= 32 else np.uint64

    def split(self, vectors: np.ndarray) -> list[np.ndarray]:
        """Slice a ``(n, d)`` matrix into ``m`` per-part matrices."""
        matrix = as_bit_matrix(vectors)
        if matrix.shape[1] != self.d:
            raise ValueError(f"expected {self.d}-dimensional vectors, got {matrix.shape[1]}")
        return [matrix[:, start:end] for start, end in self.boundaries]

    def part_codes(self, vectors: np.ndarray) -> np.ndarray:
        """Encode each part of each vector as an integer: ``(n, m)`` int64 codes."""
        parts = self.split(vectors)
        return np.stack([codes_from_bits(part) for part in parts], axis=1)

    def part_code(self, vector: np.ndarray, part: int) -> int:
        """Integer code of one part of a single vector."""
        matrix = np.asarray(vector).reshape(1, -1)
        return int(self.part_codes(matrix)[0, part])


def default_num_parts(d: int, part_width: int = 16) -> int:
    """The paper's default ``m = floor(d / 16)`` (at least 1)."""
    if d <= 0:
        raise ValueError("dimensionality d must be positive")
    return max(1, d // part_width)
