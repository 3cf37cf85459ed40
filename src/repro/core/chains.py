"""Rings of boxes and chains of consecutive boxes.

The paper (Section 3) places the ``m`` boxes ``b_0, ..., b_{m-1}`` clockwise on
a ring where ``b_0`` succeeds ``b_{m-1}``.  A *chain* ``c_i^l`` is the sequence
of ``l`` consecutive boxes starting at index ``i`` going clockwise; indices
wrap modulo ``m``.  ``||c_i^l||_1`` denotes the sum of its elements.

A chain is *viable* when its sum is within its quota (``l * n / m`` for the
uniform allocation, or the corresponding sum of per-box thresholds for
variable allocations).  A chain is *prefix-viable* when every one of its
prefixes is viable, and *suffix-viable* when every one of its suffixes is
viable.  These predicates are the building blocks of both forms of the
pigeonring principle and of the candidate-generation step of every searcher in
this repository.

All helpers in this module accept plain Python sequences of numbers (ints or
floats).  They are deliberately free of numpy so they stay usable for the
tiny per-candidate checks performed inside search loops.

Every predicate compares a running box sum against ``l * quota_per_box``.
With a float quota that product rounds (``7 * (61 / 7) < 61``), so for integer
boxes and ``n`` pass the quota as a :class:`fractions.Fraction` --
:func:`repro.core.principle.pigeonhole_bound` returns one -- and every
comparison below is decided exactly: Python compares an (exactly summed)
integer-valued total with a ``Fraction`` without rounding either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

#: A per-box quota: a ``Fraction`` decides viability exactly, a float may round.
Quota = float | Fraction


def chain_sum(boxes: Sequence[float], start: int, length: int) -> float:
    """Return ``||c_start^length||_1``, the sum of ``length`` consecutive boxes.

    Indices wrap around the ring: ``chain_sum(b, m - 1, 2) == b[m-1] + b[0]``.

    Args:
        boxes: the ring of box values ``b_0, ..., b_{m-1}``.
        start: starting index ``i`` (taken modulo ``m``).
        length: chain length ``l``; must satisfy ``0 <= l <= m``.

    Raises:
        ValueError: if ``length`` is negative or exceeds the number of boxes.
    """
    m = len(boxes)
    if m == 0:
        raise ValueError("chain_sum requires a non-empty ring of boxes")
    if not 0 <= length <= m:
        raise ValueError(f"chain length must be in [0, {m}], got {length}")
    start %= m
    total = 0.0
    for offset in range(length):
        total += boxes[(start + offset) % m]
    return total


def prefix_sums(boxes: Sequence[float], start: int, length: int) -> list[float]:
    """Return the sums of the 1-, 2-, ..., ``length``-prefixes of ``c_start^length``."""
    m = len(boxes)
    if m == 0:
        raise ValueError("prefix_sums requires a non-empty ring of boxes")
    if not 0 <= length <= m:
        raise ValueError(f"chain length must be in [0, {m}], got {length}")
    start %= m
    sums: list[float] = []
    running = 0.0
    for offset in range(length):
        running += boxes[(start + offset) % m]
        sums.append(running)
    return sums


@dataclass(frozen=True)
class Chain:
    """A chain ``c_i^l`` over a ring of ``m`` boxes.

    The chain stores only its coordinates (``start``, ``length``, ``m``); box
    values are supplied when sums are evaluated.  This mirrors how the search
    algorithms use chains: coordinates are enumerated cheaply, box values are
    computed lazily and only as far as the incremental viability check needs.
    """

    start: int
    length: int
    m: int

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("a chain needs a positive ring size m")
        if not 0 <= self.length <= self.m:
            raise ValueError(f"chain length must be in [0, {self.m}], got {self.length}")
        object.__setattr__(self, "start", self.start % self.m)

    @property
    def indices(self) -> tuple[int, ...]:
        """The box indices covered by the chain, in clockwise order."""
        return tuple((self.start + offset) % self.m for offset in range(self.length))

    @property
    def is_complete(self) -> bool:
        """True when the chain covers every box exactly once (``l == m``)."""
        return self.length == self.m

    def sum(self, boxes: Sequence[float]) -> float:
        """``||c_i^l||_1`` for the supplied box values."""
        if len(boxes) != self.m:
            raise ValueError(f"expected {self.m} boxes, got {len(boxes)}")
        return chain_sum(boxes, self.start, self.length)

    def prefix(self, length: int) -> "Chain":
        """The ``length``-prefix ``c_i^{length}`` of this chain."""
        if not 0 <= length <= self.length:
            raise ValueError(f"prefix length must be in [0, {self.length}], got {length}")
        return Chain(self.start, length, self.m)

    def suffix(self, length: int) -> "Chain":
        """The ``length``-suffix ``c_{i+l-length}^{length}`` of this chain."""
        if not 0 <= length <= self.length:
            raise ValueError(f"suffix length must be in [0, {self.length}], got {length}")
        return Chain(self.start + self.length - length, length, self.m)

    def subchains(self) -> Iterator["Chain"]:
        """Yield every non-empty subchain ``c_j^{l'}`` with ``j >= i`` and ``j + l' <= i + l``."""
        for offset in range(self.length):
            for sub_len in range(1, self.length - offset + 1):
                yield Chain(self.start + offset, sub_len, self.m)

    def concatenate(self, other: "Chain") -> "Chain":
        """Concatenate with a contiguous chain starting where this one ends.

        Mirrors Lemma 2: the result covers ``l + l'`` boxes.  Raises if the
        chains are not contiguous or the result would exceed ``m`` boxes.
        """
        if other.m != self.m:
            raise ValueError("cannot concatenate chains over different rings")
        expected_start = (self.start + self.length) % self.m
        if other.start != expected_start:
            raise ValueError(
                f"chains are not contiguous: expected start {expected_start}, got {other.start}"
            )
        return Chain(self.start, self.length + other.length, self.m)


class Ring:
    """A ring of concrete box values with chain-viability queries.

    ``Ring`` is the convenience object used by the examples, the analysis
    module and the tests.  The hot search loops in the substrate packages do
    not build ``Ring`` objects; they use the free functions in this module (or
    inline the incremental check) to avoid per-candidate allocations.
    """

    def __init__(self, boxes: Sequence[float]):
        if len(boxes) == 0:
            raise ValueError("a ring needs at least one box")
        self._boxes = tuple(float(b) for b in boxes)

    @property
    def boxes(self) -> tuple[float, ...]:
        return self._boxes

    @property
    def m(self) -> int:
        return len(self._boxes)

    @property
    def total(self) -> float:
        """``||B||_1``, the sum of all boxes."""
        return sum(self._boxes)

    def chain(self, start: int, length: int) -> Chain:
        return Chain(start, length, self.m)

    def chains(self, length: int | None = None) -> Iterator[Chain]:
        """Yield every chain in ``C_B`` (optionally restricted to one length)."""
        lengths = range(1, self.m + 1) if length is None else (length,)
        for chain_length in lengths:
            for start in range(self.m):
                yield Chain(start, chain_length, self.m)

    def chain_sum(self, start: int, length: int) -> float:
        return chain_sum(self._boxes, start, length)

    def is_viable(self, start: int, length: int, quota_per_box: Quota) -> bool:
        return is_viable(self._boxes, start, length, quota_per_box)

    def is_prefix_viable(self, start: int, length: int, quota_per_box: Quota) -> bool:
        return is_prefix_viable(self._boxes, start, length, quota_per_box)

    def is_suffix_viable(self, start: int, length: int, quota_per_box: Quota) -> bool:
        return is_suffix_viable(self._boxes, start, length, quota_per_box)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Ring({list(self._boxes)!r})"


def is_viable(
    boxes: Sequence[float], start: int, length: int, quota_per_box: Quota
) -> bool:
    """True when ``||c_start^length||_1 <= length * quota_per_box``.

    ``quota_per_box`` is ``n / m`` in the uniform setting of Theorems 2 and 3
    (``Fraction(n, m)`` to decide the comparison exactly, see the module
    docstring).  Empty chains (``length == 0``) are viable by convention (their sum is 0).
    """
    return chain_sum(boxes, start, length) <= length * quota_per_box


def is_prefix_viable(
    boxes: Sequence[float], start: int, length: int, quota_per_box: Quota
) -> bool:
    """True when every prefix ``c_start^{l'}``, ``l' in [1..length]``, is viable."""
    m = len(boxes)
    if m == 0:
        raise ValueError("is_prefix_viable requires a non-empty ring of boxes")
    if not 0 <= length <= m:
        raise ValueError(f"chain length must be in [0, {m}], got {length}")
    start %= m
    running = 0.0
    for offset in range(length):
        running += boxes[(start + offset) % m]
        if running > (offset + 1) * quota_per_box:
            return False
    return True


def is_suffix_viable(
    boxes: Sequence[float], start: int, length: int, quota_per_box: Quota
) -> bool:
    """True when every suffix of ``c_start^length`` is viable.

    The ``l'``-suffix of ``c_i^l`` is ``c_{i+l-l'}^{l'}``; walking the chain
    backwards from its last box and accumulating gives each suffix sum once.
    """
    m = len(boxes)
    if m == 0:
        raise ValueError("is_suffix_viable requires a non-empty ring of boxes")
    if not 0 <= length <= m:
        raise ValueError(f"chain length must be in [0, {m}], got {length}")
    start %= m
    running = 0.0
    for back in range(length):
        running += boxes[(start + length - 1 - back) % m]
        if running > (back + 1) * quota_per_box:
            return False
    return True


def prefix_viable_lengths(
    boxes: Sequence[float], start: int, quota_per_box: Quota, max_length: int | None = None
) -> int:
    """Return the largest ``l`` such that ``c_start^l`` is prefix-viable.

    Returns 0 when even the single box at ``start`` is non-viable.  This is
    the incremental check used by the second step of candidate generation:
    walking clockwise from a viable box and stopping at the first prefix-sum
    violation.
    """
    m = len(boxes)
    if m == 0:
        raise ValueError("prefix_viable_lengths requires a non-empty ring of boxes")
    limit = m if max_length is None else min(max_length, m)
    start %= m
    running = 0.0
    longest = 0
    for offset in range(limit):
        running += boxes[(start + offset) % m]
        if running > (offset + 1) * quota_per_box:
            break
        longest = offset + 1
    return longest


def first_prefix_violation(
    boxes: Sequence[float], start: int, quota_per_box: Quota, length: int
) -> int | None:
    """Return the smallest prefix length at which ``c_start^length`` stops being viable.

    Returns ``None`` when the chain is prefix-viable up to ``length``.  The
    returned value feeds the Corollary-2 skip optimisation: if the check fails
    at length ``l'`` then no chain starting at any position in
    ``[start .. start + l' - 1]`` can be prefix-viable either.
    """
    m = len(boxes)
    if m == 0:
        raise ValueError("first_prefix_violation requires a non-empty ring of boxes")
    if not 0 <= length <= m:
        raise ValueError(f"chain length must be in [0, {m}], got {length}")
    start %= m
    running = 0.0
    for offset in range(length):
        running += boxes[(start + offset) % m]
        if running > (offset + 1) * quota_per_box:
            return offset + 1
    return None
