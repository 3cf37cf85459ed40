"""The pigeonhole principle and the pigeonring principle.

This module provides direct, constructive statements of:

* Theorem 1 (pigeonhole principle): if ``||B||_1 <= n`` then some box satisfies
  ``b_i <= n / m``.
* Theorem 2 (pigeonring principle, basic form): if ``||B||_1 <= n`` then for
  every chain length ``l`` some chain ``c_i^l`` satisfies
  ``||c_i^l||_1 <= l * n / m``.
* Theorem 3 (pigeonring principle, strong form): if ``||B||_1 <= n`` then for
  every ``l`` some chain ``c_i^l`` is *prefix-viable* (every prefix satisfies
  its quota).
* Corollary 1 (viable and non-viable, prefix and suffix variants).
* Corollary 2 (concatenating same-type chains preserves the type).

Each theorem is exposed two ways:

``*_witnesses``
    Return the starting indices of all chains that satisfy the respective
    condition.  These are the constructive counterparts used by the tests and
    by :mod:`repro.core.geometry`.

``passes_*``
    Return whether at least one witness exists, i.e. whether a data object
    whose boxes are ``B`` survives the corresponding filter.  These are the
    filtering conditions used throughout the paper: a data object is a
    candidate only if it passes.

The filters here use the *uniform* quota ``n / m``.  Variable threshold
allocation and integer reduction (Theorems 4-7) live in
:mod:`repro.core.thresholds`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.core.chains import (
    chain_sum,
    is_prefix_viable,
    is_suffix_viable,
    is_viable,
)


def pigeonhole_bound(n: float, m: int) -> Fraction:
    """The per-box quota ``n / m`` guaranteed by Theorem 1, as an exact rational.

    A float quota rounds: ``7 * (61 / 7) < 61``, so a layout whose total is
    exactly ``n`` would fail its own complete chain.  Every filter in this
    module compares box sums against multiples of this ``Fraction`` instead,
    which decides ``||c||_1 <= l * n / m`` exactly (it equals the float
    ``n / m`` wherever that is exact: ``pigeonhole_bound(7, 2) == 3.5``).
    """
    if m <= 0:
        raise ValueError("the number of boxes m must be positive")
    return Fraction(n) / m


def pigeonhole_witnesses(boxes: Sequence[float], n: float) -> list[int]:
    """Indices ``i`` with ``b_i <= n / m`` (the witnesses of Theorem 1)."""
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    return [i for i, value in enumerate(boxes) if value <= quota]


def passes_pigeonhole(boxes: Sequence[float], n: float) -> bool:
    """Filtering condition of Theorem 1: some box is within the quota ``n / m``.

    Theorem 1 guarantees every ``B`` with ``||B||_1 <= n`` passes; layouts with
    a larger sum may pass too (false positives), which is exactly the weakness
    the pigeonring principle addresses.
    """
    return bool(pigeonhole_witnesses(boxes, n))


def pigeonring_basic_witnesses(
    boxes: Sequence[float], n: float, length: int
) -> list[int]:
    """Starting indices of chains of ``length`` with ``||c_i^l||_1 <= l * n / m``."""
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    if not 1 <= length <= m:
        raise ValueError(f"chain length must be in [1, {m}], got {length}")
    return [i for i in range(m) if is_viable(boxes, i, length, quota)]


def passes_pigeonring_basic(boxes: Sequence[float], n: float, length: int) -> bool:
    """Filtering condition of Theorem 2 for a single chain length."""
    return bool(pigeonring_basic_witnesses(boxes, n, length))


def pigeonring_strong_witnesses(
    boxes: Sequence[float], n: float, length: int
) -> list[int]:
    """Starting indices of prefix-viable chains of ``length`` (Theorem 3 witnesses)."""
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    if not 1 <= length <= m:
        raise ValueError(f"chain length must be in [1, {m}], got {length}")
    return [i for i in range(m) if is_prefix_viable(boxes, i, length, quota)]


def passes_pigeonring_strong(boxes: Sequence[float], n: float, length: int) -> bool:
    """Filtering condition of Theorem 3: some chain of ``length`` is prefix-viable."""
    return bool(pigeonring_strong_witnesses(boxes, n, length))


def passes_pigeonring(
    boxes: Sequence[float], n: float, length: int, strong: bool = True
) -> bool:
    """Filtering condition of the pigeonring principle.

    With ``strong=True`` (the default and the form the paper means when the
    context is clear) the strong form of Theorem 3 is applied; otherwise the
    basic form of Theorem 2.  ``length == 1`` reduces both to the pigeonhole
    principle.
    """
    if strong:
        return passes_pigeonring_strong(boxes, n, length)
    return passes_pigeonring_basic(boxes, n, length)


def suffix_viable_witnesses(boxes: Sequence[float], n: float, length: int) -> list[int]:
    """Starting indices of suffix-viable chains of ``length`` (Corollary 1, viable case)."""
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    if not 1 <= length <= m:
        raise ValueError(f"chain length must be in [1, {m}], got {length}")
    return [i for i in range(m) if is_suffix_viable(boxes, i, length, quota)]


def prefix_nonviable_witnesses(
    boxes: Sequence[float], n: float, length: int
) -> list[int]:
    """Starting indices of prefix-non-viable chains (Corollary 1, ``||B||_1 > n`` case).

    A chain is prefix-non-viable when *every* prefix violates its quota
    (``||c_i^{l'}||_1 > l' * n / m`` for all ``l'``).
    """
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    if not 1 <= length <= m:
        raise ValueError(f"chain length must be in [1, {m}], got {length}")
    witnesses = []
    for i in range(m):
        running = 0.0
        all_violate = True
        for offset in range(length):
            running += boxes[(i + offset) % m]
            if running <= (offset + 1) * quota:
                all_violate = False
                break
        if all_violate:
            witnesses.append(i)
    return witnesses


def suffix_nonviable_witnesses(
    boxes: Sequence[float], n: float, length: int
) -> list[int]:
    """Starting indices of suffix-non-viable chains (every suffix violates its quota)."""
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    if not 1 <= length <= m:
        raise ValueError(f"chain length must be in [1, {m}], got {length}")
    witnesses = []
    for i in range(m):
        running = 0.0
        all_violate = True
        for back in range(length):
            running += boxes[(i + length - 1 - back) % m]
            if running <= (back + 1) * quota:
                all_violate = False
                break
        if all_violate:
            witnesses.append(i)
    return witnesses


def candidate_subset_holds(
    boxes: Sequence[float], n: float, max_length: int | None = None
) -> bool:
    """Check Lemmas 1 and 4 on one box layout.

    The candidates produced with chain length ``l`` (strong form) must be a
    subset of those produced with length ``l - 1`` and of those produced by
    the pigeonhole principle.  Expressed per object: if a layout passes the
    filter at length ``l`` it must also pass at every shorter length.  Returns
    ``True`` when the monotonicity holds for this layout, which the property
    tests assert over random layouts.
    """
    m = len(boxes)
    limit = m if max_length is None else min(max_length, m)
    passed_shorter = True
    for length in range(1, limit + 1):
        passes = passes_pigeonring_strong(boxes, n, length)
        if passes and not passed_shorter:
            return False
        passed_shorter = passes
    return True


def complete_chain_sum(boxes: Sequence[float]) -> float:
    """``||c_i^m||_1``, which equals ``||B||_1`` for every start ``i``."""
    return chain_sum(boxes, 0, len(boxes))
