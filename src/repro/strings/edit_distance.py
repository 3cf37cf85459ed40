"""Edit distance computations.

:func:`edit_distance_within` is the banded (Ukkonen) dynamic program: when
only the predicate ``ed(x, q) <= tau`` matters, cells farther than ``tau``
from the diagonal cannot contribute and the computation is
``O(tau * min(|x|, |q|))``.  It is the linear scan's independent oracle and
the matcher's fallback for queries longer than one machine word.

Both entry points first strip the common prefix and suffix of the two
strings -- edit distance is invariant under removing shared affixes, and
near-duplicate workloads (the only ones that survive the filters) share
long affixes -- and run the dynamic program over reused row buffers instead
of allocating a fresh row per iteration.

:class:`QueryMatcher` serves the batched case -- one query verified against
many candidate texts.  :meth:`QueryMatcher.indexes_within` first rules out
texts in bulk, with the length filter and the q-gram count bound evaluated
over the concatenated code points in one numpy pass, and then decides each
survivor exactly with Myers' bit-parallel algorithm: the query's
per-character bit masks are built once, after which each text costs
``O(len(text))`` word operations instead of a full dynamic program.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.scratch import sorted_member_mask

#: Bits per code point in a q-gram key (Unicode ends at U+10FFFF).
_CODE_BITS = np.uint64(21)


def _code_points(texts: Sequence[str]) -> np.ndarray:
    """The code points of the concatenated texts (lone surrogates included)."""
    joined = "".join(texts).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(joined, dtype="<u4").astype(np.uint64)


def _gram_keys(codes: np.ndarray, kappa: int) -> np.ndarray:
    """Key of the ``kappa``-gram starting at each position ``0..len - kappa``.

    The gram's code points are shifted into one ``uint64``, 21 bits each.
    From ``kappa = 4`` on the shifts wrap, so the key is a hash: equal grams
    always share a key, and a collision can only overcount shared grams.
    """
    count = codes.size - kappa + 1
    if count <= 0:
        return np.empty(0, dtype=np.uint64)
    keys = codes[:count].copy()
    for offset in range(1, kappa):
        keys <<= _CODE_BITS
        keys |= codes[offset : offset + count]
    return keys


def _trim_affixes(x: str, y: str) -> tuple[str, str]:
    """Strip the common prefix and suffix; ``ed`` is invariant under both."""
    len_x, len_y = len(x), len(y)
    limit = min(len_x, len_y)
    prefix = 0
    while prefix < limit and x[prefix] == y[prefix]:
        prefix += 1
    suffix = 0
    limit -= prefix
    while suffix < limit and x[len_x - 1 - suffix] == y[len_y - 1 - suffix]:
        suffix += 1
    return x[prefix : len_x - suffix], y[prefix : len_y - suffix]


def edit_distance(x: str, y: str) -> int:
    """Exact Levenshtein distance (full dynamic program)."""
    if x == y:
        return 0
    x, y = _trim_affixes(x, y)
    if not x:
        return len(y)
    if not y:
        return len(x)
    # One reused row: ``row[j]`` holds the previous row's value until the
    # sweep overwrites it; ``diagonal`` carries the value the overwrite
    # destroyed (the previous row's ``j - 1`` cell).  A matching character
    # pair always copies the diagonal (adjacent DP cells differ by at most
    # one, so the diagonal can never lose).
    row = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        diagonal = row[0]
        row[0] = i
        for j, cy in enumerate(y, start=1):
            above = row[j]
            row[j] = diagonal if cx == cy else 1 + min(above, row[j - 1], diagonal)
            diagonal = above
    return row[-1]


class QueryMatcher:
    """Bit-parallel edit distances from one fixed query to many texts.

    Myers' algorithm [Myers 1999] encodes a column of the dynamic program in
    two machine words (the +1 and -1 deltas); one pass over a text costs a
    dozen word operations per character.  The per-character query masks are
    built once, so verifying a candidate batch against one query is far
    cheaper than running the banded DP per pair.  Queries longer than 64
    characters fall back to the banded DP (multi-word Myers is not worth the
    complexity at this repository's string lengths).
    """

    _WORD = 64

    def __init__(self, query: str):
        self._query = query
        self._m = len(query)
        self._bit_parallel = 0 < self._m <= self._WORD
        if self._bit_parallel:
            masks: dict[str, int] = {}
            for index, char in enumerate(query):
                masks[char] = masks.get(char, 0) | (1 << index)
            self._masks = masks
            self._high = 1 << (self._m - 1)
            self._full = (1 << self._m) - 1

    def _scan(self, text: str, tau: int | None) -> int | None:
        """Myers score of one text; ``None`` when the early exit proves it
        must exceed ``tau`` (the score drops by at most one per remaining
        character).  ``tau=None`` disables the exit."""
        masks = self._masks
        high = self._high
        full = self._full
        pv = full
        mv = 0
        score = self._m
        remaining = len(text)
        for char in text:
            eq = masks.get(char, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & full)
            mh = pv & xh
            if ph & high:
                score += 1
            elif mh & high:
                score -= 1
            if tau is not None:
                remaining -= 1
                if score - remaining > tau:
                    return None
            ph = ((ph << 1) | 1) & full
            mh = (mh << 1) & full
            pv = (mh | (~(xv | ph) & full)) & full
            mv = ph & xv
        return score

    def distance(self, text: str) -> int:
        """Exact ``ed(query, text)``."""
        if not self._bit_parallel:
            return edit_distance(self._query, text)
        if not text:
            return self._m
        return self._scan(text, None)

    def within(self, text: str, tau: int) -> bool:
        """Whether ``ed(query, text) <= tau``; exits early when hopeless."""
        if tau < 0:
            return False
        if abs(self._m - len(text)) > tau:
            return False
        if not self._bit_parallel:
            return edit_distance_within(self._query, text, tau)
        if not text:
            return self._m <= tau
        score = self._scan(text, tau)
        return score is not None and score <= tau

    def indexes_within(self, texts: Sequence[str], tau: int, kappa: int) -> list[int]:
        """The indexes (ascending) of the texts with ``ed(query, text) <= tau``.

        Two necessary conditions run over the whole batch at once: the
        length filter ``| |x| - |q| | <= tau``, and the q-gram count bound --
        ``ed(x, q) <= tau`` implies ``x`` and ``q`` share at least
        ``max(|x|, |q|) - kappa + 1 - kappa * tau`` ``kappa``-grams, counted
        here as the positions of ``x`` whose gram occurs in ``q`` (never fewer
        than the multiset intersection).  :meth:`within` decides every
        survivor exactly.
        """
        if tau < 0 or not texts:
            return []
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        keep = np.abs(lengths - self._m) <= tau
        need = np.maximum(lengths, self._m) - (kappa - 1 + kappa * tau)
        if (need[keep] > 0).any():
            keep &= self._shared_grams(texts, lengths, kappa) >= need
        return [index for index in np.flatnonzero(keep).tolist() if self.within(texts[index], tau)]

    def _shared_grams(self, texts: Sequence[str], lengths: np.ndarray, kappa: int) -> np.ndarray:
        """Per text, how many of its ``kappa``-gram positions hold a gram (by
        key) of the query; grams crossing a text boundary do not count."""
        query_keys = np.unique(_gram_keys(_code_points([self._query]), kappa))
        keys = _gram_keys(_code_points(texts), kappa)
        positions = np.flatnonzero(sorted_member_mask(query_keys, keys))
        ends = np.cumsum(lengths)
        owners = np.searchsorted(ends, positions, side="right")
        inside = positions + kappa <= ends[owners]
        return np.bincount(owners[inside], minlength=lengths.size)


def edit_distance_within(x: str, y: str, tau: int) -> bool:
    """Whether ``ed(x, y) <= tau`` using the banded dynamic program."""
    if tau < 0:
        return False
    if x == y:
        return True
    len_x, len_y = len(x), len(y)
    if abs(len_x - len_y) > tau:
        return False
    x, y = _trim_affixes(x, y)
    len_x, len_y = len(x), len(y)
    if len_x == 0 or len_y == 0:
        return max(len_x, len_y) <= tau
    # Ensure x is the shorter string so the band is over the longer one.
    if len_x > len_y:
        x, y = y, x
        len_x, len_y = len_y, len_x
    big = tau + 1
    # Two reused rows.  Cells outside the band must read as ``big``; the
    # band's left edge only moves right, so the cell just left of the band is
    # reset each row, and a sentinel just right of the band covers the next
    # row's widest read (its right edge advances by at most one).
    previous = [j if j <= tau else big for j in range(len_y + 1)]
    current = [big] * (len_y + 1)
    for i in range(1, len_x + 1):
        low = max(1, i - tau)
        high = min(len_y, i + tau)
        current[low - 1] = i if low == 1 and i <= tau else big
        cx = x[i - 1]
        row_min = big
        for j in range(low, high + 1):
            value = (
                previous[j - 1]
                if cx == y[j - 1]
                else 1 + min(previous[j], current[j - 1], previous[j - 1])
            )
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > tau:
            return False
        if high + 1 <= len_y:
            current[high + 1] = big
        previous, current = current, previous
    return previous[len_y] <= tau
