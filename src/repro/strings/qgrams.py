"""Positional q-grams, global gram ordering, and the content-based filter.

A positional q-gram of a string ``x`` is a pair ``(gram, position)`` where
``gram = x[position : position + kappa]``.  Prefixes sort a string's grams by
a global (increasing document frequency) order; pivotal grams are
position-disjoint grams picked greedily from the prefix.

The order is learned on arrays: a collection is held as its code points
(:func:`code_points`), and one sort of every gram's code points, packed
into a ``uint64`` (or, when they do not fit, the unique rows of a
``(grams, kappa)`` code-point view) gives the frequencies and every gram
position's rank (:meth:`QGramExtractor.fit_rank`).  The per-query methods work on
:class:`PositionalGram` lists and look ranks up in a dict over the distinct
grams.

The content-based filter of [114] maps a (sub)string to a bit mask with one
bit per symbol that occurs in it; ``ed(x, y) <= t`` implies the masks differ
in at most ``2 t`` bits, so ``ceil(popcount(mask_x XOR mask_y) / 2)`` is a
lower bound of the edit distance used by the Ring box evaluation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Bits per code point in an unseen gram's rank offset (Unicode ends at
#: U+10FFFF); three fit in 64 bits, a fourth would wrap.
_CODE_BITS = 21
_MAX_PACKED = 3


@dataclass(frozen=True)
class PositionalGram:
    """A q-gram together with its starting position in the source string."""

    gram: str
    position: int


def positional_qgrams(text: str, kappa: int) -> list[PositionalGram]:
    """All positional ``kappa``-grams of ``text`` (empty for short strings)."""
    if kappa <= 0:
        raise ValueError("the q-gram length kappa must be positive")
    return [
        PositionalGram(text[i : i + kappa], i) for i in range(len(text) - kappa + 1)
    ]


def character_mask(text: str) -> int:
    """Bit mask with one bit per distinct character of ``text``."""
    mask = 0
    for char in text:
        mask |= 1 << (ord(char) % 64)
    return mask


def content_lower_bound(mask_a: int, mask_b: int) -> int:
    """``ceil(H(mask_a, mask_b) / 2)`` -- a lower bound on the edit distance."""
    return ((mask_a ^ mask_b).bit_count() + 1) // 2


def code_points(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The texts' code points concatenated (``uint32``, lone surrogates
    included) and the ``int64`` offsets: text ``i`` is
    ``codes[offsets[i]:offsets[i + 1]]``."""
    joined = "".join(texts).encode("utf-32-le", "surrogatepass")
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)), out=offsets[1:])
    return np.frombuffer(joined, dtype="<u4"), offsets


def decode_code_points(codes: np.ndarray) -> str:
    """The string whose code points are ``codes`` (inverse of :func:`code_points`)."""
    return codes.astype("<u4", copy=False).tobytes().decode("utf-32-le", "surrogatepass")


def _gram_starts(offsets: np.ndarray, kappa: int) -> np.ndarray:
    """Where every record's grams start in the concatenated code points,
    record by record (``max(0, length - kappa + 1)`` each)."""
    counts = np.maximum(np.diff(offsets) - (kappa - 1), 0)
    gram_offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=gram_offsets[1:])
    shift = np.repeat(offsets[:-1] - gram_offsets[:-1], counts)
    return np.arange(int(gram_offsets[-1]), dtype=np.int64) + shift


def _distinct_grams(
    codes: np.ndarray, starts: np.ndarray, kappa: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``kappa``-grams starting at ``starts``, as ``np.unique``
    would give them: code-point rows sorted like the grams as strings, each
    gram's row, and each row's count.

    A gram's code points go into fixed-width fields of one ``uint64``, the
    first most significant, so keys sort like the grams; the gram's index
    fills the low bits, so one plain sort both groups equal grams and says
    where each came from (``np.unique``'s inverse costs an ``argsort``,
    several times a plain sort).  Grams too wide for that take unique rows
    of a ``(grams, kappa)`` code-point view.
    """
    width = int(codes.max(initial=0)).bit_length()
    index_bits = int(starts.size).bit_length()
    if kappa * width + index_bits > 64:
        windows = np.lib.stride_tricks.sliding_window_view(
            codes if codes.size >= kappa else np.zeros(kappa, dtype=codes.dtype), kappa
        )
        table, inverse, frequency = np.unique(
            windows[starts], axis=0, return_inverse=True, return_counts=True
        )
        return table, inverse.reshape(-1), frequency
    count = max(codes.size - kappa + 1, 0)
    keys = codes[:count].astype(np.uint64)
    for offset in range(1, kappa):
        keys <<= np.uint64(width)
        keys |= codes[offset : offset + count]
    keys = keys[starts]
    keys <<= np.uint64(index_bits)
    keys |= np.arange(starts.size, dtype=np.uint64)
    keys.sort()
    grams = keys >> np.uint64(index_bits)
    first = np.ones(grams.size, dtype=bool)
    np.not_equal(grams[1:], grams[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    shifts = np.arange(kappa - 1, -1, -1, dtype=np.uint64) * np.uint64(width)
    table = (grams[heads, np.newaxis] >> shifts) & np.uint64((1 << width) - 1)
    del grams
    # In place where possible: fresh pages cost more than the arithmetic.
    keys &= np.uint64((1 << index_bits) - 1)
    group = np.cumsum(first)
    group -= 1
    inverse = np.empty(starts.size, dtype=np.int64)
    inverse[keys.view(np.int64)] = group
    return table, inverse, np.diff(heads, append=starts.size)


class QGramExtractor:
    """Extracts prefixes and pivotal grams under a global gram order.

    The order is increasing frequency (occurrences over every positional
    gram of the collection), ties broken by the gram as a string.

    Args:
        kappa: q-gram length.
        records: the string collection used to learn gram frequencies.
    """

    def __init__(self, kappa: int, records: Iterable[str]):
        self._fit(kappa, *code_points(list(records)))

    @classmethod
    def fit_rank(
        cls, kappa: int, codes: np.ndarray, offsets: np.ndarray
    ) -> tuple["QGramExtractor", np.ndarray]:
        """The order learned from a collection held as code points
        (:func:`code_points`), plus the ``int32`` rank of every gram
        position, record by record: record ``i`` has
        ``max(0, length - kappa + 1)`` of them."""
        extractor = cls.__new__(cls)
        return extractor, extractor._fit(kappa, codes, offsets)

    def _fit(self, kappa: int, codes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        if kappa <= 0:
            raise ValueError("the q-gram length kappa must be positive")
        self._kappa = kappa
        table, inverse, frequency = _distinct_grams(codes, _gram_starts(offsets, kappa), kappa)
        # Rarest first; ties by gram, the order of ``table``.
        by_rank = np.argsort(frequency, kind="stable")
        rank_of = np.empty(by_rank.size, dtype=np.int32)
        rank_of[by_rank] = np.arange(by_rank.size, dtype=np.int32)
        text = decode_code_points(table[by_rank].ravel())
        grams = (text[start : start + kappa] for start in range(0, len(text), kappa))
        self._rank = {gram: rank for rank, gram in enumerate(grams)}
        self._unknown_base = by_rank.size
        return rank_of[inverse]

    def extended(
        self, codes: np.ndarray, offsets: np.ndarray
    ) -> tuple["QGramExtractor", np.ndarray]:
        """This order, with the grams of more records (held as code points)
        that it has not seen ranked next, densely, in gram order; plus the
        ``int32`` rank of every gram position of those records.

        Known grams keep their ranks, so a record's prefix and pivotal grams
        do not move, and the base rank of unseen query grams moves past the
        new ones.  This extractor is left as it was: a new one is returned
        when the records bring unseen grams.
        """
        table, inverse, _ = _distinct_grams(codes, _gram_starts(offsets, self._kappa), self._kappa)
        text = decode_code_points(table.ravel())
        kappa = self._kappa
        grams = [text[start : start + kappa] for start in range(0, len(text), kappa)]
        ranks = np.fromiter((self._rank.get(gram, -1) for gram in grams), np.int64, len(grams))
        unseen = np.flatnonzero(ranks < 0)
        extractor = self
        if unseen.size:
            ranks[unseen] = np.arange(self._unknown_base, self._unknown_base + unseen.size)
            if ranks[unseen[-1]] > np.iinfo(np.int32).max:
                raise ValueError("too many distinct grams for int32 ranks")
            extractor = QGramExtractor.__new__(QGramExtractor)
            extractor._kappa = kappa
            extractor._rank = dict(self._rank)
            extractor._rank.update((grams[at], int(ranks[at])) for at in unseen.tolist())
            extractor._unknown_base = self._unknown_base + unseen.size
        return extractor, ranks.astype(np.int32)[inverse]

    @property
    def kappa(self) -> int:
        return self._kappa

    def rank(self, gram: str) -> int:
        """Global rank of a gram.

        Unseen grams rank after all known grams, at an offset computed from
        their code points alone -- the packed key, or a fixed digest from
        ``kappa = 4`` on -- so every process orders them alike.
        """
        rank = self._rank.get(gram)
        if rank is not None:
            return rank
        if self._kappa <= _MAX_PACKED:
            key = 0
            for char in gram:
                key = (key << _CODE_BITS) | ord(char)
        else:
            digest = hashlib.blake2b(gram.encode("utf-32-le", "surrogatepass"), digest_size=7)
            key = int.from_bytes(digest.digest(), "little")
        return self._unknown_base + key

    def sorted_grams(self, text: str) -> list[PositionalGram]:
        """The string's positional grams sorted by the global order."""
        grams = positional_qgrams(text, self._kappa)
        return sorted(grams, key=lambda g: (self.rank(g.gram), g.position))

    def prefix(self, text: str, tau: int) -> list[PositionalGram]:
        """The first ``kappa * tau + 1`` grams by global order."""
        if tau < 0:
            raise ValueError("tau must be non-negative")
        return self.sorted_grams(text)[: self._kappa * tau + 1]

    def pivotal(self, prefix: Sequence[PositionalGram], tau: int) -> list[PositionalGram] | None:
        """``tau + 1`` position-disjoint grams selected greedily from the prefix.

        Returns ``None`` when fewer than ``tau + 1`` disjoint grams exist,
        which happens for strings too short for the (kappa, tau) combination;
        callers must then treat the string conservatively.
        """
        chosen: list[PositionalGram] = []
        for gram in sorted(prefix, key=lambda g: g.position):
            if all(abs(gram.position - other.position) >= self._kappa for other in chosen):
                chosen.append(gram)
        if len(chosen) < tau + 1:
            return None
        # Keep the tau + 1 rarest of the disjoint grams, in position order.
        chosen.sort(key=lambda g: self.rank(g.gram))
        selected = chosen[: tau + 1]
        selected.sort(key=lambda g: g.position)
        return selected

    def last_prefix_rank(self, prefix: Sequence[PositionalGram]) -> int:
        """Rank of the last (most frequent) gram of a prefix."""
        if not prefix:
            return -1
        return max(self.rank(gram.gram) for gram in prefix)
