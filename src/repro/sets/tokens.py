"""Global token ordering, token classes and the raw-record arrays.

Prefix-filter methods sort the tokens of every record by a *global order*,
conventionally increasing document frequency, so prefixes consist of the
rarest (most selective) tokens.  pkwise additionally partitions the token
universe into ``m - 1`` disjoint *classes*; the class of a token is a property
of the universe, not of a record.

Tokens are re-encoded as their rank in the global order (rank 0 = rarest), so
records become sorted integer arrays and all downstream computations work on
ranks.  Classes are assigned round-robin along the global order
(``class = rank % (m - 1) + 1``), which spreads every frequency band evenly
over the classes; the pkwise paper leaves the class construction free and this
deterministic choice keeps prefixes of the different classes comparably
selective.

A token is an integer that fits in 64 signed bits: the collection is held as
flat integer arrays (:class:`TokenRecords`), and the order is learned from
them with a few sorts instead of a per-record loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import Iterable

import numpy as np

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_NOT_INTEGER = "sets tokens must be integers, got {}"
_OUT_OF_RANGE = f"sets tokens must lie in [{_INT64_MIN}, {_INT64_MAX}]"
#: Token ranges up to twice the token count plus this take the table path
#: of :func:`_dense_ids`; it covers every ``int16`` range.
_TABLE_SLACK = 1 << 16


def _check_kinds(kinds: Iterable[type]) -> None:
    """Refuse every token type but ``int`` and numpy integers (bools too)."""
    for kind in kinds:
        if kind is bool or not issubclass(kind, (int, np.integer)):
            raise ValueError(_NOT_INTEGER.format(kind.__name__))


def check_tokens(values: Iterable) -> list[int]:
    """One record's tokens as plain ints; ``ValueError`` unless every token
    is an integer within ``int64``."""
    try:
        tokens = list(values)
    except TypeError:
        raise ValueError("a sets record must be an iterable of integer tokens") from None
    kinds = set(map(type, tokens))
    if not kinds <= {int}:  # queries run this: plain ints take no further pass
        _check_kinds(kinds)
        tokens = list(map(int, tokens))
    if tokens and (min(tokens) < _INT64_MIN or max(tokens) > _INT64_MAX):
        raise ValueError(_OUT_OF_RANGE)
    return tokens


class TokenRecords(Sequence):
    """Raw token records in CSR form: record ``i`` is
    ``tokens[offsets[i]:offsets[i + 1]]``, as supplied (order and duplicates
    kept).  Indexing materialises one record as a list of ints; a contiguous
    slice is another :class:`TokenRecords`.

    :meth:`of` stores the tokens in the narrowest of ``int16`` / ``int32`` /
    ``int64`` that holds them all: the raw records are only read back one at
    a time or saved, so a narrow copy is pure memory saved.
    """

    def __init__(self, tokens: np.ndarray, offsets: np.ndarray):
        self.tokens = tokens
        self.offsets = offsets

    @classmethod
    def of(cls, records: Sequence[Sequence[int]]) -> "TokenRecords":
        """Flatten ``records`` once, refusing any token :func:`check_tokens` would."""
        if isinstance(records, TokenRecords):
            return records
        try:
            sizes = np.fromiter(map(len, records), dtype=np.int64, count=len(records))
        except TypeError:
            raise ValueError("a sets record must be a sequence of integer tokens") from None
        kinds = set(map(type, chain.from_iterable(records)))
        _check_kinds(kinds)
        if any(issubclass(kind, np.unsignedinteger) for kind in kinds):
            # Range-check unsigned scalars as Python ints, not through
            # whatever cast fromiter applies to them.
            records = [check_tokens(record) for record in records]
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        try:
            tokens = np.fromiter(
                chain.from_iterable(records), dtype=np.int64, count=int(offsets[-1])
            )
        except OverflowError:
            raise ValueError(_OUT_OF_RANGE) from None
        if tokens.size:
            low, high = tokens.min(), tokens.max()
            for dtype in (np.int16, np.int32):
                if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
                    tokens = tokens.astype(dtype)
                    break
        return cls(tokens, offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("TokenRecords slices must be contiguous")
            stop = max(start, stop)
            base, end = self.offsets[start], self.offsets[stop]
            return TokenRecords(self.tokens[base:end], self.offsets[start : stop + 1] - base)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        return self.tokens[self.offsets[index] : self.offsets[index + 1]].tolist()


class TokenOrder:
    """A global token order learned from a record collection.

    Args:
        records: the collection used to estimate document frequencies.
        num_classes: number of token classes (``m - 1`` in the paper); ``0``
            disables class assignment (used by the non-pkwise baselines).
    """

    def __init__(self, records: Sequence[Sequence[int]], num_classes: int = 0):
        universe, _records, token_ids = _distinct_pairs(TokenRecords.of(records))
        self._fit(universe, token_ids, num_classes)

    @classmethod
    def fit_encode(
        cls, raw: TokenRecords, num_classes: int
    ) -> tuple["TokenOrder", np.ndarray, np.ndarray]:
        """The order learned from ``raw`` plus ``raw`` encoded in it.

        The encoding is CSR ``(tokens, offsets)``: every record's distinct
        token ranks, ascending -- what :meth:`encode` returns per record,
        from one sort of ``record * U + rank`` over the whole collection.
        """
        order = cls.__new__(cls)
        universe, keys, token_ids = _distinct_pairs(raw)
        rank_of = order._fit(universe, token_ids, num_classes)
        width = max(universe.size, 1)
        keys *= width  # record -> record * U + rank, in place
        keys += rank_of[token_ids]
        del token_ids
        keys.sort()
        offsets = np.searchsorted(keys, np.arange(len(raw) + 1, dtype=np.int64) * width)
        np.remainder(keys, width, out=keys)
        return order, keys, offsets

    def _fit(self, universe: np.ndarray, token_ids: np.ndarray, num_classes: int) -> np.ndarray:
        """Rank the universe by (document frequency, token); returns the
        rank of every universe slot."""
        if num_classes < 0:
            raise ValueError("num_classes must be non-negative")
        frequency = np.bincount(token_ids, minlength=universe.size)
        # Rarest first; ties broken by token id (the universe is ascending,
        # so a stable sort on frequency alone does that).
        by_rank = np.argsort(frequency, kind="stable")
        rank_of = np.empty(universe.size, dtype=np.int64)
        rank_of[by_rank] = np.arange(universe.size, dtype=np.int64)
        self._rank = dict(zip(universe[by_rank].tolist(), range(universe.size)))
        self._num_classes = num_classes
        return rank_of

    @property
    def universe_size(self) -> int:
        return len(self._rank)

    @property
    def num_classes(self) -> int:
        return self._num_classes

    def rank(self, token: int) -> int:
        """Rank of a token; unseen tokens rank after every known token.

        Unseen tokens are rarer than anything in the collection, so they
        rank beyond the known universe, by hash; two unseen tokens may share
        this rank, which :meth:`encode` resolves.  They can never match a
        data token.
        """
        rank = self._rank.get(token)
        if rank is None:
            return len(self._rank) + hash(token) % (1 << 30)
        return rank

    def encode(self, record: Sequence[int]) -> list[int]:
        """Map a record to its sorted list of distinct token ranks.

        Distinct tokens get distinct ranks: an unseen token whose hash rank
        is already taken by another unseen token of the record moves up to
        the next free rank (in ``(rank, token)`` order), so the size of the
        encoded record is its number of distinct tokens.  The engine has
        already run :func:`check_tokens` on every query (its cache key).
        """
        ranks = sorted({self.rank(token) for token in record})
        if not ranks or ranks[-1] < len(self._rank):
            return ranks  # known tokens only: ranks are distinct already
        ranks = []
        for rank, _token in sorted((self.rank(token), token) for token in set(record)):
            ranks.append(max(rank, ranks[-1] + 1) if ranks else rank)
        return ranks

    def token_class(self, rank: int) -> int:
        """Class (1-based) of the token with the given rank."""
        if self._num_classes <= 0:
            raise ValueError("this TokenOrder was built without classes")
        return rank % self._num_classes + 1

    def classes_of(self, ranks: Sequence[int]) -> list[int]:
        """Classes of a sequence of ranks."""
        return [self.token_class(rank) for rank in ranks]


def _distinct_pairs(raw: TokenRecords) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(universe, records, token_ids)``: the distinct tokens ascending, and
    every distinct (record, token) pair as the record and the token's slot
    in ``universe``, sorted by record, then token."""
    universe, inverse = _dense_ids(raw.tokens)
    width = max(universe.size, 1)
    keys = np.repeat(np.arange(len(raw), dtype=np.int64), np.diff(raw.offsets))
    keys *= width
    keys += inverse
    del inverse
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]  # a record's repeated tokens count once
    records, token_ids = np.divmod(keys, width)
    return universe, records, token_ids


def _dense_ids(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(tokens, return_inverse=True)``, through a presence table
    over ``[min, max]`` when that range is at most ``2 * size +
    _TABLE_SLACK`` wide: no sort.

    Token ids from a vocabulary are dense, and every ``int16`` collection
    takes the table.  At 40 000 ``dblp_like`` records (548 k ``int16``
    tokens, 2-vCPU Xeon) the table takes 1.5 ms and ``np.unique`` 34 ms;
    with ``np.unique`` alone, the ``sets_inproc`` benchmark read 1.32x the
    table's ``setup_s`` and 1.016x its ``peak_rss_mb`` (medians of 5
    alternating pairs, 0 of 5 faster).  Wide or sparse token ranges (hashed
    tokens) take ``np.unique``.
    """
    if tokens.size:
        low = int(tokens.min())
        span = int(tokens.max()) - low + 1
        if span <= 2 * tokens.size + _TABLE_SLACK:
            shifted = np.subtract(tokens, low, dtype=np.int64)
            present = np.zeros(span, dtype=bool)
            present[shifted] = True
            slots = np.cumsum(present) - 1
            return np.flatnonzero(present) + low, slots[shifted]
    return np.unique(tokens, return_inverse=True)
