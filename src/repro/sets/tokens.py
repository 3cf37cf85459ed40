"""Global token ordering and token classes.

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
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence


class TokenOrder:
    """A global token order learned from a record collection.

    Args:
        records: the collection used to estimate document frequencies.
        num_classes: number of token classes (``m - 1`` in the paper); ``0``
            disables class assignment (used by the non-pkwise baselines).
    """

    def __init__(self, records: Iterable[Sequence[int]], num_classes: int = 0):
        if num_classes < 0:
            raise ValueError("num_classes must be non-negative")
        frequency: Counter = Counter()
        for record in records:
            frequency.update(set(record))
        # Rarest first; ties broken by token id for determinism.
        ordered = sorted(frequency, key=lambda token: (frequency[token], token))
        self._rank = {token: rank for rank, token in enumerate(ordered)}
        self._tokens = ordered
        self._num_classes = num_classes

    @property
    def universe_size(self) -> int:
        return len(self._tokens)

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
            return len(self._tokens) + hash(token) % (1 << 30)
        return rank

    def encode(self, record: Sequence[int]) -> list[int]:
        """Map a record to its sorted list of distinct token ranks.

        Distinct tokens get distinct ranks: an unseen token whose hash rank
        is already taken by another unseen token of the record moves up to
        the next free rank (in ``(rank, token)`` order), so the size of the
        encoded record is its number of distinct tokens.
        """
        ranks = sorted({self.rank(token) for token in record})
        if not ranks or ranks[-1] < len(self._tokens):
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
