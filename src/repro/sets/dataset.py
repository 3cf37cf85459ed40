"""Dataset container for set similarity search.

A :class:`SetDataset` is flat arrays end to end: the raw records as supplied
(:class:`repro.sets.tokens.TokenRecords`, which is also what a container's
``data.npz`` stores) and the rank-encoded records the searchers read
(:class:`SetColumns`), both CSR.  Building one is a handful of whole-array
sorts (:meth:`repro.sets.tokens.TokenOrder.fit_encode`); a record is
materialised as a Python list only when asked for by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.sets.tokens import TokenOrder, TokenRecords

_LIST_CHUNK = 1024


@dataclass(frozen=True)
class SetColumns:
    """The CSR form of an encoded set collection.

    Attributes:
        tokens: every record's sorted token ranks, concatenated (int64).
        offsets: record ``i`` owns ``tokens[offsets[i]:offsets[i + 1]]``.
        sizes: ``offsets[i + 1] - offsets[i]``, materialised because the
            length filters index it with fancy candidate arrays.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray

    def iter_lists(self) -> Iterator[list[int]]:
        """Every record's ranks as a list, in id order, for the baselines'
        per-record Python loops; converts :data:`_LIST_CHUNK` records at a
        time, so a full scan never holds the collection as Python ints."""
        for lo in range(0, self.sizes.size, _LIST_CHUNK):
            bounds = self.offsets[lo : lo + _LIST_CHUNK + 1]
            flat = self.tokens[bounds[0] : bounds[-1]].tolist()
            starts = (bounds - bounds[0]).tolist()
            for start, stop in zip(starts, starts[1:]):
                yield flat[start:stop]


class SetDataset:
    """A collection of token sets encoded in a global frequency order.

    Args:
        records: raw records (sequences of integer tokens that fit in 64
            signed bits), or a :class:`~repro.sets.tokens.TokenRecords`
            holding them already flat.
        num_classes: number of token classes for the pkwise-family searchers
            (the paper's ``m - 1``; the default 4 matches the paper's
            ``m = 5``).

    Raises:
        ValueError: no records, ``num_classes < 1``, or a token that is not
            an integer within ``int64``.
    """

    def __init__(self, records: Sequence[Sequence[int]], num_classes: int = 4):
        if not len(records):
            raise ValueError("the dataset needs at least one record")
        if num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        self._raw = TokenRecords.of(records)
        self._order, tokens, offsets = TokenOrder.fit_encode(self._raw, num_classes)
        self._columns = SetColumns(tokens=tokens, offsets=offsets, sizes=np.diff(offsets))

    @property
    def raw_records(self) -> TokenRecords:
        """The records as originally supplied (before rank encoding)."""
        return self._raw

    @property
    def order(self) -> TokenOrder:
        return self._order

    @property
    def num_classes(self) -> int:
        return self._order.num_classes

    def record(self, obj_id: int) -> list[int]:
        """The encoded record with the given id (sorted distinct ranks)."""
        columns = self._columns
        return columns.tokens[columns.offsets[obj_id] : columns.offsets[obj_id + 1]].tolist()

    def encode_query(self, query: Sequence[int]) -> list[int]:
        """Encode a query with the dataset's global order."""
        return self._order.encode(query)

    def columns(self) -> SetColumns:
        """The encoded records in CSR form."""
        return self._columns

    def __len__(self) -> int:
        return len(self._raw)
