"""Dataset container for string edit distance search.

A :class:`StringDataset` keeps its records twice: as Python strings, which
the verifier and the engine read by id, and as flat arrays
(:class:`StringColumns`) -- the concatenated code points, the per-record
lengths and character masks, and the global rank of every gram position --
from which the searchers build their indexes without a per-record loop.  A
container's ``data.npz`` stores the code points and offsets and loads
straight back through :meth:`StringDataset.from_code_points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.strings.qgrams import QGramExtractor, code_points, decode_code_points


@dataclass(frozen=True)
class StringColumns:
    """Flat columns of a string collection.

    Attributes:
        codes: every record's code points, concatenated (``uint32``).
        offsets: record ``i`` owns ``codes[offsets[i]:offsets[i + 1]]``
            (int64).
        lengths: record lengths (int64), for vectorised length filters.
        masks: per-record character masks (uint64), for the vectorised
            content-bound prefilter (``ed(x, q) <= t`` implies the masks
            differ in at most ``2 t`` bits).
        gram_ranks: the global rank of every gram position (int32), record
            by record, ``max(0, length - kappa + 1)`` each
            (:meth:`repro.strings.qgrams.QGramExtractor.fit_rank`).
    """

    codes: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    masks: np.ndarray
    gram_ranks: np.ndarray


class StringDataset:
    """A collection of strings with a q-gram extractor learned from them.

    Args:
        records: the data strings.
        kappa: q-gram length; the paper tunes it per dataset and threshold
            (e.g. 2-3 for short name strings, 4-8 for long titles).
    """

    def __init__(self, records: Sequence[str], kappa: int = 2):
        if not records:
            raise ValueError("the dataset needs at least one string")
        self._records = list(records)
        self._index(*code_points(self._records), kappa)

    @classmethod
    def from_code_points(
        cls, codes: np.ndarray, offsets: np.ndarray, kappa: int
    ) -> "StringDataset":
        """The dataset whose records are ``codes`` split at ``offsets``."""
        if offsets.size < 2:
            raise ValueError("the dataset needs at least one string")
        dataset = cls.__new__(cls)
        text = decode_code_points(codes)
        bounds = offsets.tolist()
        dataset._records = [text[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        dataset._index(codes.astype("<u4", copy=False), offsets.astype(np.int64, copy=False), kappa)
        return dataset

    def _index(self, codes: np.ndarray, offsets: np.ndarray, kappa: int) -> None:
        self._extractor, gram_ranks = QGramExtractor.fit_rank(kappa, codes, offsets)
        lengths = np.diff(offsets)
        masks = np.zeros(lengths.size, dtype=np.uint64)
        nonempty = lengths > 0
        if codes.size:
            # Empty records own no code point, so each segment from one
            # non-empty record's start to the next is exactly that record.
            bits = (codes % 64).astype(np.uint64)
            np.left_shift(np.uint64(1), bits, out=bits)
            masks[nonempty] = np.bitwise_or.reduceat(bits, offsets[:-1][nonempty])
        self._columns = StringColumns(
            codes=codes, offsets=offsets, lengths=lengths, masks=masks, gram_ranks=gram_ranks
        )

    @property
    def records(self) -> list[str]:
        return self._records

    @property
    def extractor(self) -> QGramExtractor:
        return self._extractor

    @property
    def kappa(self) -> int:
        return self._extractor.kappa

    def record(self, obj_id: int) -> str:
        return self._records[obj_id]

    def columns(self) -> StringColumns:
        """The records' code points, lengths, masks and gram ranks."""
        return self._columns

    def __len__(self) -> int:
        return len(self._records)
