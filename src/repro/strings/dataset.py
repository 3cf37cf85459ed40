"""Dataset container for string edit distance search.

A :class:`StringDataset` keeps its records twice: as Python strings, which
the verifier and the engine read by id, and as flat arrays
(:class:`StringColumns`) -- the concatenated code points, the per-record
lengths and character masks, and the global rank of every gram position --
from which the searchers build their indexes without a per-record loop.  A
container's ``data.npz`` stores the code points and offsets and loads
straight back through :meth:`StringDataset.from_code_points`.

Building or loading a dataset learns the gram order from its records.  A
compaction does not: :meth:`StringDataset.fold` keeps the order, ranks the
grams only the folded-in records bring after the known ones, and gathers
the surviving records' columns, so the prefix/pivotal index of every
untouched record stays what it was and can be spliced rather than rebuilt
(:class:`TauIndexes` hands that index over).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.scratch import csr_gather_indices
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

    @classmethod
    def of(cls, codes: np.ndarray, offsets: np.ndarray, gram_ranks: np.ndarray) -> "StringColumns":
        """The columns of records held as code points, with their gram ranks."""
        lengths = np.diff(offsets)
        masks = np.zeros(lengths.size, dtype=np.uint64)
        nonempty = lengths > 0
        if codes.size:
            # Empty records own no code point, so each segment from one
            # non-empty record's start to the next is exactly that record.
            bits = (codes % 64).astype(np.uint64)
            np.left_shift(np.uint64(1), bits, out=bits)
            masks[nonempty] = np.bitwise_or.reduceat(bits, offsets[:-1][nonempty])
        return cls(
            codes=codes, offsets=offsets, lengths=lengths, masks=masks, gram_ranks=gram_ranks
        )

    def take(self, rows: np.ndarray, kappa: int) -> "StringColumns":
        """The columns of records ``rows``, in that order (``kappa`` says how
        many gram ranks each record owns)."""
        lengths = self.lengths[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        starts = self.offsets[rows]
        gram_counts = np.maximum(self.lengths - (kappa - 1), 0)
        gram_starts = np.cumsum(gram_counts) - gram_counts
        gram_starts, gram_counts = gram_starts[rows], gram_counts[rows]
        return StringColumns(
            codes=self.codes[csr_gather_indices(starts, starts + lengths)],
            offsets=offsets,
            lengths=lengths,
            masks=self.masks[rows],
            gram_ranks=self.gram_ranks[csr_gather_indices(gram_starts, gram_starts + gram_counts)],
        )

    def concat(self, other: "StringColumns") -> "StringColumns":
        """These records followed by ``other``'s."""
        return StringColumns(
            codes=np.concatenate([self.codes, other.codes]),
            offsets=np.concatenate([self.offsets, other.offsets[1:] + self.offsets[-1]]),
            lengths=np.concatenate([self.lengths, other.lengths]),
            masks=np.concatenate([self.masks, other.masks]),
            gram_ranks=np.concatenate([self.gram_ranks, other.gram_ranks]),
        )


class TauIndexes:
    """A dataset's per-threshold searcher indexes, built once and shared.

    An index is held weakly once a searcher has it, so one the engine's
    searcher cache dropped is freed; one a fold spliced is held until a
    searcher claims it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._spliced: dict[int, Any] = {}

    def get(self, tau: int, build: Callable[[], Any]) -> Any:
        """The index for ``tau``: a spliced one, one a searcher holds, or
        else ``build()``'s."""
        with self._lock:
            index = self._spliced.pop(tau, None) or self._live.get(tau)
            if index is None:
                index = build()
            self._live[tau] = index
            return index

    def live(self) -> dict[int, Any]:
        """The indexes some searcher holds (what a fold splices)."""
        with self._lock:
            return dict(self._live)

    def adopt(self, tau: int, index: Any) -> None:
        """Hold a spliced index until :meth:`get` hands it out."""
        with self._lock:
            self._spliced[tau] = index

    def __reduce__(self):
        # A cache: a pickled or copied dataset starts without indexes (and a
        # lock and weak references do not pickle).
        return (TauIndexes, ())


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
        codes, offsets = code_points(self._records)
        extractor, gram_ranks = QGramExtractor.fit_rank(kappa, codes, offsets)
        self._install(extractor, StringColumns.of(codes, offsets, gram_ranks))

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
        codes = codes.astype("<u4", copy=False)
        offsets = offsets.astype(np.int64, copy=False)
        extractor, gram_ranks = QGramExtractor.fit_rank(kappa, codes, offsets)
        dataset._install(extractor, StringColumns.of(codes, offsets, gram_ranks))
        return dataset

    def _install(self, extractor: QGramExtractor, columns: StringColumns) -> None:
        self._extractor = extractor
        self._columns = columns
        self._indexes = TauIndexes()

    def fold(
        self, kept: np.ndarray, added: Sequence[str], from_added: np.ndarray
    ) -> "StringDataset":
        """The dataset of a compaction, under this dataset's gram order.

        It holds the records at positions ``kept`` (ascending) and the
        ``added`` ones, interleaved as ``from_added`` says: slot ``i`` takes
        the next added record where it is True, the next kept one where not.
        Grams only the added records bring rank after the known ones
        (:meth:`QGramExtractor.extended`); this dataset is left untouched.
        """
        codes, offsets = code_points(list(added))
        extractor, gram_ranks = self._extractor.extended(codes, offsets)
        source = np.empty(from_added.size, dtype=np.int64)
        source[~from_added] = kept
        source[from_added] = len(self) + np.arange(len(added))
        columns = self._columns.concat(StringColumns.of(codes, offsets, gram_ranks))
        dataset = StringDataset.__new__(StringDataset)
        pool = self._records + list(added)
        dataset._records = [pool[index] for index in source.tolist()]
        dataset._install(extractor, columns.take(source, self.kappa))
        return dataset

    @property
    def indexes(self) -> "TauIndexes":
        """The per-threshold indexes of this dataset's searchers."""
        return self._indexes

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
