"""The Pivotal baseline for string edit distance search (pigeonhole principle).

Pivotal [28] sorts each string's positional q-grams by a global frequency
order, takes the first ``kappa * tau + 1`` grams as the prefix and selects
``tau + 1`` position-disjoint *pivotal* grams from it.  For a result pair the
side whose prefix ends earlier in the global order must have a pivotal gram
exactly matching a gram of the other side's prefix at a compatible position
(pivotal prefix filter, Cand-1); the sum of the per-pivotal-gram minimum edit
distances to nearby substrings must not exceed ``tau`` (alignment filter,
Cand-2); survivors are verified by the same batch verifier as the Ring
searcher (length and q-gram count filter, then Myers).

The index is shared with the Ring searcher (:class:`PivotalIndexBase`): the
prefix and pivotal-gram postings as CSR keyed by gram rank, and every
record's pivotal gram positions and character masks as ``(n, tau + 1)``
matrices.  It is built from the dataset's gram-rank column with a few
plain sorts of packed keys per chunk of records -- no per-record loop --
so the two searchers differ only in the filter that follows Cand-1.  One
:class:`PivotalIndex` per dataset and threshold serves every searcher on
it.

A record's entries depend only on the record and the gram order, so a
compaction that keeps the order (:func:`fold_dataset`) splices the index
rather than rebuilding it: the surviving records' rows renumbered, rows
built for the folded-in records only, and each posting list merged in
(object, position) order -- the arrays a build over the folded records
under that order would give.

The prefix depends on ``tau``, so a searcher is constructed per threshold --
matching how the paper evaluates one threshold at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.scratch import segment_sums
from repro.common.stats import SearchResult, Timer
from repro.strings.dataset import StringColumns, StringDataset
from repro.strings.edit_distance import QueryMatcher
from repro.strings.qgrams import PositionalGram

#: Records per step of the index build; bounds its per-gram temporaries.
_CHUNK = 4096


def window_edit_distance(gram: str, text: str, position: int, tau: int) -> int:
    """Minimum edit distance from ``gram`` to any substring of ``text`` that
    starts within the alignment-filter window of Section 6.3
    (``[position - tau, position + kappa - 1 + tau]``).

    Evaluated as a semi-global alignment of the gram against the window (free
    start and end inside the window).  Allowing substrings up to the full
    window length can only lower the value relative to the paper's
    ``kappa + tau - 1`` cap, so the box stays a valid lower bound and the
    filter stays complete.
    """
    kappa = len(gram)
    low = max(0, position - tau)
    high = min(position + kappa - 1 + tau, len(text) - 1)
    if low > high:
        return kappa
    window = text[low : high + 1]
    previous = [0] * (len(window) + 1)
    for i in range(1, kappa + 1):
        current = [i] + [0] * len(window)
        char = gram[i - 1]
        for j in range(1, len(window) + 1):
            cost = 0 if char == window[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
        previous = current
    return min(previous)


@dataclass
class _QueryPlan:
    """Per-query quantities shared by the Pivotal and Ring searchers."""

    prefix: list[PositionalGram]
    pivotal: list[PositionalGram] | None
    last_prefix_rank: int
    fallback: bool = False


def _segment_slots(sizes: np.ndarray) -> np.ndarray:
    """Every element's index within its segment, for consecutive segments
    of ``sizes`` elements."""
    heads = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) - np.repeat(heads, sizes)


def _greedy_disjoint(positions: np.ndarray, bounds: np.ndarray, kappa: int) -> np.ndarray:
    """Which grams the greedy position-disjoint selection chooses.

    Record ``r``'s grams are ``positions[bounds[r]:bounds[r + 1]]``,
    ascending; a gram is chosen when it starts at least ``kappa`` after its
    record's last chosen gram.  One vectorised step per slot, so as many
    steps as the longest record has grams, whatever the record count.
    """
    sizes = np.diff(bounds)
    chosen = np.zeros(positions.size, dtype=bool)
    last = np.full(sizes.size, -kappa, dtype=np.int64)
    for slot in range(int(sizes.max(initial=0))):
        rows = np.flatnonzero(sizes > slot)
        at = bounds[rows] + slot
        take = positions[at] - last[rows] >= kappa
        chosen[at[take]] = True
        last[rows[take]] = positions[at[take]]
    return chosen


def _pack(columns: Sequence[np.ndarray], widths: Sequence[int]) -> np.ndarray:
    """Non-negative integer columns packed into ``uint64`` keys, the first
    most significant, ``widths`` bits each, so keys sort like the rows."""
    keys = np.zeros(columns[0].size, dtype=np.uint64)
    for column, width in zip(columns, widths):
        keys <<= np.uint64(width)
        keys |= column.astype(np.uint64)
    return keys


def _bit_widths(columns: Sequence[np.ndarray]) -> list[int]:
    return [int(column.max(initial=0)).bit_length() for column in columns]


def _sorted_order(*columns: np.ndarray) -> np.ndarray:
    """The stable order of the rows of non-negative integer ``columns``, the
    first most significant: what ``np.lexsort(columns[::-1])`` returns.

    One plain sort of packed ``uint64`` keys whose low bits hold the row's
    index -- a fraction of the cost of ``lexsort`` or a stable ``argsort``
    -- unless the keys would need more than 64 bits.
    """
    size = columns[0].size
    widths = _bit_widths(columns)
    index_bits = max(size - 1, 0).bit_length()
    if sum(widths) + index_bits > 64:
        return np.lexsort(columns[::-1])
    keys = _pack([*columns, np.arange(size)], [*widths, index_bits])
    keys.sort()
    keys &= np.uint64((1 << index_bits) - 1)
    return keys.view(np.int64)


@dataclass(frozen=True, eq=False)
class PivotalIndex:
    """One threshold's prefix/pivotal index over a dataset: the arrays
    :class:`PivotalIndexBase` documents (without their leading underscore).

    Immutable, so searchers on one dataset share it
    (:class:`~repro.strings.dataset.TauIndexes`) and a fold
    splices it (:meth:`spliced`) while readers still use it.
    """

    pre_keys: np.ndarray
    pre_offsets: np.ndarray
    pre_objs: np.ndarray
    pre_positions: np.ndarray
    piv_keys: np.ndarray
    piv_offsets: np.ndarray
    piv_objs: np.ndarray
    piv_positions: np.ndarray
    piv_boxes: np.ndarray
    last_rank: np.ndarray
    always: np.ndarray
    piv_pos_mat: np.ndarray
    piv_mask_mat: np.ndarray

    def spliced(
        self, slots: np.ndarray, added: "PivotalIndex", added_slots: np.ndarray
    ) -> "PivotalIndex":
        """The index of a fold that moves this index's record ``p`` to
        ``slots[p]`` (``-1``: dropped) and ``added``'s record ``j`` to
        ``added_slots[j]``, filling ``len(slots[slots >= 0]) +
        len(added_slots)`` records.

        Both renumberings ascend, so every posting list keeps its (object,
        position) order and the two indexes' entries merge without a sort;
        the result equals :func:`_build_index` over the folded records when
        both sides rank grams alike.
        """
        kept = slots >= 0
        num = int(np.count_nonzero(kept)) + added_slots.size

        def rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            out = np.empty((num, *old.shape[1:]), dtype=old.dtype)
            out[slots[kept]] = old[kept]
            out[added_slots] = new
            return out

        def postings(*names: str) -> tuple[np.ndarray, ...]:
            entries = []
            for index, renumber in ((self, slots), (added, added_slots)):
                keys, offsets, objs, *values = (getattr(index, name) for name in names)
                ranks = np.repeat(keys, np.diff(offsets))
                objs = renumber[objs]
                live = objs >= 0
                entries.append([column[live] for column in (ranks, objs, *values)])
            return _csr(_merged(*entries))

        always = np.zeros(slots.size, dtype=bool)
        always[self.always] = True
        added_always = np.zeros(added_slots.size, dtype=bool)
        added_always[added.always] = True
        return PivotalIndex(
            *postings("pre_keys", "pre_offsets", "pre_objs", "pre_positions"),
            *postings("piv_keys", "piv_offsets", "piv_objs", "piv_positions", "piv_boxes"),
            last_rank=rows(self.last_rank, added.last_rank),
            always=np.flatnonzero(rows(always, added_always)),
            piv_pos_mat=rows(self.piv_pos_mat, added.piv_pos_mat),
            piv_mask_mat=rows(self.piv_mask_mat, added.piv_mask_mat),
        )


def _build_index(columns: StringColumns, kappa: int, tau: int) -> PivotalIndex:
    """Prefixes, pivotal grams and both posting lists from a collection's
    gram-rank column, :data:`_CHUNK` records at a time.

    Per chunk: one sort by (record, rank, position) keeps each record's
    first ``kappa * tau + 1`` grams (its prefix, whose last gram has the
    largest rank); the greedy position-disjoint selection then runs over
    the prefixes in position order slot by slot -- at most
    ``kappa * tau + 1`` vectorised steps (:func:`_greedy_disjoint`) --
    and a second sort by (record, rank, position) keeps the ``tau + 1``
    rarest chosen grams.  Selections return to position order by sorting
    the kept indices.  One sort by (rank, entry) over all chunks turns the
    (record, position)-ordered entries into the CSR postings.  Every sort
    is a plain one of packed keys (:func:`_sorted_order`).
    """
    m = tau + 1
    width = kappa * tau + 1
    lengths = columns.lengths
    num = lengths.size
    counts = np.maximum(lengths - (kappa - 1), 0)
    gram_offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=gram_offsets[1:])
    last_rank = np.full(num, -1, dtype=np.int64)
    always = counts == 0
    piv_pos_mat = np.zeros((num, m), dtype=np.int64)
    piv_mask_mat = np.zeros((num, m), dtype=np.uint64)
    prefix_parts: list[tuple[np.ndarray, ...]] = []
    pivotal_parts: list[tuple[np.ndarray, ...]] = []
    for lo in range(0, max(num, 1), _CHUNK):  # one empty chunk for no records
        hi = min(lo + _CHUNK, num)
        sizes = counts[lo:hi]
        ranks = columns.gram_ranks[gram_offsets[lo] : gram_offsets[hi]]
        records = np.repeat(np.arange(hi - lo, dtype=np.int32), sizes)
        slots = _segment_slots(sizes)
        positions = slots.astype(np.int32)
        # Positions ascend within a record and the sort is stable, so
        # (record, rank) orders by (record, rank, position); records stay
        # where they were, so ``slots`` also numbers the sorted grams.
        by_rank = _sorted_order(records, ranks)
        prefix_sizes = np.minimum(sizes, width)
        prefix = by_rank[slots < width]
        bounds = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(prefix_sizes, out=bounds[1:])
        has_grams = prefix_sizes > 0
        last_rank[lo:hi][has_grams] = ranks[prefix[bounds[1:][has_grams] - 1]]
        prefix.sort()  # back to (record, position) order
        pre_records, pre_positions = records[prefix], positions[prefix]
        pre_ranks = ranks[prefix]

        chosen = _greedy_disjoint(pre_positions, bounds, kappa)
        num_chosen = segment_sums(chosen, bounds)
        indexed = num_chosen >= m
        always[lo:hi] |= ~indexed
        keep = indexed[pre_records]
        prefix_parts.append((pre_ranks[keep], pre_records[keep] + lo, pre_positions[keep]))

        # The m rarest chosen grams of every indexed record, in position order.
        chosen &= keep
        c_records, c_ranks = pre_records[chosen], pre_ranks[chosen]
        by_rank = _sorted_order(c_records, c_ranks)
        rarest = np.sort(by_rank[_segment_slots(num_chosen[indexed]) < m])
        objs = c_records[rarest] + lo
        piv_positions = pre_positions[chosen][rarest]
        boxes = np.tile(np.arange(m, dtype=np.int32), rarest.size // m)
        pivotal_parts.append((c_ranks[rarest], objs, piv_positions, boxes))
        piv_pos_mat[objs, boxes] = piv_positions
        starts = columns.offsets[objs] + piv_positions
        masks = np.zeros(starts.size, dtype=np.uint64)
        for offset in range(kappa):  # character_mask of each gram
            masks |= np.left_shift(
                np.uint64(1), (columns.codes[starts + offset] % 64).astype(np.uint64)
            )
        piv_mask_mat[objs, boxes] = masks

    return PivotalIndex(
        *_postings(prefix_parts),
        *_postings(pivotal_parts),
        last_rank=last_rank,
        always=np.flatnonzero(always),
        piv_pos_mat=piv_pos_mat,
        piv_mask_mat=piv_mask_mat,
    )


class PivotalIndexBase:
    """The prefix/pivotal index and query plan shared by the Pivotal and Ring
    searchers, plus Cand-1 generation over it.

    Index arrays (all int64 but the ``uint64`` masks), read from the
    dataset's :class:`PivotalIndex` for ``tau`` -- built here only when no
    searcher holds one and no fold spliced one:

    * ``_pre_keys`` / ``_pre_offsets`` / ``_pre_objs`` / ``_pre_positions``
      -- prefix postings, CSR keyed by gram rank, each list ascending by
      (object, position);
    * ``_piv_keys`` / ``_piv_offsets`` / ``_piv_objs`` / ``_piv_positions``
      / ``_piv_boxes`` -- pivotal-gram postings, likewise, with the gram's
      box (its index among the record's pivotal grams, in position order);
    * ``_last_rank`` -- each record's largest prefix rank (-1 without grams);
    * ``_always`` -- records that cannot supply ``tau + 1`` pivotal grams,
      verified whenever their length is compatible (they have no postings);
    * ``_piv_pos_mat`` / ``_piv_mask_mat`` -- ``(n, tau + 1)``: each
      record's pivotal gram positions and character masks (zero rows for
      always-candidates, which are never matched).
    """

    def __init__(self, dataset: StringDataset, tau: int):
        if tau < 0:
            raise ValueError("tau must be non-negative")
        self._dataset = dataset
        self._tau = tau
        self._m = tau + 1
        self._lengths = dataset.columns().lengths
        # Held here, so the dataset's weak reference lives as long as a
        # searcher does; the arrays are copied to attributes for the filters.
        self._index = dataset.indexes.get(
            tau, lambda: _build_index(dataset.columns(), dataset.kappa, tau)
        )
        for name, array in vars(self._index).items():
            setattr(self, "_" + name, array)

    @property
    def dataset(self) -> StringDataset:
        return self._dataset

    @property
    def tau(self) -> int:
        return self._tau

    @property
    def m(self) -> int:
        """Number of boxes (pivotal grams): ``tau + 1``."""
        return self._m

    def query_plan(self, query: str) -> _QueryPlan:
        extractor = self._dataset.extractor
        prefix = extractor.prefix(query, self._tau)
        pivotal = extractor.pivotal(prefix, self._tau) if prefix else None
        fallback = not prefix or pivotal is None
        return _QueryPlan(
            prefix=prefix,
            pivotal=pivotal,
            last_prefix_rank=extractor.last_prefix_rank(prefix),
            fallback=fallback,
        )

    def _lookup(self, keys: np.ndarray, offsets: np.ndarray, rank: int) -> slice | None:
        slot = int(np.searchsorted(keys, rank))
        if slot >= keys.size or keys[slot] != rank:
            return None
        return slice(int(offsets[slot]), int(offsets[slot + 1]))

    def _matches(self, query: str, plan: _QueryPlan) -> tuple[np.ndarray, np.ndarray]:
        """Cand-1's exact pivotal-gram matches as ``(object, box)`` pairs
        (an object once per matched box and case); ``plan`` must not be a
        fallback.  Each matching posting slice is gathered once and
        position-window, length and prefix-rank filtered vectorised."""
        tau = self._tau
        length_q = len(query)
        lengths = self._lengths
        rank = self._dataset.extractor.rank
        obj_parts: list[np.ndarray] = []
        box_parts: list[np.ndarray] = []
        # Case 1: a data pivotal gram matches a query prefix gram and the
        # data prefix ends no later than the query prefix.
        for gram in plan.prefix:
            rows = self._lookup(self._piv_keys, self._piv_offsets, rank(gram.gram))
            if rows is None:
                continue
            objs = self._piv_objs[rows]
            keep = (
                (np.abs(self._piv_positions[rows] - gram.position) <= tau)
                & (np.abs(lengths[objs] - length_q) <= tau)
                & (self._last_rank[objs] <= plan.last_prefix_rank)
            )
            obj_parts.append(objs[keep])
            box_parts.append(self._piv_boxes[rows][keep])
        # Case 2: a query pivotal gram matches a data prefix gram and the
        # data prefix ends later than the query prefix.
        for box_index, gram in enumerate(plan.pivotal):
            rows = self._lookup(self._pre_keys, self._pre_offsets, rank(gram.gram))
            if rows is None:
                continue
            objs = self._pre_objs[rows]
            keep = (
                (np.abs(self._pre_positions[rows] - gram.position) <= tau)
                & (np.abs(lengths[objs] - length_q) <= tau)
                & (self._last_rank[objs] > plan.last_prefix_rank)
            )
            objs = objs[keep]
            obj_parts.append(objs)
            box_parts.append(np.full(objs.size, box_index, dtype=np.int64))
        if not obj_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(obj_parts), np.concatenate(box_parts)

    def _always_within(self, query: str) -> np.ndarray:
        """The always-candidates whose length is within ``tau`` of the query's."""
        always = self._always
        return always[np.abs(self._lengths[always] - len(query)) <= self._tau]


def _postings(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """CSR ``(keys, offsets, *values)``, values int64, from per-chunk
    ``(rank, *values)`` entries in (record, position) order: one stable
    sort by rank orders each list by (record, position)."""
    ranks, *values = (np.concatenate(column) for column in zip(*parts))
    order = _sorted_order(ranks)
    return _csr([ranks[order], *(column[order].astype(np.int64) for column in values)])


def _merged(first: list[np.ndarray], second: list[np.ndarray]) -> list[np.ndarray]:
    """Two sets of posting entries ``(rank, object, position, *values)``,
    each sorted by (rank, object, position) with no key twice, merged in
    that order: where each of ``second``'s keys goes is a binary search in
    ``first``'s packed keys, so nothing is sorted."""
    both = [np.concatenate(pair) for pair in zip(first, second)]
    widths = _bit_widths(both[:3])
    if sum(widths) > 64:
        order = np.lexsort(both[2::-1])
        return [column[order] for column in both]
    at = np.searchsorted(_pack(first[:3], widths), _pack(second[:3], widths))
    from_second = np.zeros(both[0].size, dtype=bool)
    from_second[at + np.arange(at.size)] = True
    merged = []
    for column, ours, theirs in zip(both, first, second):
        column[~from_second] = ours
        column[from_second] = theirs
        merged.append(column)
    return merged


def _csr(columns: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``(keys, offsets, *values)`` from rank-sorted ``(rank, *values)`` entries."""
    ranks, *values = columns
    heads = np.flatnonzero(np.diff(ranks, prepend=-1))
    keys = ranks[heads].astype(np.int64)
    offsets = np.append(heads, ranks.size).astype(np.int64)
    return (keys, offsets, *values)


class PivotalSearcher(PivotalIndexBase):
    """Pigeonhole baseline: pivotal prefix filter + alignment filter + verify."""

    def first_step(self, query: str, plan: _QueryPlan) -> tuple[list[int], list[int]]:
        """Cand-1: ``(matched, unconditional)``, both ascending -- the ids
        with an exact pivotal-gram match, and the ids verified regardless
        (pivotal selection impossible on either side)."""
        if plan.fallback:
            # The query is too short to supply pivotal grams: verify every
            # length-compatible string (rare; only tiny queries).
            lengths = self._lengths
            return [], np.flatnonzero(np.abs(lengths - len(query)) <= self._tau).tolist()
        objs, _boxes = self._matches(query, plan)
        return np.unique(objs).tolist(), self._always_within(query).tolist()

    def candidate_boxes(
        self, obj_id: int, query: str, plan: _QueryPlan
    ) -> tuple[list[PositionalGram], str]:
        """The pivotal grams forming the boxes and the text they align against.

        The side whose prefix ends no later supplies them: the record's own
        (read from the pivotal position matrix) against the query, or the
        query's against the record.
        """
        record = self._dataset.record(obj_id)
        if self._last_rank[obj_id] > plan.last_prefix_rank:
            assert plan.pivotal is not None
            return plan.pivotal, record
        kappa = self._dataset.kappa
        positions = self._piv_pos_mat[obj_id].tolist()
        return [PositionalGram(record[pos : pos + kappa], pos) for pos in positions], query

    def candidates(self, query: str) -> tuple[list[int], list[int]]:
        """Return ``(cand1, cand2)`` -- after the prefix filter and after the alignment filter."""
        plan = self.query_plan(query)
        matched, unconditional = self.first_step(query, plan)
        cand1 = sorted(unconditional + matched)
        cand2: list[int] = list(unconditional)
        for obj_id in matched:
            pivotal, text = self.candidate_boxes(obj_id, query, plan)
            total = 0
            for gram in pivotal:
                total += window_edit_distance(gram.gram, text, gram.position, self._tau)
                if total > self._tau:
                    break
            if total <= self._tau:
                cand2.append(obj_id)
        return cand1, sorted(cand2)

    def search(self, query: str) -> SearchResult:
        timer = Timer()
        cand1, cand2 = self.candidates(query)
        candidate_time = timer.restart()
        # The Ring searcher's batch verifier, so the two compare as filters.
        records = self._dataset.records
        hits = QueryMatcher(query).indexes_within(
            [records[obj_id] for obj_id in cand2], self._tau, self._dataset.kappa
        )
        results = [cand2[index] for index in hits]
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=cand2,
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"cand1": len(cand1), "cand2": len(cand2)},
        )


def fold_dataset(
    dataset: StringDataset, kept: np.ndarray, added: Sequence[str], from_added: np.ndarray
) -> StringDataset:
    """:meth:`StringDataset.fold`, with every index a searcher holds on
    ``dataset`` spliced for the folded one: the kept records' rows carried
    over, rows built for the added records only."""
    folded = dataset.fold(kept, added, from_added)
    indexes = dataset.indexes.live()
    if indexes:
        slots = np.full(len(dataset), -1, dtype=np.int64)
        slots[kept] = np.flatnonzero(~from_added)
        added_slots = np.flatnonzero(from_added)
        columns = folded.columns().take(added_slots, folded.kappa)
        for tau, index in indexes.items():
            added_index = _build_index(columns, folded.kappa, tau)
            folded.indexes.adopt(tau, index.spliced(slots, added_index, added_slots))
    return folded
