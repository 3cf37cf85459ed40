"""Pigeonring-accelerated string edit distance search (Section 6.3).

The Ring searcher keeps Pivotal's first step (the pivotal prefix filter)
and replaces the alignment filter with the prefix-viable chain check of
Theorem 3: ``m = tau + 1`` boxes (one per pivotal gram), uniform quota
``tau / m < 1``, so a chain can only start at a box whose value is zero (an
exact pivotal-gram match).  Box values along the chain are evaluated with the
content-based bit-vector lower bound instead of exact edit distances, which
preserves completeness (a lower bound can only make a chain look *more*
viable) at a fraction of the cost -- the paper's key implementation remark.

The pipeline moves every loop from per-posting Python dispatch to array
kernels:

* the pivotal and prefix inverted indexes are CSR postings keyed by the
  extractor's global gram rank (rank equality is gram equality for any
  (query gram, data gram) pair: data grams all carry learned ranks and
  unseen query grams rank beyond the learned universe), built from the
  dataset's arrays by :class:`~repro.strings.pivotal.PivotalIndexBase`
  and shared with the Pivotal baseline;
* Cand-1 generation gathers each matching posting slice once and applies
  the position-window, length and prefix-rank filters vectorised;
* the matched boxes form an ``(n, m)`` boolean matrix, a complete
  whole-string content-bound prefilter (``ceil(popcount(mask_x ^ mask_q)
  / 2) > tau`` implies ``ed > tau``) prunes candidates in bulk, and every
  candidate with ``l`` consecutive exactly-matched (zero-valued) boxes is
  accepted without touching the per-box lower bounds;
* the remaining candidates get their chain checked over the whole array at
  once: every box's content-bound lower bound is a windowed minimum over
  precomputed substring masks, gathered and reduced in bulk; and
* survivors are verified as one batch
  (:meth:`~repro.strings.edit_distance.QueryMatcher.indexes_within`): a
  length and q-gram count filter over the concatenated candidates rules
  out almost all of them in one numpy pass, and a per-query bit-parallel
  (Myers) matcher decides the rest exactly.

Candidates and results are emitted ascending by id.
"""

from __future__ import annotations

import numpy as np

from repro.common.obs import span
from repro.common.scratch import PerThread, Scratch, csr_gather_indices
from repro.common.stats import SearchResult, Timer
from repro.strings.dataset import StringDataset
from repro.strings.edit_distance import QueryMatcher
from repro.strings.pivotal import PivotalIndexBase, _QueryPlan
from repro.strings.qgrams import character_mask, code_points

#: Cap on the whole-corpus substring mask table (entries, 8 bytes each --
#: 128 MB at the cap).  Above it each query builds a table over just the
#: records its chain check reads.
_MAX_TABLE_ENTRIES = 1 << 24

#: Cap on the substring masks one chain-check pass gathers (entries, 8 bytes
#: each, a few arrays of that length alive at once).
_MAX_GATHER_ENTRIES = 1 << 22


def _substring_mask_table(
    codes: np.ndarray, base: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Character masks of every substring of length ``1..window`` of texts
    held as code points (:func:`repro.strings.qgrams.code_points`).

    Text ``t`` occupies ``codes[base[t]:base[t + 1]]``.  Returns ``(flat,
    offsets)``: the masks of the substrings starting at position ``i`` of
    the concatenation (shortest first, never crossing a text boundary) sit
    in ``flat[offsets[i]:offsets[i + 1]]``.
    """
    lengths = np.diff(base)
    total = int(base[-1])
    bits = np.left_shift(np.uint64(1), (codes % 64).astype(np.uint64))
    counts = np.minimum(np.repeat(base[1:], lengths) - np.arange(total), window)
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Width-by-width cumulative ORs written straight into the flat layout
    # (position-major, shortest substring first) -- no dense intermediate.
    flat = np.zeros(int(offsets[-1]), dtype=np.uint64)
    current = bits
    for width in range(1, window + 1):
        if width > 1:
            current = current[:-1] | bits[width - 1 :]
        starts = np.flatnonzero(counts >= width)
        if not starts.size:
            break
        # counts[s] >= width implies s + width <= total, so every such start
        # indexes into ``current`` (length total - width + 1).
        flat[offsets[starts] + width - 1] = current[starts]
    return flat, offsets


class RingStringSearcher(PivotalIndexBase):
    """Pigeonring searcher for string edit distance.

    Args:
        dataset: the indexed collection.
        tau: the edit distance threshold (prefixes depend on it).
        chain_length: chain length ``l``; the paper finds ``min(3, tau + 1)``
            best overall.
    """

    def __init__(self, dataset: StringDataset, tau: int, chain_length: int | None = None):
        super().__init__(dataset, tau)
        if chain_length is None:
            chain_length = min(3, tau + 1)
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        m = self._m
        self._chain_length = min(chain_length, m)
        # windows[i] lists the boxes of the chain of length l starting at i;
        # its prefix of length l' may sum to at most floor(l' * tau / m).
        self._windows = (np.arange(m)[:, np.newaxis] + np.arange(self._chain_length)) % m
        self._bounds = np.arange(1, self._chain_length + 1) * tau // m
        self._masks = dataset.columns().masks
        self._scratch: PerThread = PerThread(Scratch)
        self._window = dataset.kappa + tau
        self._corpus_table_fits = int(self._lengths.sum()) * self._window <= _MAX_TABLE_ENTRIES
        # The record-corpus substring mask table only pays off once a query
        # actually reaches the chain check on the "query" side; built lazily.
        self._corpus_table: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def chain_length(self) -> int:
        return self._chain_length

    # -- candidate generation ----------------------------------------------

    def candidates(self, query: str) -> list[int]:
        cands, _generated = self._candidates(query)
        return cands.tolist()

    def _candidates(self, query: str) -> tuple[np.ndarray, int]:
        """Candidate ids (ascending) plus the pre-filter candidate count."""
        plan = self.query_plan(query)
        tau = self._tau
        length_q = len(query)
        lengths = self._lengths
        if plan.fallback:
            # The query cannot supply pivotal grams: verify every
            # length-compatible string (this includes the always-candidates).
            cands = np.flatnonzero(np.abs(lengths - length_q) <= tau).astype(np.int64)
            return cands, int(cands.size)

        always = self._always_within(query)
        obj_all, box_all = self._matches(query, plan)
        if not obj_all.size:
            return always, int(always.size)

        # The (candidate, box) matrix of exact pivotal-gram matches.
        matched, rows = np.unique(obj_all, return_inverse=True)
        exact = np.zeros((matched.size, self._m), dtype=bool)
        exact[rows, box_all] = True
        generated = int(matched.size + always.size)

        # Complete whole-string content prefilter, evaluated in bulk.
        query_mask = np.uint64(character_mask(query))
        bound = (np.bitwise_count(self._masks[matched] ^ query_mask) + np.uint64(1)) >> 1
        keep = bound <= tau
        matched = matched[keep]
        exact = exact[keep]

        # l consecutive exactly-matched boxes form a prefix-viable chain of
        # zeros: accept those without any lower bound (an unmatched box is
        # given a value no chain prefix can absorb).
        accepted = self._chain_passes(np.where(exact, 0, tau + 1))
        # The rest get every box's content-bound lower bound; matched boxes
        # are exact pivotal-gram matches, hence zero whatever the bound says.
        # A candidate gathers at most m * (2 tau + 1) * window substring
        # masks, so large thresholds take the candidates a chunk at a time.
        undecided = np.flatnonzero(~accepted)
        step = max(1, _MAX_GATHER_ENTRIES // (self._m * (2 * tau + 1) * self._window))
        for first in range(0, undecided.size, step):
            chunk = undecided[first : first + step]
            values = self._box_values(matched[chunk], query, plan)
            values[exact[chunk]] = 0
            accepted[chunk] = self._chain_passes(values)
        return np.sort(np.concatenate([always, matched[accepted]])), generated

    def _chain_passes(self, values: np.ndarray) -> np.ndarray:
        """Which rows of the ``(n, m)`` box-value matrix have a prefix-viable
        chain of length ``l`` from some box.

        Every box is tried as a start: one whose value exceeds the quota
        fails at offset zero, and Theorem 3 only promises a viable chain
        from *some* zero-valued box, which need not be an exactly matched one.
        """
        chains = np.cumsum(values[:, self._windows], axis=2)
        return (chains <= self._bounds).all(axis=2).any(axis=1)

    # -- box values ----------------------------------------------------------

    def _window_min_bounds(
        self,
        gram_masks: np.ndarray,
        gram_positions: np.ndarray,
        base: np.ndarray | int,
        text_lengths: np.ndarray | int,
        sub_flat: np.ndarray,
        sub_off: np.ndarray,
    ) -> np.ndarray:
        """Content-filter lower bound of one alignment box per gram.

        Entry ``i`` is the minimum ``ceil(popcount(mask(gram) XOR
        mask(substring)) / 2)`` over every substring of its text starting
        within ``tau`` of the gram position (lengths up to ``kappa + tau``),
        capped by the full-deletion bound.  In an optimal edit script of
        cost at most ``tau`` the gram is aligned to one of these substrings
        at cost ``c_i``, and the content bound of that substring is at most
        ``c_i``; so the chain check driven by these values never rejects a
        true result.
        """
        tau = self._tau
        cap = (np.bitwise_count(gram_masks).astype(np.int64) + 1) >> 1
        empty = gram_positions - tau > text_lengths - 1
        lo = np.clip(gram_positions - tau, 0, text_lengths - 1)
        hi = np.maximum(np.minimum(gram_positions + tau, text_lengths - 1), lo)
        starts = sub_off[base + lo]
        ends = sub_off[base + hi + 1]
        gather = csr_gather_indices(starts, ends, self._scratch.get())
        sizes = ends - starts
        diffs = np.bitwise_count(sub_flat[gather] ^ np.repeat(gram_masks, sizes))
        bounds = (diffs.astype(np.int64) + 1) >> 1
        segments = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=segments[1:])
        values = np.minimum(np.minimum.reduceat(bounds, segments), cap)
        values[empty] = cap[empty]
        return values

    def _box_values(self, ids: np.ndarray, query: str, plan: _QueryPlan) -> np.ndarray:
        """The ``(len(ids), m)`` matrix of content-bound box values.

        "data"-side candidates align their own pivotal grams against the
        query text (one mask table per query); "query"-side candidates align
        the query's pivotal grams against their record: the corpus table,
        built lazily and shared by every query, or -- when it would exceed
        :data:`_MAX_TABLE_ENTRIES` -- a table over just these records.
        """
        m = self._m
        values = np.zeros((ids.size, m), dtype=np.int64)
        side_data = self._last_rank[ids] <= plan.last_prefix_rank
        rows = np.flatnonzero(side_data)
        if rows.size:
            ids_data = ids[rows]
            q_flat, q_off = _substring_mask_table(*code_points([query]), self._window)
            values[rows] = self._window_min_bounds(
                self._piv_mask_mat[ids_data].ravel(),
                self._piv_pos_mat[ids_data].ravel(),
                0,
                len(query),
                q_flat,
                q_off,
            ).reshape(rows.size, m)
        rows = np.flatnonzero(~side_data)
        if rows.size:
            ids_query = ids[rows]
            if self._corpus_table_fits:
                columns = self._dataset.columns()
                if self._corpus_table is None:
                    self._corpus_table = _substring_mask_table(
                        columns.codes, columns.offsets, self._window
                    )
                flat, offsets = self._corpus_table
                base = columns.offsets[ids_query]
            else:
                records = self._dataset.records
                codes, base = code_points([records[obj_id] for obj_id in ids_query.tolist()])
                flat, offsets = _substring_mask_table(codes, base, self._window)
                base = base[:-1]
            positions = np.asarray([gram.position for gram in plan.pivotal], dtype=np.int64)
            gram_masks = np.asarray(
                [character_mask(gram.gram) for gram in plan.pivotal], dtype=np.uint64
            )
            values[rows] = self._window_min_bounds(
                np.tile(gram_masks, ids_query.size),
                np.tile(positions, ids_query.size),
                np.repeat(base, m),
                np.repeat(self._lengths[ids_query], m),
                flat,
                offsets,
            ).reshape(rows.size, m)
        return values

    # -- search -------------------------------------------------------------

    def search(self, query: str) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            cands, generated = self._candidates(query)
        candidate_time = timer.restart()
        with span("verify"):
            records = self._dataset.records
            ids = cands.tolist()
            hits = QueryMatcher(query).indexes_within(
                [records[obj_id] for obj_id in ids], self._tau, self._dataset.kappa
            )
            results = [ids[index] for index in hits]
        verify_time = timer.elapsed()
        return SearchResult(
            results=results,
            candidates=cands.tolist(),
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"generated": generated, "verified": int(cands.size)},
        )
