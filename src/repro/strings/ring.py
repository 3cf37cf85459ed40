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
  (query gram, data gram) pair: every data gram carries a rank of the
  table, and unseen query grams rank beyond it), built from the
  dataset's arrays by :class:`~repro.strings.pivotal.PivotalIndexBase`
  once per dataset and threshold and shared with the Pivotal baseline; a
  compaction keeps the table -- extending it with the new grams -- and
  splices the index instead of rebuilding it
  (:func:`~repro.strings.pivotal.fold_dataset`);
* Cand-1 generation gathers each matching posting slice once and applies
  the position-window, length and prefix-rank filters vectorised;
* the matched boxes form an ``(n, m)`` boolean matrix, a complete
  whole-string content-bound prefilter (``ceil(popcount(mask_x ^ mask_q)
  / 2) > tau`` implies ``ed > tau``) prunes candidates in bulk, and every
  candidate with ``l`` consecutive exactly-matched (zero-valued) boxes is
  accepted without touching the per-box lower bounds;
* the remaining candidates get their chain checked over the whole array at
  once: every box's content-bound lower bound is a windowed minimum over
  substring masks, from one table per query over the query and the
  records whose boxes align against their own text, gathered and reduced
  in bulk; and
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
from repro.common.scratch import csr_gather_indices
from repro.common.stats import SearchResult, Timer
from repro.strings.dataset import StringDataset
from repro.strings.edit_distance import QueryMatcher
from repro.strings.pivotal import PivotalIndexBase, _QueryPlan
from repro.strings.qgrams import character_mask, code_points

#: Cap on the substring masks one chain-check pass gathers (entries, 8 bytes
#: each, a few arrays of that length alive at once).
_MAX_GATHER_ENTRIES = 1 << 22


#: The mask of a substring that leaves its text: all 64 bits, so its
#: content bound is at least the full-deletion cap of any gram with at most
#: 32 mask bits (every ``kappa <= 32``) and never decides a box value; a
#: wider gram may get a lower, still sound, value from it.
_OUTSIDE = np.uint64(2**64 - 1)


def _substring_masks(
    codes: np.ndarray, lengths: np.ndarray, pad: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Character masks of the substrings of texts held back to back as
    ``codes`` (text ``t`` has ``lengths[t]`` code points).

    The texts are laid out with ``pad`` empty slots before each one and
    after the last; text ``t`` starts at row ``base[t]``.  Returns
    ``(masks, base)``: ``masks[r, w]`` is the mask of the ``w + 1``
    characters from row ``r``, or :data:`_OUTSIDE` where they do not all
    lie in one text, so a reader may start up to ``pad`` rows before or
    after a text without a bounds check.
    """
    spans = lengths + pad
    base = pad + np.cumsum(spans) - spans
    rows = csr_gather_indices(base, base + lengths)
    bits = np.zeros(pad + int(spans.sum()), dtype=np.uint64)
    bits[rows] = np.left_shift(np.uint64(1), (codes % 64).astype(np.uint64))
    room = np.zeros(bits.size, dtype=np.int64)  # characters left in the text
    room[rows] = np.repeat(base + lengths, lengths) - rows
    masks = np.empty((bits.size, window), dtype=np.uint64)
    masks[:, 0] = bits
    for width in range(1, window):
        np.bitwise_or(masks[:-width, width - 1], bits[width:], out=masks[:-width, width])
    masks[np.arange(window) >= room[:, np.newaxis]] = _OUTSIDE
    return masks, base


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
        self._window = dataset.kappa + tau
        self._reach = np.arange(-tau, tau + 1)

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

    def _box_values(self, ids: np.ndarray, query: str, plan: _QueryPlan) -> np.ndarray:
        """The ``(len(ids), m)`` matrix of content-bound box values.

        "data"-side candidates align their own pivotal grams against the
        query text; "query"-side candidates align the query's pivotal grams
        against their record.  Box ``(i, j)``'s value is the minimum
        ``ceil(popcount(mask(gram) XOR mask(substring)) / 2)`` over every
        substring of its text starting within ``tau`` of the gram position
        (lengths up to ``kappa + tau``), capped by the full-deletion bound.
        In an optimal edit script of cost at most ``tau`` the gram is
        aligned to one of these substrings at cost ``c_ij``, and the
        content bound of that substring is at most ``c_ij``; so the chain
        check driven by these values never rejects a true result.

        The query and the query-side records go into one table of
        substring masks (:func:`_substring_masks`, padded by ``2 tau``:
        a candidate's length is within ``tau`` of the query's, so no gram
        sits more than ``tau - kappa`` past its text's end), and one
        ``(boxes, 2 tau + 1, kappa + tau)`` block of it is gathered and
        reduced.
        """
        m = self._m
        columns = self._dataset.columns()
        side_data = self._last_rank[ids] <= plan.last_prefix_rank
        ids_query = ids[~side_data]
        starts, lengths = columns.offsets[ids_query], self._lengths[ids_query]
        record_codes = columns.codes[csr_gather_indices(starts, starts + lengths)]
        masks, base = _substring_masks(
            np.concatenate([code_points([query])[0], record_codes]),
            np.concatenate([[len(query)], lengths]),
            2 * self._tau,
            self._window,
        )
        gram_masks = np.empty((ids.size, m), dtype=np.uint64)
        rows = np.empty((ids.size, m), dtype=np.int64)
        ids_data = ids[side_data]
        gram_masks[side_data] = self._piv_mask_mat[ids_data]
        rows[side_data] = self._piv_pos_mat[ids_data] + base[0]
        gram_masks[~side_data] = [character_mask(gram.gram) for gram in plan.pivotal]
        rows[~side_data] = base[1:, np.newaxis] + [gram.position for gram in plan.pivotal]
        gram_masks = gram_masks.reshape(-1)
        block = masks[rows.reshape(-1, 1) + self._reach]
        block ^= gram_masks[:, np.newaxis, np.newaxis]
        nearest = np.bitwise_count(block).reshape(gram_masks.size, -1).min(axis=1)
        values = np.minimum(nearest, np.bitwise_count(gram_masks)).astype(np.int64)
        return ((values + 1) >> 1).reshape(ids.size, m)

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
