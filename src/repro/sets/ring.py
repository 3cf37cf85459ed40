"""Pigeonring-accelerated set similarity search (Section 6.2).

The searcher follows the paper's pkwise-based filtering instance:

* **Extract** -- each record is split into its pkwise prefix and suffix; the
  prefix is further split into ``m - 1`` token classes.
* **Box** -- ``b_0`` is the suffix overlap (never computed: reaching it makes
  the object a candidate immediately, as in the paper), ``b_k`` for
  ``k >= 1`` is the class-``k`` prefix/prefix overlap, maintained as a counter
  by the inverted-index probe.
* **Bound** -- ``D(tau) = tau`` with the per-pair overlap threshold; the
  allocation ``T = (|q| - p_q + 1, t_1, ..., t_{m-1})`` with
  ``t_k = min(k, cnt(q, p_q, k) + 1)`` sums to ``tau + m - 1`` and Theorem 7
  (``>=`` direction) provides the chain condition.

``chain_length=1`` reproduces the pkwise baseline exactly.

Every stage runs over flat numpy arrays, a batch of candidates at a time:
the records are read in CSR form (:meth:`repro.sets.dataset.SetDataset.
columns`), the index is built from them without a per-record loop (token
classes, the running k-wise budget and the prefix lengths as segmented
cumsums, the postings from one sort of the prefix (token, object) pairs),
the prefix inverted index is CSR postings probed with one
``searchsorted`` per query prefix, the per-(object, class) counters come out
of one grouped ``bincount``, the length filter, chain condition and
suffix-box bound are evaluated over the whole touched-object array at once,
and verification counts every candidate's overlap with one ``searchsorted``
sweep.  Candidates and results are emitted ascending by id.  Scratch
buffers are thread-local, so concurrent searches on one searcher stay safe.

Edge cases that the synthetic workloads do hit are handled conservatively to
preserve exactness:

* a data record whose full token sequence cannot cover the k-wise budget
  (tiny records at low thresholds) is kept in an *always-candidate* list and
  only length-filtered;
* a query with the same deficiency falls back to the plain prefix filter
  (share one prefix token) and skips the chain check for that query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.obs import span
from repro.common.scratch import (
    PerThread,
    Scratch,
    csr_gather_indices,
    grouped_counts,
    segment_sums,
    sorted_member_mask,
)
from repro.common.stats import SearchResult, Timer
from repro.sets.dataset import SetDataset
from repro.sets.prefix import class_counts, pkwise_prefix_length

#: Records per step of the index build; bounds its per-token temporaries.
_CHUNK = 4096


def _kwise_budget(classes: list[int], num_classes: int) -> int:
    """``sum_k max(0, cnt(x, |x|, k) - k + 1)``: the most a whole record can cover."""
    counts = class_counts(classes, len(classes), num_classes)
    return sum(max(0, counts[k] - k + 1) for k in range(1, num_classes + 1))


def _running_count(flags: np.ndarray, bounds: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per position, the set ``flags`` from its record's start up to and
    including it (records split at ``bounds``, of ``sizes`` positions)."""
    counts = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=counts[1:])
    return counts[1:] - np.repeat(counts[bounds[:-1]], sizes)


class RingSetSearcher:
    """Pigeonring searcher for set similarity.

    Args:
        dataset: the indexed collection.
        predicate: an :class:`repro.sets.similarity.OverlapPredicate` or
            :class:`repro.sets.similarity.JaccardPredicate`.
        chain_length: chain length ``l``; the paper finds ``l = 2`` best.
    """

    def __init__(self, dataset: SetDataset, predicate, chain_length: int = 2):
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        self._dataset = dataset
        self._predicate = predicate
        self._num_classes = dataset.num_classes
        self._m = self._num_classes + 1
        self._chain_length = min(chain_length, self._m)
        columns = dataset.columns()
        self._tokens = columns.tokens
        self._offsets = columns.offsets
        self._sizes = columns.sizes
        self._build_index()
        self._scratch: PerThread = PerThread(Scratch)

    @property
    def chain_length(self) -> int:
        return self._chain_length

    @property
    def dataset(self) -> SetDataset:
        return self._dataset

    def _build_index(self) -> None:
        """The pkwise prefix postings as CSR keyed by token rank.

        A record's prefix is the shortest one whose k-wise budget
        ``sum_k max(0, cnt(x, p, k) - k + 1)`` reaches ``|x| - t + 1``
        (:func:`repro.sets.prefix.pkwise_prefix_length`).  A token raises
        the budget by one exactly when it is at least the ``k``-th class-``k``
        token of its record, so over the flat token array the running budget
        is a segmented cumsum, and the prefix length is one plus the number
        of positions still short of the target.  Records go through in
        chunks of :data:`_CHUNK`, which bounds the per-token temporaries.

        A record that can never reach the required overlap (``t > |x|``)
        matches nothing and stays out of the index; an empty record, or one
        whose whole budget falls short of the target, is kept as an
        always-candidate for exactness.
        """
        sizes, offsets = self._sizes, self._offsets
        # The required overlap depends on the size alone: one scalar call
        # per distinct size.
        distinct, slot = np.unique(sizes, return_inverse=True)
        required = np.asarray(
            [self._predicate.index_required_overlap(int(size)) for size in distinct],
            dtype=np.int64,
        )[slot]
        targets = sizes - required + 1  # > 0 iff the record can reach t
        prefix_lengths = np.zeros(sizes.size, dtype=np.int64)
        always = sizes == 0
        pairs: list[np.ndarray] = []  # token * n + object, per chunk
        for lo in range(0, sizes.size, _CHUNK):
            hi = min(lo + _CHUNK, sizes.size)
            record_sizes, target = sizes[lo:hi], targets[lo:hi]
            bounds = offsets[lo : hi + 1] - offsets[lo]
            tokens = self._tokens[offsets[lo] : offsets[hi]]
            classes = tokens % self._num_classes + 1
            increments = np.zeros(tokens.size, dtype=bool)
            for k in range(1, self._num_classes + 1):
                of_class = classes == k
                increments |= of_class & (_running_count(of_class, bounds, record_sizes) >= k)
            budget = _running_count(increments, bounds, record_sizes)
            reachable = target > 0
            indexed = reachable & (segment_sums(increments, bounds) >= target)
            uncovered = reachable & ~indexed
            always[lo:hi] |= uncovered
            short = segment_sums(budget < np.repeat(target, record_sizes), bounds)
            lengths = np.where(indexed, short + 1, 0)
            prefix_lengths[lo:hi] = np.where(uncovered, record_sizes, lengths)
            position = np.arange(tokens.size, dtype=np.int64) - np.repeat(bounds[:-1], record_sizes)
            in_prefix = position < np.repeat(lengths, record_sizes)
            objects = np.repeat(np.arange(lo, hi, dtype=np.int64), record_sizes)[in_prefix]
            pairs.append(tokens[in_prefix] * sizes.size + objects)
        # One sort of the (token, object) pairs: postings keyed by token,
        # each list ascending by id.
        keys = np.concatenate(pairs)
        del pairs
        keys.sort()
        tokens, self._post_objs = np.divmod(keys, sizes.size)
        del keys
        heads = np.flatnonzero(np.diff(tokens, prepend=-1))
        self._post_keys = tokens[heads]
        self._post_offsets = np.append(heads, tokens.size)
        self._always = np.flatnonzero(always)
        self._prefix_lengths = prefix_lengths
        last_prefix = np.full(sizes.size, -1, dtype=np.int64)
        has_prefix = prefix_lengths > 0
        last_prefix[has_prefix] = self._tokens[
            offsets[:-1][has_prefix] + prefix_lengths[has_prefix] - 1
        ]
        self._last_prefix = last_prefix

    def _query_plan(self, encoded_query: list[int]):
        """The query prefix length, threshold allocation and fallback flag."""
        required = self._predicate.query_required_overlap(len(encoded_query))
        target = len(encoded_query) - required + 1
        if target <= 0:
            return None
        classes = self._dataset.order.classes_of(encoded_query)
        fallback = _kwise_budget(classes, self._num_classes) < target
        prefix_length = pkwise_prefix_length(classes, self._num_classes, required)
        counts = class_counts(classes, prefix_length, self._num_classes)
        thresholds = [len(encoded_query) - prefix_length + 1]
        for k in range(1, self._num_classes + 1):
            thresholds.append(k if counts[k] >= k else counts[k] + 1)
        return prefix_length, thresholds, fallback

    # -- candidate generation ----------------------------------------------

    def candidates(self, query: Sequence[int]) -> list[int]:
        cands, _generated = self._candidates(self._dataset.encode_query(query))
        return cands.tolist()

    def _candidates(self, encoded_query: list[int]) -> tuple[np.ndarray, int]:
        """Candidate ids (ascending) plus the pre-chain candidate count."""
        plan = self._query_plan(encoded_query)
        if plan is None:
            return np.empty(0, dtype=np.int64), 0
        prefix_length, thresholds, fallback = plan
        low, high = self._predicate.length_bounds(len(encoded_query))
        scratch = self._scratch.get()

        always = self._always
        if always.size:
            always_sizes = self._sizes[always]
            always = always[(always_sizes >= low) & (always_sizes <= high)]

        # Step 1: probe the CSR postings with the query prefix and gather the
        # (object, class) pairs that survive the length filter.
        prefix_tokens = np.asarray(encoded_query[:prefix_length], dtype=np.int64)
        if prefix_tokens.size and self._post_keys.size:
            slots = np.searchsorted(self._post_keys, prefix_tokens)
            in_range = slots < self._post_keys.size
            slots = slots[in_range]
            tokens = prefix_tokens[in_range]
            hits = self._post_keys[slots] == tokens
            slots = slots[hits]
            tokens = tokens[hits]
            starts = self._post_offsets[slots]
            ends = self._post_offsets[slots + 1]
            gather = csr_gather_indices(starts, ends, scratch)
            objs = self._post_objs[gather]
            classes = np.repeat(tokens % self._num_classes + 1, ends - starts)
            sizes = self._sizes[objs]
            keep = (sizes >= low) & (sizes <= high)
            objs = objs[keep]
            classes = classes[keep]
        else:
            objs = np.empty(0, dtype=np.int64)
            classes = objs

        if fallback:
            # Degenerate query: plain prefix filter (share one prefix token).
            touched = np.unique(objs)
            generated = int(touched.size + always.size)
            return _sorted_union(always, touched), generated

        # Step 2: per-(object, class) counters for every touched object, then
        # the chain condition over the whole candidate array at once.
        touched, counters = grouped_counts(objs, classes, self._m)
        generated = int(touched.size + always.size)
        if touched.size:
            passing = self._chain_check(
                touched, counters, thresholds, encoded_query, prefix_length
            )
            touched = touched[passing]
        return _sorted_union(always, touched), generated

    def _chain_check(
        self,
        touched: np.ndarray,
        counters: np.ndarray,
        thresholds: list[int],
        encoded_query: list[int],
        prefix_length: int,
    ) -> np.ndarray:
        """A prefix-viable chain (>= direction, integer reduction).

        ``counters`` is the ``(num_touched, m)`` per-class counter matrix;
        the return value is a boolean mask over ``touched``.  Boxes are
        ``b_0`` (suffix, never computed -- reaching it passes the object, as
        in the paper) and ``b_k = counters[:, k]`` for the classes.  Chains
        starting at witness class boxes are checked exactly; a chain that
        would start at the suffix box cannot be evaluated cheaply, so a
        cheap upper bound on ``b_0`` decides whether it might exist -- if so
        the object is conservatively kept, which preserves exactness.
        """
        m = self._m
        length = self._chain_length
        thresholds_arr = np.asarray(thresholds, dtype=np.int64)
        passed = np.zeros(touched.size, dtype=bool)
        witness = np.zeros(touched.size, dtype=bool)
        for start in range(1, self._num_classes + 1):
            alive = counters[:, start] >= thresholds_arr[start]
            witness |= alive
            if not alive.any():
                continue
            alive = alive.copy()
            running = np.zeros(touched.size, dtype=np.int64)
            bound = 0
            for offset in range(length):
                box = (start + offset) % m
                if box == 0:
                    # Suffix box reached: every still-alive candidate passes.
                    break
                running += counters[:, box]
                bound += int(thresholds_arr[box])
                alive &= running >= bound - offset
                if not alive.any():
                    break
            passed |= alive
        if length == 1 or not witness.any():
            # Every result has a witness class (one-sided k-wise argument),
            # so objects without one cannot be results; with l = 1 the class
            # witness itself is the complete pkwise condition.
            return passed
        remaining = np.flatnonzero(witness & ~passed)
        if not remaining.size:
            return passed
        # A prefix-viable chain might still start at the suffix box b_0.  Its
        # first prefix needs b_0 >= t_0; bound b_0 from above without touching
        # the suffix: it cannot exceed the data suffix size (when the data
        # prefix ends first), the query suffix size (otherwise), or the query
        # tokens not already matched by prefix classes.
        query_last_prefix = encoded_query[prefix_length - 1] if prefix_length else -1
        query_suffix_size = len(encoded_query) - prefix_length
        ids = touched[remaining]
        suffix_bound = np.where(
            self._last_prefix[ids] <= query_last_prefix,
            self._sizes[ids] - self._prefix_lengths[ids],
            query_suffix_size,
        )
        shared_total = counters[remaining, 1:].sum(axis=1)
        np.minimum(suffix_bound, len(encoded_query) - shared_total, out=suffix_bound)
        passed[remaining] |= suffix_bound >= thresholds_arr[0]
        return passed

    # -- search -------------------------------------------------------------

    def search(self, query: Sequence[int]) -> SearchResult:
        timer = Timer()
        with span("candidates"):
            encoded_query = self._dataset.encode_query(query)
            cands, generated = self._candidates(encoded_query)
        candidate_time = timer.restart()
        with span("verify"):
            query_arr = np.asarray(encoded_query, dtype=np.int64)
            if cands.size:
                starts = self._offsets[cands]
                ends = self._offsets[cands + 1]
                gather = csr_gather_indices(starts, ends, self._scratch.get())
                flat = self._tokens[gather]
                hits = sorted_member_mask(query_arr, flat)
                boundaries = np.zeros(cands.size + 1, dtype=np.int64)
                np.cumsum(ends - starts, out=boundaries[1:])
                overlaps = segment_sums(hits, boundaries)
                required = self._predicate.pair_required_overlap_array(
                    self._sizes[cands], len(encoded_query)
                )
                results = cands[overlaps >= required]
            else:
                results = cands
        verify_time = timer.elapsed()
        return SearchResult(
            results=results.tolist(),
            candidates=cands.tolist(),
            candidate_time=candidate_time,
            verify_time=verify_time,
            extra={"generated": generated, "verified": int(cands.size)},
        )


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending union of two disjoint id arrays (always-candidates are
    never indexed, so probe hits cannot repeat them)."""
    if not a.size:
        return b
    if not b.size:
        return a
    return np.sort(np.concatenate([a, b]))
