"""Per-partition inverted index for Hamming distance search.

For each partition the index groups data-object ids by their part code.  At
query time the distinct codes of a partition are compared against the query's
code with a vectorised XOR + popcount, which yields, for every distinct code,
its distance to the query part.  The first step of candidate generation then
selects the codes within the partition's threshold and emits their object
ids -- exactly the viable single boxes of Section 7 -- and the same per-code
distances drive the GPH cost model.

The original GPH implementation enumerates all codes within distance ``t_i``
of the query code (bit-flip enumeration), which is the right trade-off in C++
with small thresholds.  Scanning the distinct codes vectorised in numpy
produces the identical set of viable boxes with far better constants in
Python; the substitution does not change any candidate count (ENGINE.md
section 8 describes the regime in which the scan stops growing with ``n``).

The index is columnar: the distinct codes of all partitions sit in one flat
array at their native width (partition ``p`` owns ``[bounds[p], bounds[p +
1])``), and the postings are one CSR -- a flat ``members`` array in which
partition ``p`` owns ``[p * n, (p + 1) * n)``, plus one ``offsets`` entry per
distinct code.  A query therefore costs one XOR + popcount per partition
into one flat distance array, and one CSR gather for all partitions' viable
codes (:class:`PartScan`).  The container format is the per-partition arrays of
:meth:`PartitionIndex.state`, unchanged since the first container version.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.common.scratch import Scratch, csr_gather_indices
from repro.hamming.bitvec import code_hamming_distances
from repro.hamming.dataset import BinaryVectorDataset

_EMPTY = np.empty(0, dtype=np.int64)


class PartitionIndex:
    """Inverted index from (partition, part code) to data-object ids."""

    def __init__(self, dataset: BinaryVectorDataset):
        codes = dataset.part_codes
        groups = []
        for part in range(dataset.m):
            column = codes[:, part]
            # A stable sort keeps object ids ascending within each code group,
            # matching the historical nonzero()-based postings order.
            order = np.argsort(column, kind="stable")
            distinct, starts = np.unique(column[order], return_index=True)
            groups.append((distinct, starts, order))
        self._assemble(dataset, groups)

    def _assemble(
        self,
        dataset: BinaryVectorDataset,
        groups: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Lay per-partition ``(distinct codes, group starts, members)`` out flat."""
        n = len(dataset)
        self._dataset = dataset
        self._codes = np.concatenate([distinct for distinct, _, _ in groups]).astype(
            dataset.partitioning.code_dtype, copy=False
        )
        self._bounds = [0]
        for distinct, _, _ in groups:
            self._bounds.append(self._bounds[-1] + distinct.size)
        self._offsets = np.empty(self._bounds[-1] + 1, dtype=np.int64)
        for part, (_, starts, _) in enumerate(groups):
            self._offsets[self._bounds[part] : self._bounds[part + 1]] = starts + part * n
        self._offsets[-1] = n * len(groups)
        self._members = np.concatenate([members for _, _, members in groups]).astype(
            np.int64, copy=False
        )
        # The cost model reads only the first few histogram entries of a
        # part, so only codes this near the query are counted eagerly (a
        # quarter of the width: ~0.4% of uniformly spread 32-bit codes).
        self._horizon = max(dataset.partitioning.widths) // 4

    @classmethod
    def from_state(
        cls, dataset: BinaryVectorDataset, state: Mapping[str, np.ndarray]
    ) -> "PartitionIndex":
        """Restore an index from :meth:`state` arrays without rebuilding it."""
        index = cls.__new__(cls)
        index._assemble(
            dataset,
            [
                (
                    np.asarray(state[f"codes_{part}"]),
                    np.asarray(state[f"offsets_{part}"])[:-1],
                    np.asarray(state[f"members_{part}"]),
                )
                for part in range(dataset.m)
            ],
        )
        return index

    def state(self) -> dict[str, np.ndarray]:
        """Flat arrays fully describing the index (for ``np.savez`` containers)."""
        n = len(self._dataset)
        arrays: dict[str, np.ndarray] = {}
        for part in range(self.m):
            lo, hi = self._bounds[part], self._bounds[part + 1]
            arrays[f"codes_{part}"] = self._codes[lo:hi].astype(np.int64)
            arrays[f"offsets_{part}"] = self._offsets[lo : hi + 1] - part * n
            arrays[f"members_{part}"] = self._members[part * n : (part + 1) * n]
        return arrays

    @property
    def dataset(self) -> BinaryVectorDataset:
        return self._dataset

    @property
    def m(self) -> int:
        return self._dataset.m

    def distinct_codes(self, part: int) -> np.ndarray:
        """The distinct part codes present in the data for one partition."""
        return self._codes[self._bounds[part] : self._bounds[part + 1]]

    def postings(self, part: int, code_position: int) -> np.ndarray:
        """Object ids whose part code is the ``code_position``-th distinct code."""
        slot = self._bounds[part] + code_position
        return self._members[self._offsets[slot] : self._offsets[slot + 1]]

    def code_distances(self, part: int, query_code: int) -> np.ndarray:
        """Distances from the query's part code to every distinct code of the partition."""
        return code_hamming_distances(query_code, self.distinct_codes(part))

    def _histogram(self, part: int, distances: np.ndarray) -> np.ndarray:
        lo, hi = self._bounds[part], self._bounds[part + 1]
        width = self._dataset.partitioning.widths[part]
        sizes = np.diff(self._offsets[lo : hi + 1])
        return np.bincount(distances, weights=sizes, minlength=width + 1).astype(np.int64)

    def distance_histogram(self, part: int, query_code: int) -> np.ndarray:
        """Number of data objects at each part distance ``0 .. width`` from the query.

        This is the exact per-partition candidate-count profile the GPH cost
        model allocates thresholds against.
        """
        return self._histogram(part, self.code_distances(part, query_code))

    def probe_arrays(
        self, part: int, query_code: int, threshold: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ids and part distances of objects within ``threshold`` on this part.

        The postings of every viable code are gathered and their per-code
        distances repeated, so the result is a pair of equally long int64
        arrays.  A negative threshold (the GPH cost model may disable a
        partition by assigning ``-1``) selects nothing.
        """
        if threshold < 0:
            return _EMPTY, _EMPTY
        distances = self.code_distances(part, query_code)
        selected = np.flatnonzero(distances <= threshold)
        slots = selected + self._bounds[part]
        starts, ends = self._offsets[slots], self._offsets[slots + 1]
        ids = self._members[csr_gather_indices(starts, ends)]
        return ids, np.repeat(distances[selected], ends - starts).astype(np.int64)


class PartScan:
    """One query's distances to every distinct code of every partition.

    The single XOR + popcount pass feeds both consumers: the cost model reads
    candidate counts through :meth:`count_at`, the first step reads the
    viable codes through :meth:`first_step`.  The arrays are views into the
    caller's scratch and stay valid until its next scan.
    """

    def __init__(self, index: PartitionIndex, query_codes: np.ndarray, scratch: Scratch):
        self._index = index
        self._scratch = scratch
        codes, bounds = index._codes, index._bounds
        self._distances = scratch.take("hamming_distances", codes.size, np.uint8)
        # A partition has at most n distinct codes; popcounting each one's
        # XOR while it is still in cache beats one pass over all of them.
        xor = scratch.take("hamming_xor", len(index.dataset), codes.dtype)
        for part in range(index.m):
            lo, hi = bounds[part], bounds[part + 1]
            np.bitwise_xor(codes[lo:hi], query_codes[part], out=xor[: hi - lo])
            np.bitwise_count(xor[: hi - lo], out=self._distances[lo:hi])
        # Slots within the horizon, ascending and therefore grouped by part.
        horizon = index._horizon
        self._near = np.flatnonzero(self._distances <= horizon)
        self._near_distances = self._distances[self._near]
        self._cuts = np.searchsorted(self._near, bounds).tolist()
        sizes = index._offsets[self._near + 1] - index._offsets[self._near]
        parts = np.repeat(np.arange(index.m), np.diff(self._cuts))
        heads = np.bincount(
            parts * (horizon + 1) + self._near_distances,
            weights=sizes,
            minlength=index.m * (horizon + 1),
        )
        # Exact up to the horizon; a part's list is replaced by its full
        # histogram the first time the cost model reads beyond it.
        self._histograms = heads.astype(np.int64).reshape(index.m, horizon + 1).tolist()

    def count_at(self, part: int, distance: int) -> int:
        """Number of data objects at exactly ``distance`` from the query on ``part``."""
        histogram = self._histograms[part]
        if distance >= len(histogram):
            if distance > self._index.dataset.partitioning.widths[part]:
                return 0
            lo, hi = self._index._bounds[part], self._index._bounds[part + 1]
            histogram = self._index._histogram(part, self._distances[lo:hi]).tolist()
            self._histograms[part] = histogram
        return histogram[distance]

    def first_step(self, thresholds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """First step: ``(ids, parts)`` of every (object, viable part) pair."""
        index = self._index
        selected = []
        for part, threshold in enumerate(thresholds):
            if threshold < 0:
                continue
            if threshold <= index._horizon:
                lo, hi = self._cuts[part], self._cuts[part + 1]
                viable = self._near_distances[lo:hi] <= threshold
                selected.append(self._near[lo:hi][viable])
            else:
                lo, hi = index._bounds[part], index._bounds[part + 1]
                selected.append(lo + np.flatnonzero(self._distances[lo:hi] <= threshold))
        if not selected:
            return _EMPTY, _EMPTY
        slots = np.concatenate(selected)
        positions = csr_gather_indices(
            index._offsets[slots], index._offsets[slots + 1], self._scratch
        )
        # Partition p owns members[p * n : (p + 1) * n].
        return index._members[positions], positions // len(index.dataset)
