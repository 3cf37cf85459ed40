"""Graph edit distance (exact, threshold-limited).

The edit operations follow the paper: insert / delete an isolated labelled
vertex, change a vertex label, insert / delete a labelled edge, change an edge
label, all with unit cost.  The distance is computed over vertex mappings: the
cost of a mapping is the number of vertex insertions, deletions and
relabelings it implies plus the number of edge mismatches it induces, and the
edit distance is the minimum over injective partial mappings.

A branch-and-bound search with a label-multiset lower bound makes the
threshold decision (``ged <= tau``) practical for the molecule-sized graphs
used in the synthetic workloads; this is the verification step of both the
Pars baseline and the Ring searcher.  It runs over
:class:`repro.graphs.columns.EncodedGraph` arrays: vertices and labels are
ints, an edge test is a row lookup, and the label surplus of the unmapped
remainder is updated on assign / unassign instead of recounted.
"""

from __future__ import annotations

from typing import Mapping

from repro.graphs.columns import EncodedGraph, encode_pair
from repro.graphs.graph import Graph

_UNASSIGNED = -2
_DELETED = -1


def _surplus(counts_a: Mapping, counts_b: Mapping) -> int:
    """``max`` of the two one-sided multiset differences of two label counts."""
    over_a = sum(max(0, count - counts_b.get(label, 0)) for label, count in counts_a.items())
    common = sum(counts_a.values()) - over_a
    return max(over_a, sum(counts_b.values()) - common)


def _label_multiset_lower_bound(
    labels_a: Mapping, labels_b: Mapping, edges_a: Mapping, edges_b: Mapping
) -> int:
    """Lower bound of the edit distance from label multiset differences.

    The arguments map a label to its multiplicity.  Vertices: every surplus
    label on either side needs a relabel or an insert/delete;
    ``max(surplus_a, surplus_b)`` relabelings plus the size difference is a
    valid bound.  Edges contribute analogously, but edge edits forced by
    vertex edits overlap, so only the vertex part and the edge count
    difference are combined (a conservative, admissible bound).
    """
    return max(_surplus(labels_a, labels_b), _surplus(edges_a, edges_b))


def encoded_distance(e1: EncodedGraph, e2: EncodedGraph, cap: int) -> tuple[int, int]:
    """``(min(ged, cap + 1), branch-and-bound nodes expanded)`` of two encoded graphs.

    Both graphs must be coded over the same codebooks.
    """
    bound = _label_multiset_lower_bound(
        e1.vertex_counts, e2.vertex_counts, e1.edge_counts, e2.edge_counts
    )
    if bound > cap:  # always so for a negative cap: the bound is at least 0
        return cap + 1, 0

    n1, n2 = e1.n, e2.n
    labels1, labels2 = e1.labels, e2.labels
    adj1, adj2 = e1.adj, e2.adj
    nbrs1, nbrs2 = e1.nbrs, e2.nbrs
    edges2 = e2.edges
    order = e1.order
    image_of = [_UNASSIGNED] * n1  # g1 vertex -> g2 vertex, or _DELETED
    preimage = [-1] * n2  # g2 vertex -> g1 vertex, -1 while unused
    # Unmapped g1 labels minus unused g2 labels; ``pos`` / ``neg`` are the sums
    # of its positive / negative entries, whose larger is the completion bound.
    diff = dict(e1.vertex_counts)
    for code, count in e2.vertex_counts.items():
        diff[code] = diff.get(code, 0) - count
    # Edges still to be charged: a g1 edge when its later endpoint in ``order``
    # is processed (``pending1``, per depth), a g2 edge when its second
    # endpoint is used or at the end (``pending2``).  Each pending g1 edge
    # pairs with at most one pending g2 edge, so their count difference is
    # owed on top of the vertex bound.
    pending1 = e1.pending
    best = cap + 1
    nodes = 0

    def finish_cost() -> int:
        """Inserting every unused g2 vertex and every g2 edge touching one."""
        cost = preimage.count(-1)
        for u, v in edges2:
            if preimage[u] < 0 or preimage[v] < 0:
                cost += 1
        return cost

    def backtrack(index: int, cost: int, pos: int, neg: int, pending2: int) -> None:
        """Expand the node at depth ``index``; its own bound was checked by the caller."""
        nonlocal best, nodes
        nodes += 1
        if index == n1:
            total = cost + finish_cost()
            if total < best:
                best = total
            return
        vertex = order[index]
        label = labels1[vertex]
        row1 = adj1[vertex]
        owed1 = pending1[index + 1]
        # Earlier-assigned g1 neighbours: (image, edge label) of the mapped
        # ones; an edge to a deleted neighbour is deleted whatever the image.
        mapped = []
        deleted = 0
        for neighbor in nbrs1[vertex]:
            neighbor_image = image_of[neighbor]
            if neighbor_image >= 0:
                mapped.append((neighbor_image, row1[neighbor]))
            elif neighbor_image == _DELETED:
                deleted += 1
        # Taking ``label`` out of the unmapped g1 side of ``diff``.
        before = diff[label]
        diff[label] = before - 1
        if before > 0:
            pos_out, neg_out = pos - 1, neg
        else:
            pos_out, neg_out = pos, neg + 1
        for image in range(n2):
            if preimage[image] >= 0:
                continue
            image_label = labels2[image]
            total = cost + deleted if image_label == label else cost + deleted + 1
            row2 = adj2[image]
            for neighbor_image, edge_label in mapped:
                if row2[neighbor_image] != edge_label:
                    total += 1  # delete or relabel the g1 edge
            owed2 = pending2
            for other in nbrs2[image]:
                other_preimage = preimage[other]
                if other_preimage >= 0:
                    owed2 -= 1  # this g2 edge is charged now or matched
                    if not row1[other_preimage]:
                        total += 1  # no g1 counterpart: it is inserted
            if total >= best:
                continue
            # Taking ``image_label`` out of the unused g2 side of ``diff``.
            current = diff[image_label]
            if current < 0:
                pos_in, neg_in = pos_out, neg_out - 1
            else:
                pos_in, neg_in = pos_out + 1, neg_out
            gap = owed1 - owed2 if owed1 > owed2 else owed2 - owed1
            if total + (pos_in if pos_in > neg_in else neg_in) + gap >= best:
                continue
            diff[image_label] = current + 1
            image_of[vertex] = image
            preimage[image] = vertex
            backtrack(index + 1, total, pos_in, neg_in, owed2)
            preimage[image] = -1
            diff[image_label] = current
            if cost >= best:
                break  # nothing below this node can improve on ``best`` any more
        # Delete the vertex and its edges to every assigned neighbour.
        total = cost + 1 + deleted + len(mapped)
        gap = owed1 - pending2 if owed1 > pending2 else pending2 - owed1
        if total + (pos_out if pos_out > neg_out else neg_out) + gap < best:
            image_of[vertex] = _DELETED
            backtrack(index + 1, total, pos_out, neg_out, pending2)
        image_of[vertex] = _UNASSIGNED
        diff[label] = before

    pos = sum(count for count in diff.values() if count > 0)
    backtrack(0, 0, pos, pos - sum(diff.values()), len(edges2))
    return best, nodes


def graph_edit_distance(g1: Graph, g2: Graph, upper_bound: int | None = None) -> int:
    """Exact graph edit distance, optionally capped at ``upper_bound``.

    When ``upper_bound`` is given and the true distance exceeds it, the value
    ``upper_bound + 1`` is returned.
    """
    e1, e2 = encode_pair(g1, g2)
    cap = upper_bound if upper_bound is not None else e1.n + e2.n + e1.num_edges + e2.num_edges
    return encoded_distance(e1, e2, cap)[0]


def ged_within(g1: Graph, g2: Graph, tau: int) -> bool:
    """Whether ``ged(g1, g2) <= tau``."""
    if tau < 0:
        return False
    return graph_edit_distance(g1, g2, upper_bound=tau) <= tau
