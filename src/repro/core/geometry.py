"""Geometric interpretation of the strong pigeonring principle (Appendix A).

Define ``g(0) = 0`` and ``g(x) = b_0 + ... + b_{x-1}`` for ``x`` in
``[1 .. 2m - 1]`` (the ring unrolled twice).  For every start ``x`` the line
through ``(x, g(x))`` and ``(x + m, g(x + m))`` has slope ``||B||_1 / m``.
Taking the line with the greatest y-intercept and calling its left endpoint
``i``, every secant from ``(i, g(i))`` to a later point of the graph has slope
at most ``||B||_1 / m``; equivalently the chain ``c_i^l`` is prefix-viable for
every ``l``.  This yields a *constructive* witness for Theorem 3, which the
property tests compare against the exhaustive witness search in
:mod:`repro.core.principle`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.chains import is_prefix_viable
from repro.core.principle import pigeonhole_bound


def cumulative_sums(boxes: Sequence[float]) -> list[float]:
    """``g(x)`` for ``x in [0 .. 2m - 1]`` -- prefix sums of the ring unrolled twice."""
    m = len(boxes)
    if m == 0:
        raise ValueError("cumulative_sums requires a non-empty ring of boxes")
    sums = [0.0]
    for x in range(1, 2 * m):
        sums.append(sums[-1] + boxes[(x - 1) % m])
    return sums


def line_intercept(boxes: Sequence[float], start: int) -> float:
    """Y-intercept of the line through ``(start, g(start))`` with slope ``||B||_1 / m``."""
    m = len(boxes)
    if not 0 <= start <= m - 1:
        raise ValueError(f"start must be in [0, {m - 1}], got {start}")
    sums = cumulative_sums(boxes)
    slope = sum(boxes) / m
    return sums[start] - slope * start


def max_intercept_start(boxes: Sequence[float]) -> int:
    """The starting index whose line has the greatest y-intercept.

    Ties are broken towards the smallest index, matching the "break ties
    arbitrarily" freedom in the paper.
    """
    m = len(boxes)
    best_start = 0
    best_intercept = line_intercept(boxes, 0)
    for start in range(1, m):
        intercept = line_intercept(boxes, start)
        if intercept > best_intercept + 1e-12:
            best_intercept = intercept
            best_start = start
    return best_start


def constructive_prefix_viable_start(boxes: Sequence[float], n: float) -> int | None:
    """A starting index from which every chain length is prefix-viable.

    Returns the max-intercept start when ``||B||_1 <= n`` (Theorem 3 then
    guarantees it works for quota ``n / m``), and ``None`` when the premise
    fails (in which case no guarantee exists, although a witness may still
    exist for some layouts).
    """
    if sum(boxes) > n + 1e-12:
        return None
    return max_intercept_start(boxes)


def verify_geometric_witness(boxes: Sequence[float], n: float) -> bool:
    """Check that the constructive start is prefix-viable at every length.

    Used by tests as an end-to-end validation of the Appendix-A argument:
    whenever ``||B||_1 <= n``, the start returned by
    :func:`constructive_prefix_viable_start` must satisfy the strong form for
    every ``l`` in ``[1 .. m]``.
    """
    start = constructive_prefix_viable_start(boxes, n)
    if start is None:
        return True
    m = len(boxes)
    quota = pigeonhole_bound(n, m)
    return all(is_prefix_viable(boxes, start, length, quota) for length in range(1, m + 1))
