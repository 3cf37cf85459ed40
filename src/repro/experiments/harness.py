"""Generic experiment drivers shared by all figures.

Two families of drivers coexist here:

* the original callable-based drivers (:func:`run_workload`,
  :func:`chain_length_rows`, :func:`comparison_rows`), which take raw
  ``query -> SearchResult`` functions and are used by the per-figure
  benchmark modules; and
* engine-based drivers (:func:`run_engine_workload`,
  :func:`engine_comparison_rows`), which route the same experiments through
  :class:`repro.engine.SearchEngine` so sweeps benefit from the engine's
  searcher reuse, batching and statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from repro.common.stats import QueryStats, SearchResult


def run_workload(
    search: Callable[[object], SearchResult], queries: Iterable[object]
) -> QueryStats:
    """Run one searcher over a query workload and aggregate the statistics."""
    stats = QueryStats()
    for query in queries:
        stats.add(search(query))
    return stats


def run_engine_workload(
    engine,
    backend: str,
    payloads: Sequence[object],
    tau: float | int,
    chain_length: int | None = None,
    algorithm: str = "ring",
) -> QueryStats:
    """Run one engine configuration over a workload and aggregate statistics."""
    from repro.engine.api import Query  # local import: engine is optional here

    queries = [
        Query(
            backend=backend,
            payload=payload,
            tau=tau,
            chain_length=chain_length,
            algorithm=algorithm,
        )
        for payload in payloads
    ]
    stats = QueryStats()
    for query in queries:
        stats.add(engine.search(query))
    return stats


@dataclass
class ChainLengthRow:
    """One point of an effect-of-chain-length experiment (Figures 5-8)."""

    dataset: str
    tau: float
    chain_length: int
    avg_candidates: float
    avg_results: float
    avg_candidate_time_ms: float
    avg_total_time_ms: float


@dataclass
class ComparisonRow:
    """One point of an algorithm-comparison experiment (Figures 9-12)."""

    dataset: str
    tau: float
    algorithm: str
    avg_candidates: float
    avg_results: float
    avg_candidate_time_ms: float
    avg_total_time_ms: float


def _series(stats: QueryStats) -> tuple[float, float, float, float]:
    """The four plotted series of one row, in both row types' field order."""
    return (
        stats.avg_candidates,
        stats.avg_results,
        stats.avg_candidate_time * 1000.0,
        stats.avg_total_time * 1000.0,
    )


def chain_length_rows(
    dataset_name: str,
    tau: float,
    chain_lengths: Sequence[int],
    make_searcher: Callable[[int], Callable[[object], SearchResult]],
    queries: Sequence[object],
) -> list[ChainLengthRow]:
    """Sweep the chain length and collect candidate / time series."""
    rows = []
    for length in chain_lengths:
        search = make_searcher(length)
        stats = run_workload(search, queries)
        rows.append(ChainLengthRow(dataset_name, tau, length, *_series(stats)))
    return rows


def comparison_rows(
    dataset_name: str,
    tau: float,
    searchers: dict[str, Callable[[object], SearchResult]],
    queries: Sequence[object],
) -> list[ComparisonRow]:
    """Run several algorithms on the same workload and collect their series."""
    rows = []
    for name, search in searchers.items():
        stats = run_workload(search, queries)
        rows.append(ComparisonRow(dataset_name, tau, name, *_series(stats)))
    return rows


def engine_comparison_rows(
    engine,
    backend: str,
    dataset_name: str,
    tau: float | int,
    algorithms: Sequence[str] | dict[str, dict],
    payloads: Sequence[object],
) -> list[ComparisonRow]:
    """Engine-served variant of :func:`comparison_rows` (Figures 9-12).

    ``algorithms`` is either a list of engine algorithm names or a mapping
    from a display name to keyword overrides for
    :func:`run_engine_workload` (e.g. ``{"Ring l=4": {"algorithm": "ring",
    "chain_length": 4}}``).
    """
    if not isinstance(algorithms, dict):
        algorithms = {name: {"algorithm": name} for name in algorithms}
    rows = []
    for name, overrides in algorithms.items():
        stats = run_engine_workload(engine, backend, payloads, tau, **overrides)
        rows.append(ComparisonRow(dataset_name, tau, name, *_series(stats)))
    return rows


def format_rows(rows: Sequence[object]) -> str:
    """Render experiment rows as an aligned text table (one row per line)."""
    if not rows:
        return "(no rows)"
    dicts = [asdict(row) for row in rows]
    headers = list(dicts[0].keys())
    table = [headers] + [
        [
            f"{value:.3f}" if isinstance(value, float) else str(value)
            for value in row.values()
        ]
        for row in dicts
    ]
    widths = [max(len(line[col]) for line in table) for col in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in table
    ]
    return "\n".join(lines)
