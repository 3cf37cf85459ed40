"""Shared helpers for the per-figure benchmark modules.

Every benchmark regenerates one figure of the paper at a reduced scale (the
``scale`` arguments in each module) with the served searchers and asserts
the figure's shape.  ``--benchmark-disable`` runs them untimed (the CI
gate), ``--benchmark-only`` times them; each benchmark prints the
regenerated series (run with ``-s`` to see them).
"""

from __future__ import annotations


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(title: str, text: str) -> None:
    print(f"\n=== {title} ===\n{text}")
