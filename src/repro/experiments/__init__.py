"""Experiment harness regenerating the paper's evaluation figures.

Every figure of the paper's Section 8 has a function in
:mod:`repro.experiments.figures` that builds the corresponding synthetic
workload, runs the searchers, and returns the same series the paper plots
(average candidates per query, average search time, per chain length or per
threshold).  The benchmark modules under ``benchmarks/`` call these functions,
print the rows and assert the paper's qualitative claims on them.
"""

from repro.experiments.harness import (
    ChainLengthRow,
    ComparisonRow,
    format_rows,
    run_workload,
)

__all__ = ["ChainLengthRow", "ComparisonRow", "format_rows", "run_workload"]
