"""Smoke test of the repo benchmark (run explicitly: ``pytest benchmarks/perf``).

Tier-1 collects only ``tests/``; this module runs the whole suite at about a
twentieth of its size and checks the benchmark against its own contract.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
RUN = os.path.join(PERF_DIR, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*flags: str) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "5", *flags],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def tracked_files() -> set[str]:
    """Every file of the checkout outside the places a run may write to."""
    found = set()
    for root, dirs, names in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if d not in (".git", "runs", "__pycache__", ".pytest_cache")]
        found.update(os.path.join(root, name) for name in names)
    return found


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(contract) -> dict:
    before = tracked_files()
    results = {}
    for workload in contract["workloads"]:
        name = workload["name"]
        results[name] = {
            "end_to_end": run("--workload", name, "--trace", "0"),
            "per_layer": run("--workload", name, "--trace", "1"),
        }
    results["written"] = tracked_files() - before
    return results


def test_contract_limits(contract):
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    sections = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for section in sections for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(metric["bound"] <= 0.25 for metric in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/perf"]


def test_printed_names_equal_the_contract(contract, suite):
    end_to_end = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
    for workload in contract["workloads"]:
        runs = suite[workload["name"]]
        for mode, expected in (("end_to_end", end_to_end), ("per_layer", per_layer)):
            printed = {name: value["unit"] for name, value in runs[mode]["metrics"].items()}
            assert printed == expected, (workload["name"], mode)


def test_no_operation_fails(contract, suite):
    for workload in contract["workloads"]:
        for run_doc in suite[workload["name"]].values():
            assert run_doc["correct"] and run_doc["failed"] == 0 and run_doc["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(contract, suite):
    for workload in contract["workloads"]:
        for name, value in suite[workload["name"]]["end_to_end"]["metrics"].items():
            assert value["value"] > 0, (workload["name"], name)


def test_traced_self_times_cover_the_op_wall(contract, suite):
    for workload in contract["workloads"]:
        metrics = suite[workload["name"]]["per_layer"]["metrics"]
        assert metrics["bench.trace_coverage"]["value"] >= 0.95, workload["name"]
        path = os.path.join(REPO_ROOT, "runs", "perf", "seed5", f"trace-{workload['name']}.json")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["spans"] and "op" in document["summary"]


def test_only_runs_is_written(suite):
    assert suite["written"] == set()


def test_injected_wrong_id_is_counted():
    result = run("--workload", "sets_inproc", "--trace", "0", "--inject-wrong-id")
    assert result["failed"] == 1 and result["correct"] is False
