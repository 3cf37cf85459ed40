"""Shared fixtures: one small engine serving all four domains."""

from __future__ import annotations

import pytest

from repro.datasets.binary import clustered_binary_workload
from repro.datasets.molecules import aids_like
from repro.datasets.text import name_workload
from repro.datasets.tokens import zipfian_set_workload
from repro.engine import SearchEngine
from repro.graphs import GraphDataset
from repro.hamming import BinaryVectorDataset
from repro.sets import SetDataset
from repro.strings import StringDataset


@pytest.fixture(scope="session")
def workloads():
    return {
        "hamming": clustered_binary_workload(200, 64, 6, seed=5),
        "sets": zipfian_set_workload(150, 8, seed=6),
        "strings": name_workload(120, 6, seed=7),
        "graphs": aids_like(num_graphs=25, num_queries=3, seed=8),
    }


@pytest.fixture(scope="session")
def datasets(workloads):
    return {
        "hamming": BinaryVectorDataset(workloads["hamming"].vectors, num_parts=4),
        "sets": SetDataset(workloads["sets"].records, num_classes=4),
        "strings": StringDataset(workloads["strings"].records, kappa=2),
        "graphs": GraphDataset(workloads["graphs"].graphs),
    }


@pytest.fixture()
def engine(datasets):
    engine = SearchEngine(cache_size=64)
    for name, dataset in datasets.items():
        engine.add_dataset(name, dataset)
    yield engine
    engine.close()


def upsert(target, backend, record, obj_id=None, durability=None):
    """One upsert as a ``mutate`` batch (engine or client); the record's id."""
    op = {"op": "upsert", "record": record, "id": obj_id}
    return target.mutate(backend, [op], durability)["results"][0]["id"]


def delete(target, backend, obj_id, durability=None):
    """One delete as a ``mutate`` batch (engine or client); whether it was live."""
    op = {"op": "delete", "id": obj_id}
    return target.mutate(backend, [op], durability)["results"][0]["deleted"]


DEFAULT_TAUS = {"hamming": 16, "sets": 0.6, "strings": 2, "graphs": 3}


@pytest.fixture(scope="session")
def taus():
    return dict(DEFAULT_TAUS)


@pytest.fixture(scope="session")
def query_payloads(workloads):
    return {
        "hamming": [row for row in workloads["hamming"].queries],
        "sets": list(workloads["sets"].queries),
        "strings": list(workloads["strings"].queries),
        "graphs": list(workloads["graphs"].queries),
    }
