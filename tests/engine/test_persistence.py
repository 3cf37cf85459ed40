"""Index containers: build once, save, reload, serve identical results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Query, SearchEngine, load_container
from repro.engine.persistence import save_container


@pytest.mark.parametrize("name", ["hamming", "sets", "strings", "graphs"])
def test_save_load_round_trip_serves_identical_results(
    tmp_path, engine, query_payloads, taus, name
):
    directory = str(tmp_path / name)
    engine.save_index(name, directory, queries=query_payloads[name])

    fresh = SearchEngine()
    container = fresh.load_index(directory)
    assert container.backend.name == name
    assert len(container.queries) == len(query_payloads[name])

    for payload, reloaded_payload in zip(query_payloads[name], container.queries):
        for algorithm in ("ring", "baseline", "linear"):
            built = engine.search(
                Query(backend=name, payload=payload, tau=taus[name], algorithm=algorithm)
            )
            reloaded = fresh.search(
                Query(
                    backend=name,
                    payload=reloaded_payload,
                    tau=taus[name],
                    algorithm=algorithm,
                )
            )
            assert sorted(built.ids) == sorted(reloaded.ids)


def test_hamming_partition_index_is_not_rebuilt(tmp_path, engine, datasets):
    """The persisted partition index reloads bit-identical from the container."""
    directory = str(tmp_path / "hamming")
    engine.save_index("hamming", directory)
    container = load_container(directory)
    original = engine.store("hamming").index
    restored = container.store.index
    for part in range(original.m):
        np.testing.assert_array_equal(original.distinct_codes(part), restored.distinct_codes(part))
        for position in range(len(original.distinct_codes(part))):
            np.testing.assert_array_equal(
                original.postings(part, position), restored.postings(part, position)
            )


def test_manifest_describes_container(tmp_path, engine):
    directory = str(tmp_path / "sets")
    manifest = engine.save_index("sets", directory)
    assert manifest["backend"] == "sets"
    assert manifest["descriptor"]["num_objects"] == len(engine.store("sets"))


def test_loading_a_non_container_fails(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        load_container(str(tmp_path))


def test_unsupported_format_version_rejected(tmp_path, engine):
    directory = str(tmp_path / "strings")
    engine.save_index("strings", directory)
    manifest_path = tmp_path / "strings" / "manifest.json"
    text = manifest_path.read_text()
    assert '"format_version": 5' in text
    manifest_path.write_text(text.replace('"format_version": 5', '"format_version": 99'))
    with pytest.raises(ValueError, match="unsupported container format 99.*build-index"):
        load_container(directory)


def test_save_container_without_queries(tmp_path):
    from repro.engine import get_backend
    from repro.strings import StringDataset

    backend = get_backend("strings")
    store = StringDataset(["alpha", "beta", "gamma"])
    save_container(backend, store, str(tmp_path / "s"))
    container = load_container(str(tmp_path / "s"))
    assert container.queries is None
    assert container.store.records == ["alpha", "beta", "gamma"]
