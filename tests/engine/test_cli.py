"""The ``python -m repro.engine`` front end, driven through ``main([...])``.

Tiny synthetic indexes under ``tmp_path``; the serving verbs (``serve``,
``stats``, ``trace``, ``profile``) need a live server and are exercised by
``benchmarks/server_smoke.sh`` instead.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.common.obs import MetricsRegistry
from repro.engine import Query, SearchEngine, get_backend, open_engine
from repro.engine.cli import main


def run(command: str, *args: str) -> int:
    """``main`` on a shell-style command line plus verbatim trailing arguments."""
    return main(command.split() + list(args))


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli") / "idx")
    assert run("build-index --backend sets --size 120 --queries 3 --seed 5 --out", directory) == 0
    return directory


def test_build_index_then_query_threshold_and_topk(index, capsys):
    assert run("query --tau 0.5 --index", index) == 0
    assert "[sets] tau=0.5 algorithm=ring:" in capsys.readouterr().out
    assert run("query --k 2 --query 1 --index", index) == 0
    out = capsys.readouterr().out
    assert "[sets] top-2 algorithm=ring: 2 result(s)" in out
    assert out.count("score=") == 2


def test_sets_container_round_trips_and_an_older_container_is_refused(index, tmp_path, capsys):
    """``build-index`` writes a v5 container whose sets payload is
    ``data.npz``; ``query`` serves it as built.  A container of an older
    version is refused by name, telling the user to rebuild it -- also as one
    shard of a sharded index, before any shard worker starts."""
    assert "data.npz" in os.listdir(index) and "data.json" not in os.listdir(index)
    backend = get_backend("sets")
    dataset, queries = backend.make_workload(120, 3, 5)  # the fixture's build
    engine = SearchEngine()
    engine.add_dataset("sets", dataset)
    expected = engine.search(Query(backend="sets", payload=queries[2], tau=0.5)).ids
    assert run("query --tau 0.5 --query 2 --index", index) == 0
    assert f"ids: {expected[:20]}" in capsys.readouterr().out

    def make_old(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 5 and manifest["wal_seq"] == 0
        manifest["format_version"] = 3
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

    old = str(tmp_path / "old")
    shutil.copytree(index, old)
    make_old(os.path.join(old, "manifest.json"))
    sharded = str(tmp_path / "old-shards")
    assert run("build-shards --backend sets --shards 2 --size 60 --out", sharded) == 0
    make_old(os.path.join(sharded, "shard-0001", "manifest.json"))
    for command, directory in [
        ("query --index", old),
        ("compact --index", old),
        ("compact --index", sharded),
        ("upsert --record [1,2] --index", sharded),
        ("serve --index", sharded),
    ]:
        with pytest.raises(SystemExit) as info:
            run(command, directory)
        assert "unsupported container format 3" in str(info.value.code)
        assert "build-index" in str(info.value.code)


def test_cli_drives_a_sharded_index_and_refuses_a_version_1_manifest(
    tmp_path, capsys, monkeypatch
):
    """``build-shards`` -> ``upsert`` -> ``compact`` -> ``query`` on one
    sharded index; a ``shards.json`` of version 1 (no ``next_id``, no
    per-shard ``num_live``) is refused by name, telling the user to rebuild
    with ``build-shards``, before any shard worker starts."""
    directory = str(tmp_path / "shards")
    path = os.path.join(directory, "shards.json")
    assert run("build-shards --backend sets --shards 2 --size 60 --queries 3 --out", directory) == 0
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["format_version"] == 2 and manifest["next_id"] == 60
    assert [shard["num_live"] for shard in manifest["shards"]] == [30, 30]
    payload = get_backend("sets").load_queries(directory)[1]
    assert run("upsert --index", directory, "--record", json.dumps(payload)) == 0
    assert "upserted id 60" in capsys.readouterr().out
    assert run("compact --index", directory) == 0
    assert "shard 1 compacted: folded 1 delta record(s)" in capsys.readouterr().out
    assert run("query --tau 1.0 --query 1 --index", directory) == 0
    out = capsys.readouterr().out
    assert "[sets] tau=1.0 algorithm=ring:" in out and "60]" in out
    assert run("query --k 2 --query 1 --index", directory) == 0
    assert "id=60  score=-1" in capsys.readouterr().out

    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["format_version"] = 1
    del manifest["next_id"]
    for shard in manifest["shards"]:
        del shard["num_live"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)

    def no_worker(self):
        raise AssertionError("a shard worker started for a refused index")

    monkeypatch.setattr("repro.engine.replication.ReplicaSet.spawn", no_worker)
    for command in ("query", "upsert --record [1,2]", "compact", "serve"):
        with pytest.raises(SystemExit) as info:
            run(f"{command} --index", directory)
        assert "unsupported shards format 1" in str(info.value.code)
        assert "build-shards" in str(info.value.code)


def test_strings_container_round_trips_and_a_v4_container_is_refused(tmp_path, capsys):
    """A strings container stores ``data.npz`` -- the records' code points,
    offsets and ``kappa`` -- and ``query`` serves it as built.  A v4 strings
    container, whose payload was ``data.json``, is refused by name."""
    directory = str(tmp_path / "strings")
    assert run("build-index --backend strings --size 60 --queries 3 --seed 5 --out", directory) == 0
    assert "data.npz" in os.listdir(directory) and "data.json" not in os.listdir(directory)
    backend = get_backend("strings")
    dataset, queries = backend.make_workload(60, 3, 5)  # the build above
    loaded = backend.load_store(directory)
    assert loaded.records == dataset.records and loaded.kappa == dataset.kappa
    for name in ("codes", "offsets", "lengths", "masks", "gram_ranks"):
        expected, actual = getattr(dataset.columns(), name), getattr(loaded.columns(), name)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
    engine = SearchEngine()
    engine.add_dataset("strings", dataset)
    expected_ids = engine.search(Query(backend="strings", payload=queries[2], tau=2)).ids
    assert run("query --tau 2 --query 2 --index", directory) == 0
    assert f"ids: {expected_ids[:20]}" in capsys.readouterr().out

    old = str(tmp_path / "old")
    shutil.copytree(directory, old)
    os.remove(os.path.join(old, "data.npz"))
    with open(os.path.join(old, "data.json"), "w", encoding="utf-8") as handle:
        json.dump({"records": dataset.records, "kappa": dataset.kappa}, handle)
    manifest_path = os.path.join(old, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["format_version"] = 4
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(SystemExit) as info:
        run("query --index", old)
    assert "unsupported container format 4" in str(info.value.code)
    assert "build-index" in str(info.value.code)


def test_query_number_out_of_range_exits_2(index, capsys):
    assert run("query --query 3 --index", index) == 2
    assert "--query must be in [0, 2]" in capsys.readouterr().err


def test_build_shards_then_upsert_and_compact(tmp_path, capsys):
    directory = str(tmp_path / "shards")
    assert run("build-shards --backend strings --shards 2 --size 40 --out", directory) == 0
    assert "built 2 strings shard(s) over 40 objects" in capsys.readouterr().out
    assert run("upsert --index", directory, "--record", '"a fresh string"') == 0
    assert "upserted id 40" in capsys.readouterr().out
    assert run("compact --index", directory) == 0
    out = capsys.readouterr().out
    assert "shard 0 nothing to compact" in out
    assert "shard 1 compacted: folded 1 delta record(s)" in out
    assert "live 41  delta 0" in out


def test_plain_container_upsert_delete_compact_keep_the_stored_queries(tmp_path, capsys):
    directory = str(tmp_path / "idx")
    assert run("build-index --backend strings --size 40 --queries 3 --out", directory) == 0
    queries = get_backend("strings").load_queries(directory)
    assert run("upsert --index", directory, "--record", '"a fresh string"') == 0
    assert "upserted id 40" in capsys.readouterr().out
    assert run("delete --id 40 --index", directory) == 0
    assert run("delete --id 40 --index", directory) == 1
    assert "id 40 was not live" in capsys.readouterr().err
    assert run("compact --index", directory) == 0
    assert "live 40  delta 0" in capsys.readouterr().out
    assert get_backend("strings").load_queries(directory) == queries


def test_serve_cache_size_reaches_a_sharded_index(tmp_path):
    """``serve --cache-size`` is ``open_engine(cache_size=)``: it used to be
    dropped for sharded directories."""
    directory = str(tmp_path / "shards")
    assert run("build-shards --backend sets --shards 2 --size 60 --queries 2 --out", directory) == 0
    engine = open_engine(directory, cache_size=8)
    try:
        payload = get_backend("sets").load_queries(directory)[0]
        query = Query(backend="sets", payload=payload, tau=0.5)
        assert engine.search(query).ids == engine.search(query).ids
        # The repeat came back cached, from both shard workers' result caches.
        hits = MetricsRegistry.merged([engine.metrics_wire()]).get("engine_cache_hits_total")
        assert hits.value == 2
    finally:
        engine.close()


def test_wal_inspect_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.wal")
    assert run("wal-inspect", missing) == 2
    assert f"{missing}: no such file" in capsys.readouterr().err


def test_serve_replicas_on_a_plain_container_names_build_shards(index):
    with pytest.raises(SystemExit) as info:
        run("serve --replicas 2 --index", index)
    assert info.value.code not in (0, None)
    assert "build-shards" in str(info.value.code)


@pytest.mark.parametrize("verb", ["bench", "serve-bench", "load-bench"])
def test_retired_benchmark_verbs_are_rejected(verb, capsys):
    with pytest.raises(SystemExit) as info:
        main([verb, "--index", "x"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
