"""Crash-recovery smoke: kill -9 a durable server mid-write-burst, lose nothing.

For every domain (Hamming, sets, strings, graphs) at 1 and 2 shards this
driver

1. builds a small index on disk and starts the real HTTP serving layer as a
   subprocess (``python -m repro.engine serve --wal-dir ...``),
2. streams a deterministic sequence of one-op ``POST /mutate`` batches at
   ``wal`` durability (sequential, at most one request in flight), folds
   the delta once with ``POST /compact`` partway through (which writes a
   checkpoint and truncates the log(s)), and then has a killer thread
   SIGKILL the server later in the burst,
3. recovers by reopening the checkpoint + write-ahead log(s) in process,
4. derives the recovered prefix length ``L`` from the checkpoints and the
   logs and checks the crash contract: ``acked <= L <= acked + 1`` -- every acknowledged batch
   survived, and at most the single in-flight batch may additionally have
   reached disk before the kill, and
5. replays exactly ``ops[:L]`` onto a fresh in-process engine and asserts
   threshold and top-k answers are identical, ids and scores, for every
   stored query.

Exit code 0 means every (domain, shard count) cell held the contract.  CI's
``crash-recovery`` job runs this after the tier-1 suite.

Run with:  PYTHONPATH=src python benchmarks/crash_smoke.py
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import repro
from repro.engine import Query, SearchEngine, open_engine
from repro.engine.backend import get_backend
from repro.engine.client import EngineClient
from repro.engine.persistence import read_manifest, save_container
from repro.engine.sharding import build_shards
from repro.engine.wal import wal_summary

#: Small workloads: the point is the crash protocol, not throughput.
WORKLOADS = {
    "hamming": dict(size=400, num_queries=4, seed=11),
    "sets": dict(size=400, num_queries=4, seed=12),
    "strings": dict(size=300, num_queries=4, seed=13),
    "graphs": dict(size=60, num_queries=3, seed=14),
}

#: Top-k sizes kept small (graphs: exact GED escalation).
TOPK = {"hamming": 5, "sets": 4, "strings": 4, "graphs": 3}

SHARD_COUNTS = (1, 2)

#: Batches the writer attempts; the killer fires mid-burst.
BURST_BATCHES = 40
COMPACT_AFTER_ACKS = 12
KILL_AFTER_ACKS = 25


def _mutation_script(name: str, num_objects: int) -> list[dict]:
    """The deterministic op sequence, one op per batch.

    Upserts carry explicit ids so the acknowledged prefix is a pure function
    of its length -- recovery and the reference replay agree on every id
    without trusting server-side assignment.
    """
    backend = get_backend(name)
    dataset, _payloads = backend.make_workload(
        WORKLOADS[name]["size"], WORKLOADS[name]["num_queries"], WORKLOADS[name]["seed"] + 1
    )
    donors = list(backend.store_records(backend.prepare(dataset)))
    ops: list[dict] = []
    for index in range(BURST_BATCHES):
        if index % 4 == 3:
            ops.append({"op": "delete", "id": (index * 7) % num_objects})
        else:
            ops.append(
                {
                    "op": "upsert",
                    "record": donors[index % len(donors)],
                    "id": num_objects + index,
                }
            )
    return ops


def _spawn_server(index_dir: str, wal_dir: str, ready_file: str) -> subprocess.Popen:
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.engine",
            "serve",
            "--index",
            index_dir,
            "--wal-dir",
            wal_dir,
            "--port",
            "0",
            "--ready-file",
            ready_file,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _await_ready(ready_file: str, process: subprocess.Popen, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"serve exited early with code {process.returncode}")
        if os.path.exists(ready_file):
            with open(ready_file, encoding="utf-8") as handle:
                host, port = handle.read().split()
            return f"http://{host}:{port}"
        time.sleep(0.05)
    raise RuntimeError("serve did not become ready in time")


def _write_burst_until_killed(url: str, name: str, ops: list[dict], process) -> int:
    """Sequential acked one-op batches; one compaction after
    :data:`COMPACT_AFTER_ACKS` of them, then a killer SIGKILLs the server
    mid-burst.

    Returns the number of acknowledged batches.  The writer keeps at most
    one request in flight, so at the moment of death the unacknowledged
    suffix is at most one batch long -- the crash contract's ``+1``.
    """
    acked = 0
    acked_lock = threading.Event()

    def killer() -> None:
        acked_lock.wait(timeout=60.0)
        process.send_signal(signal.SIGKILL)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    with EngineClient(url, timeout=30.0) as client:
        for op in ops:
            try:
                outcome = client.mutate(name, [op], durability="wal")
            except Exception:
                break  # the kill landed mid-request (reset, half-close, 503)
            assert outcome["durability"] == "wal"
            acked += 1
            if acked == COMPACT_AFTER_ACKS:
                client.compact(name)
            if acked == KILL_AFTER_ACKS:
                acked_lock.set()  # arm the killer; keep writing meanwhile
    thread.join(timeout=60.0)
    process.wait(timeout=60.0)
    return acked


def _recovered_prefix_length(index_dir: str, wal_dir: str, num_shards: int) -> tuple[int, int]:
    """Total ops the checkpoints and logs recover = the global prefix length L,
    and how many of them the checkpoints hold.

    The writer is sequential and every batch holds exactly one op, so each
    shard's history is the sub-sequence of ops routed to it, numbered from
    1, and the global recovered history is the union -- a prefix of the op
    script of length equal to the total op count.  A shard's history runs up
    to its container's checkpoint seq or its log's last seq, whichever is
    later (the compaction truncated the log at the checkpoint).
    """
    total = checkpointed = 0
    for entry in sorted(os.listdir(wal_dir)):
        container = index_dir if num_shards == 1 else os.path.join(index_dir, entry[: -len(".wal")])
        checkpoint = int(read_manifest(container)["wal_seq"])
        total += max(checkpoint, wal_summary(os.path.join(wal_dir, entry))["last_seq"])
        checkpointed += checkpoint
    return total, checkpointed


def _reference_engine(name: str, dataset, prefix: list[dict]) -> SearchEngine:
    """A fresh in-process engine with exactly the prefix applied."""
    engine = SearchEngine(cache_size=0)
    engine.add_dataset(name, dataset)
    if prefix:
        engine.mutate(name, prefix)
    return engine


def _answers(engine, name: str, payloads, tau, k) -> list[tuple]:
    rows = []
    for payload in payloads:
        threshold = engine.search(Query(backend=name, payload=payload, tau=tau))
        topk = engine.search(Query(backend=name, payload=payload, k=k))
        rows.append((threshold.ids, topk.ids, topk.scores))
    return rows


def run_cell(name: str, num_shards: int, workdir: str) -> dict:
    """One (domain, shard count) crash cell; returns its report entry."""
    backend = get_backend(name)
    config = WORKLOADS[name]
    dataset, payloads = backend.make_workload(
        config["size"], config["num_queries"], config["seed"]
    )
    store = backend.prepare(dataset)
    num_objects = backend.store_size(store)
    tau = backend.default_tau(store)
    ops = _mutation_script(name, num_objects)

    cell_dir = os.path.join(workdir, f"{name}-{num_shards}")
    index_dir = os.path.join(cell_dir, "index")
    wal_dir = os.path.join(cell_dir, "wal")
    if num_shards == 1:
        save_container(backend, store, index_dir)
    else:
        build_shards(name, dataset, index_dir, num_shards)

    ready_file = os.path.join(cell_dir, "ready")
    process = _spawn_server(index_dir, wal_dir, ready_file)
    try:
        url = _await_ready(ready_file, process)
        acked = _write_burst_until_killed(url, name, ops, process)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    recovered_len, checkpointed = _recovered_prefix_length(index_dir, wal_dir, num_shards)
    contract_ok = acked <= recovered_len <= acked + 1

    reference = _reference_engine(name, dataset, ops[:recovered_len])
    expected = _answers(reference, name, payloads, tau, TOPK[name])
    recovered = open_engine(index_dir, wal_dir=wal_dir)
    try:
        observed = _answers(recovered, name, payloads, tau, TOPK[name])
    finally:
        recovered.close()
    answers_ok = observed == expected

    return {
        "acked_batches": acked,
        "recovered_ops": recovered_len,
        "checkpointed_ops": checkpointed,
        "contract_ok": contract_ok,
        "answers_ok": answers_ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--domains",
        default=None,
        help="comma-separated subset of domains (default: all four)",
    )
    args = parser.parse_args(argv)
    domains = list(WORKLOADS) if args.domains is None else args.domains.split(",")

    ok = True
    with tempfile.TemporaryDirectory(prefix="crash-smoke-") as workdir:
        for name in domains:
            for num_shards in SHARD_COUNTS:
                entry = run_cell(name, num_shards, workdir)
                cell_ok = entry["contract_ok"] and entry["answers_ok"]
                ok = ok and cell_ok
                print(
                    f"[{name:>8} x{num_shards}] acked {entry['acked_batches']:>3}  "
                    f"recovered {entry['recovered_ops']:>3}  "
                    f"(checkpoint {entry['checkpointed_ops']:>3})  "
                    f"contract={'ok' if entry['contract_ok'] else 'VIOLATED'}  "
                    f"answers={'ok' if entry['answers_ok'] else 'DIVERGED'}"
                )
    if not ok:
        print("FAIL: a kill -9 lost acknowledged writes or changed answers")
    else:
        print("crash-recovery contract held on every (domain, shard count) cell")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
