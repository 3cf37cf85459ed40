"""Chaos smoke: SIGKILL replicas under live load; nothing user-visible breaks.

The replication layer's contract is that a replica death is an *internal*
event:
while any sibling lives, searches fail over transparently, acknowledged
writes survive, and the supervisor respawns the victim from the shared WAL
lineage in the background.  This driver attacks that contract directly:

1. builds a two-shard index and starts the real HTTP serving layer as a
   subprocess (``python -m repro.engine serve --replicas 2 --wal-dir ...``),
2. runs sustained concurrent load against it -- searcher threads replaying
   the query workload and one writer streaming acked ``wal``-durability
   mutations with explicit ids -- with **zero client retries**, so any
   surfaced 503 or connection reset is a gate failure,
3. meanwhile a chaos thread repeatedly picks a random live replica from the
   ``/stats`` replica table and SIGKILLs it, then waits for the supervisor
   to respawn and readmit it (every shard back to full redundancy),
4. after the last heal, asserts the gates:

   * **no request errors** -- not one search or mutation surfaced a failure
     while at least one replica per shard was alive,
   * **respawn observed** -- every kill healed within the timeout and the
     replica generation counters advanced past the victims,
   * **tail latency bounded** -- search p99 over the whole run (including
     every failover and catch-up window) stays under ``--p99-ms``, a
     deliberately generous absolute bound that catches wedged-seconds
     regressions rather than scheduler noise, and
   * **answers converge** -- post-chaos threshold and top-k answers (read
     through the writer's read-your-writes session token) are identical,
     ids and scores, to a from-scratch in-process rebuild of exactly the
     acknowledged ops.

Exit code 0 means every gate held.  CI's ``chaos`` job runs this after the
tier-1 suite.

Run with:  PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import repro
from repro.engine import Query, SearchEngine
from repro.engine.backend import get_backend
from repro.engine.client import EngineClient
from repro.engine.sharding import build_shards

DOMAIN = "sets"
WORKLOAD = dict(size=3000, num_queries=6, seed=31)
NUM_SHARDS = 2
REPLICAS = 2
TOPK = 4

SEARCH_THREADS = 2
#: Replica kills per run; each must heal before the next fires.
KILLS = 3
HEAL_TIMEOUT = 60.0
#: Writer op script length; the writer cycles through it until chaos ends.
SCRIPT_OPS = 4000


def _mutation_script(num_objects: int) -> list[dict]:
    """Deterministic single-op batches with explicit ids (cf. crash_smoke).

    Explicit ids make the acknowledged prefix a pure function of its
    length, so the post-chaos reference rebuild replays exactly what the
    server acked without trusting server-side id assignment.
    """
    backend = get_backend(DOMAIN)
    dataset, _payloads = backend.make_workload(
        WORKLOAD["size"], WORKLOAD["num_queries"], WORKLOAD["seed"] + 1
    )
    donors = list(backend.store_records(backend.prepare(dataset)))
    ops: list[dict] = []
    for index in range(SCRIPT_OPS):
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
            "--replicas",
            str(REPLICAS),
            "--port",
            "0",
            "--ready-file",
            ready_file,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _await_ready(ready_file: str, process: subprocess.Popen, timeout: float = 60.0) -> str:
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


def _replica_table(client: EngineClient) -> list[dict]:
    return client.stats().get("replicas", [])


def _all_live(table: list[dict]) -> bool:
    return all(
        sum(1 for replica in entry["replicas"] if replica["state"] == "live")
        == entry["num_replicas"]
        for entry in table
    )


class ChaosRun:
    """Shared state between the load threads and the chaos thread."""

    def __init__(self, url: str, payloads: list, tau) -> None:
        self.url = url
        self.payloads = payloads
        self.tau = tau
        self.stop = threading.Event()
        self.failures: list[str] = []
        self._lock = threading.Lock()
        self.latencies_ms: list[float] = []
        self.acked_ops = 0
        self.searches = 0
        self.heal_seconds: list[float] = []
        self.killed_pids: list[int] = []

    def fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)
        self.stop.set()

    def searcher(self, seed: int) -> None:
        rnd = random.Random(seed)
        with EngineClient(self.url, timeout=60.0) as client:
            while not self.stop.is_set():
                payload = self.payloads[rnd.randrange(len(self.payloads))]
                timer = time.monotonic()
                try:
                    if rnd.random() < 0.5:
                        client.search(DOMAIN, payload, tau=self.tau)
                    else:
                        client.search_topk(DOMAIN, payload, k=TOPK)
                except Exception as exc:
                    self.fail(f"search failed during chaos: {exc!r}")
                    return
                with self._lock:
                    self.latencies_ms.append((time.monotonic() - timer) * 1000.0)
                    self.searches += 1

    def writer(self, ops: list[dict]) -> None:
        with EngineClient(self.url, timeout=60.0) as client:
            for op in ops:
                if self.stop.is_set():
                    break
                try:
                    outcome = client.mutate(DOMAIN, [op], durability="wal")
                except Exception as exc:
                    self.fail(f"acked write failed during chaos: {exc!r}")
                    return
                if outcome.get("durability") != "wal":
                    self.fail(f"write acked below wal durability: {outcome!r}")
                    return
                with self._lock:
                    self.acked_ops += 1
            self.session = client.session

    def chaos(self, process: subprocess.Popen) -> None:
        rnd = random.Random(97)
        with EngineClient(self.url, timeout=60.0) as client:
            for _ in range(KILLS):
                if self.stop.is_set():
                    return
                time.sleep(0.5)  # let load re-establish between kills
                try:
                    table = _replica_table(client)
                    victims = [
                        replica["pid"]
                        for entry in table
                        for replica in entry["replicas"]
                        if replica["state"] == "live" and replica["pid"]
                    ]
                    if not victims:
                        self.fail("chaos found no live replica to kill")
                        return
                    victim = rnd.choice(victims)
                    os.kill(victim, signal.SIGKILL)
                    self.killed_pids.append(victim)
                    started = time.monotonic()
                    healed = False
                    while time.monotonic() - started < HEAL_TIMEOUT:
                        if process.poll() is not None:
                            self.fail("server process died during chaos")
                            return
                        table = _replica_table(client)
                        pids = {
                            replica["pid"]
                            for entry in table
                            for replica in entry["replicas"]
                        }
                        if _all_live(table) and victim not in pids:
                            healed = True
                            break
                        time.sleep(0.1)
                    if not healed:
                        self.fail(
                            f"replica pid {victim} was not respawned within "
                            f"{HEAL_TIMEOUT:.0f}s"
                        )
                        return
                    self.heal_seconds.append(time.monotonic() - started)
                except Exception as exc:
                    self.fail(f"chaos controller request failed: {exc!r}")
                    return


def _reference_answers(dataset, payloads, tau, prefix: list[dict]) -> list[tuple]:
    engine = SearchEngine(cache_size=0)
    engine.add_dataset(DOMAIN, dataset)
    if prefix:
        engine.mutate(DOMAIN, prefix)
    rows = []
    for payload in payloads:
        threshold = engine.search(Query(backend=DOMAIN, payload=payload, tau=tau))
        topk = engine.search(Query(backend=DOMAIN, payload=payload, k=TOPK))
        rows.append(
            (
                [int(i) for i in threshold.ids],
                [int(i) for i in topk.ids],
                [float(s) for s in topk.scores],
            )
        )
    return rows


def _served_answers(client: EngineClient, payloads, tau) -> list[tuple]:
    rows = []
    for payload in payloads:
        threshold = client.search(DOMAIN, payload, tau=tau)
        topk = client.search_topk(DOMAIN, payload, k=TOPK)
        rows.append(
            (
                [int(i) for i in threshold.ids],
                [int(i) for i in topk.ids],
                [float(s) for s in topk.scores],
            )
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--p99-ms",
        type=float,
        default=2000.0,
        help=(
            "absolute bound on search p99 across the whole run, failover "
            "windows included (default 2000 ms -- catches wedged seconds, "
            "not scheduler noise)"
        ),
    )
    args = parser.parse_args(argv)

    backend = get_backend(DOMAIN)
    dataset, payloads = backend.make_workload(
        WORKLOAD["size"], WORKLOAD["num_queries"], WORKLOAD["seed"]
    )
    store = backend.prepare(dataset)
    num_objects = backend.store_size(store)
    tau = backend.default_tau(store)
    ops = _mutation_script(num_objects)

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as workdir:
        index_dir = os.path.join(workdir, "index")
        wal_dir = os.path.join(workdir, "wal")
        build_shards(DOMAIN, dataset, index_dir, NUM_SHARDS)
        ready_file = os.path.join(workdir, "ready")
        process = _spawn_server(index_dir, wal_dir, ready_file)
        try:
            url = _await_ready(ready_file, process)
            run = ChaosRun(url, payloads, tau)
            threads = [
                threading.Thread(target=run.searcher, args=(41 + i,), daemon=True)
                for i in range(SEARCH_THREADS)
            ]
            writer = threading.Thread(target=run.writer, args=(ops,), daemon=True)
            chaos = threading.Thread(target=run.chaos, args=(process,), daemon=True)
            for thread in threads:
                thread.start()
            writer.start()
            chaos.start()
            chaos.join(timeout=KILLS * (HEAL_TIMEOUT + 5.0))
            run.stop.set()
            writer.join(timeout=120.0)
            for thread in threads:
                thread.join(timeout=120.0)

            failures = list(run.failures)
            if chaos.is_alive():
                failures.append("chaos controller wedged")
            if writer.is_alive() or any(t.is_alive() for t in threads):
                failures.append("a load thread failed to stop")
            if len(run.heal_seconds) != KILLS and not failures:
                failures.append(
                    f"only {len(run.heal_seconds)}/{KILLS} kills healed"
                )
            p99 = float(np.percentile(run.latencies_ms, 99)) if run.latencies_ms else 0.0
            if not run.latencies_ms:
                failures.append("no searches completed during chaos")
            elif p99 > args.p99_ms:
                failures.append(
                    f"search p99 {p99:.1f} ms breached the {args.p99_ms:.0f} ms "
                    f"chaos bound"
                )

            answers_ok = None
            if not failures:
                # The writer's session token forces reads past every ack,
                # so convergence is checked, not raced.
                with EngineClient(url, timeout=60.0) as verify:
                    verify._session = getattr(run, "session", None)
                    observed = _served_answers(verify, payloads, tau)
                expected = _reference_answers(
                    dataset, payloads, tau, ops[: run.acked_ops]
                )
                answers_ok = observed == expected
                if not answers_ok:
                    failures.append(
                        "post-chaos answers diverged from the from-scratch "
                        "rebuild of the acked ops"
                    )

            print(
                f"[chaos {DOMAIN} x{NUM_SHARDS} r{REPLICAS}] "
                f"kills {len(run.killed_pids)}/{KILLS}  "
                f"searches {run.searches}  acked writes {run.acked_ops}  "
                f"p99 {p99:.1f} ms (bound {args.p99_ms:.0f})  "
                f"heal " + (
                    "/".join(f"{s:.1f}s" for s in run.heal_seconds)
                    if run.heal_seconds
                    else "none"
                ) + f"  answers={'ok' if answers_ok else answers_ok}"
            )
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()

    if failures:
        print(f"FAIL: chaos gate violated ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("chaos gate held: kills stayed invisible, answers converged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
