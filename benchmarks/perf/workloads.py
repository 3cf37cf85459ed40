"""The seven workloads: seeded inputs, the system each one drives, its op plan.

A workload fixes a domain, a topology (in-process engine, sharded engine,
HTTP server in a subprocess) and a *pass*: the unit of work that is repeated,
identically, for as long as the run measures.  Inputs come from the seed
alone; the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import replace
from typing import Any

import numpy as np
from harness import OpRecord, PassResult, ServerProcess, Tracer, maybe_span, reap_workers

from repro.datasets.binary import gist_like
from repro.datasets.molecules import aids_like
from repro.datasets.text import imdb_like
from repro.datasets.tokens import dblp_like
from repro.engine import (
    EngineClient,
    Query,
    SearchEngine,
    ShardedEngine,
    build_shards,
    get_backend,
    save_container,
)
from repro.engine.wire import encode_query
from repro.graphs.dataset import GraphDataset
from repro.hamming.dataset import BinaryVectorDataset
from repro.sets.dataset import SetDataset
from repro.strings.dataset import StringDataset

ORACLE_SAMPLE = 32

# Raw records -> the dataset object the engine indexes, with the parameters
# the repo's own CLI uses (``Backend.make_workload``).
DATASETS = {
    "sets": lambda records: SetDataset(records, num_classes=4),
    "strings": lambda records: StringDataset(records, kappa=2),
    "hamming": lambda records: BinaryVectorDataset(records, num_parts=8),
    "graphs": lambda records: GraphDataset(records),
}


# ---------------------------------------------------------------------------
# Systems: what a workload sets up and sends ops to
# ---------------------------------------------------------------------------


class InprocSystem:
    """A ``SearchEngine`` in the benchmark process: the thinnest wrapper."""

    def __init__(self, workload: "Workload", workdir: str) -> None:
        self.engine = SearchEngine(cache_size=workload.cache_size)
        self.engine.add_dataset(workload.backend, workload.dataset())

    def search(self, query: Query) -> Any:
        return self.engine.search(query)

    def search_traced(self, query: Query, tracer: Tracer, record: OpRecord, op_span: int) -> Any:
        with tracer.span("executor.search"):
            response = self.engine.search(query)
        record.cached = response.cached
        return response

    def close(self) -> None:
        self.engine.close()


class ShardedSystem:
    """Id-range shards on disk, served by one worker process per shard."""

    NUM_SHARDS = 2

    def __init__(self, workload: "Workload", workdir: str) -> None:
        directory = os.path.join(workdir, "shards")
        build_shards(workload.backend, workload.dataset(), directory, self.NUM_SHARDS)
        started = time.perf_counter()
        self.engine = ShardedEngine(directory, replicas=1)
        self.start_s = time.perf_counter() - started

    def search(self, query: Query) -> Any:
        return self.engine.search(query)

    def search_traced(self, query: Query, tracer: Tracer, record: OpRecord, op_span: int) -> Any:
        # The worker times come back on the public trace document, so the
        # traced pass asks for one; the slowest worker sets the time.
        start = time.perf_counter_ns()
        response = self.engine.search(replace(query, trace_id=f"perf-{tracer.op_id}"))
        parent = tracer.add("sharding.search", start, time.perf_counter_ns(), op_span)
        fanout = response.trace["spans"][0]
        slowest = max(child["duration_ms"] for child in fanout["children"])
        tracer.add_inside("sharding.worker", parent, int(slowest * 1e6))
        return response

    def close(self) -> None:
        self.engine.close()
        reap_workers()


class ServedSystem:
    """``python -m repro.engine serve`` (default flags) plus blocking clients."""

    def __init__(self, workload: "Workload", workdir: str) -> None:
        backend = get_backend(workload.backend)
        directory = os.path.join(workdir, "index")
        save_container(backend, backend.prepare(workload.dataset()), directory)
        started = time.perf_counter()
        self.server = ServerProcess(directory, workdir)
        self.start_s = time.perf_counter() - started
        self.clients = []
        try:
            for _ in range(workload.callers):
                self.clients.append(EngineClient(self.server.url, timeout=30.0))
        except BaseException:
            self.close()
            raise

    def search(self, body: dict, caller: int = 0) -> Any:
        # Ops carry the pre-encoded wire body; the codec cost is measured on
        # its own (wire.* metrics), the JSON dump and the socket are timed here.
        return self.clients[caller].search_wire(body, topk=False)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def add_served_spans(tracer: Tracer, op_span: int, start: int, end: int, response: Any) -> None:
    """``client.request`` -> ``server.engine`` from ``WireResponse.engine_time_ms``."""
    parent = tracer.add("client.request", start, end, op_span)
    tracer.add_inside("server.engine", parent, int(response.engine_time_ms * 1e6))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One named workload; subclasses fill in inputs, system and pass plan."""

    name = ""
    why = ""
    backend = ""
    tau: float | int | None = None
    k: int | None = None
    cache_size = 0
    callers = 1
    num_records = 0
    num_queries = 0
    system_class: Any = InprocSystem
    # Passes the exactly-repeating counters are taken over (the state of a
    # read-only workload is the same in every pass, so one is enough).
    exact_passes = 1
    inject_wrong_id = False
    CORPUS_SEED = 2018
    pool_size = 0

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.system: Any = None
        self.expected: dict[int, tuple] = {}
        self.records: Any = None
        self.queries: list[Query] = []
        self.ops: list[tuple[int, Any]] = []
        self._reference: SearchEngine | None = None

    def size(self, full: int, floor: int = 8) -> int:
        """A size of the full run, or about a twentieth of it for ``--smoke``."""
        return max(floor, full // 20) if self.smoke else full

    # -- inputs ------------------------------------------------------------

    def corpus(self, num_records: int, pool: int) -> tuple[Any, list[Any]]:
        """The workload's constant corpus and the query pool generated with it."""
        raise NotImplementedError

    def generate(self, seed: int) -> None:
        """Inputs from the seed: which of the pool's queries are asked, in which order.

        The corpus and the pool are constants of a workload, as the paper's
        datasets are; the seed draws the queries (and, where there is one,
        the request or mutation stream).  Drawing the corpus too makes ten
        seeds spread by more than any bound on the small or heavy-tailed
        workloads (exact GED: ~8% in median, ~25% in p99 latency), which
        would say nothing about the program.
        """
        rng = random.Random(seed)
        self.records, self.pool = self.corpus(
            self.size(self.num_records), self.size(self.pool_size)
        )
        payloads = self.draw(rng)
        self.queries = [Query(self.backend, p, tau=self.tau, k=self.k) for p in payloads]
        self.ops = self.plan(rng)
        keys = sorted({key for key, _ in self.ops})
        self.oracle_keys = rng.sample(keys, min(ORACLE_SAMPLE, len(keys)))

    def draw(self, rng: random.Random) -> list[Any]:
        """The pool's queries this seed asks."""
        return rng.sample(self.pool, self.size(self.num_queries))

    def plan(self, rng: random.Random) -> list[tuple[int, Any]]:
        """The ops of one pass, as (query key, what the system is sent)."""
        return list(enumerate(self.queries))

    def dataset(self) -> Any:
        return DATASETS[self.backend](self.records)

    # -- lifecycle ---------------------------------------------------------

    def setup(self, workdir: str) -> None:
        """Inputs in memory -> ready and warm (index built, first query answered)."""
        self.system = self.system_class(self, workdir)
        try:
            self.system.search(self.warm_op())
        except BaseException:
            self.teardown()
            raise

    def warm_op(self) -> Any:
        """The op set-up answers before it counts as ready."""
        return self.ops[0][1]

    def teardown(self) -> None:
        if self.system is not None:
            self.system.close()
            self.system = None

    @property
    def local_engine(self) -> SearchEngine | None:
        """The in-process engine over this workload's data, once there is one."""
        return self.system.engine if isinstance(self.system, InprocSystem) else self._reference

    # -- passes ------------------------------------------------------------

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        """One pass by a single caller; ``tracer`` is None on untraced passes."""
        result = PassResult(traced=tracer is not None)
        system = self.system
        query_s = result.query_s
        answers = result.answers
        clock = time.perf_counter
        if tracer is None:
            search = system.search
            begin = clock()
            for key, op in self.ops:
                start = clock()
                try:
                    response = search(op)
                except Exception:  # noqa: BLE001 - any failure is a failed op
                    result.raised += 1
                    continue
                query_s.append(clock() - start)
                answers.append((key, response))
            result.wall_s = clock() - begin
            return result
        result.trace_from(tracer)
        begin = clock()
        for key, op in self.ops:
            record = OpRecord("query", 0)
            with tracer.span("op") as op_span:
                try:
                    response = self.traced_op(op, tracer, record, op_span)
                except Exception:  # noqa: BLE001 - any failure is a failed op
                    result.raised += 1
                    continue
            span = tracer.spans[op_span]
            record.latency_ns = span[2] - span[1]
            query_s.append(record.latency_ns / 1e9)
            result.ops.append(record)
            answers.append((key, response))
        result.wall_s = clock() - begin
        result.trace_to(tracer)
        return result

    def traced_op(self, op: Any, tracer: Tracer, record: OpRecord, op_span: int) -> Any:
        return self.system.search_traced(op, tracer, record, op_span)

    # -- answers -----------------------------------------------------------

    def answer_of(self, response: Any) -> tuple:
        """The comparable form of a response: ids (and top-k scores)."""
        if self.k is None:
            return (tuple(sorted(response.ids)),)
        return (tuple(response.ids), tuple(response.scores))

    def check(self, result: PassResult) -> None:
        """Every answer of a pass against the first answer seen for its query."""
        expected = self.expected
        for key, response in result.answers:
            answer = self.answer_of(response)
            if self.inject_wrong_id and key in expected:
                # The self-test: one repeat answer gains an id nothing holds.
                answer = (answer[0] + (-1,),) + answer[1:]
                self.inject_wrong_id = False
            if expected.setdefault(key, answer) != answer:
                result.wrong += 1
        result.answers = []

    def build_reference(self, tracer: Tracer | None) -> PassResult | None:
        """In-process answers for an out-of-process system to be held to.

        On a traced run the reference pass is itself traced (root span
        ``reference``): it is where kernel and executor time of the same
        queries over the same data can be seen from outside.
        """
        if isinstance(self.system, InprocSystem):
            return None
        engine = SearchEngine(cache_size=0)
        engine.add_dataset(self.backend, self.dataset())
        self._reference = engine
        engine.search(self.queries[0])  # builds the index, as set-up does for the system
        result = PassResult(traced=tracer is not None)
        result.trace_from(tracer)
        for key, query in enumerate(self.queries):
            with maybe_span(tracer, "reference"), maybe_span(tracer, "executor.search"):
                response = engine.search(query)
            self.expected[key] = self.answer_of(response)
        result.trace_to(tracer)
        return result

    def oracle(self, tracer: Tracer | None) -> tuple[int, int]:
        """The seeded sample against ``algorithm="linear"``: (checked, wrong).

        Runs on the in-process engine; served and sharded answers were
        already held to that engine's, query by query.
        """
        engine = self.local_engine
        wrong = 0
        for key in self.oracle_keys:
            query = self.queries[key]
            answers = []
            for algorithm in ("ring", "linear"):
                with maybe_span(tracer, "oracle." + algorithm):
                    response = engine.search(replace(query, algorithm=algorithm))
                answers.append(self.answer_of(response))
            if not (answers[0] == answers[1] == self.expected.get(key, answers[0])):
                wrong += 1
        return len(self.oracle_keys), wrong

    def close_reference(self) -> None:
        if self._reference is not None:
            self._reference.close()
            self._reference = None


class SetsInproc(Workload):
    name = "sets_inproc"
    why = (
        "flagship columnar kernel under the thinnest wrapper: kernel and executor cost per "
        "query show, every serving layer is bypassed"
    )
    backend = "sets"
    tau = 0.8
    num_records = 40000
    num_queries = 2000
    pool_size = 3000  # shared by the three sets_* workloads over this corpus

    def corpus(self, num_records: int, pool: int):
        workload = dblp_like(num_records=num_records, num_queries=pool, seed=self.CORPUS_SEED)
        return workload.records, list(workload.queries)


class GraphsInproc(Workload):
    name = "graphs_inproc"
    why = (
        "verification-dominated (exact GED): decides graphs columnar win-or-delete; executor "
        "and serving changes predict no move here"
    )
    backend = "graphs"
    tau = 3
    num_records = 80
    num_queries = 240
    pool_size = 270

    def corpus(self, num_records: int, pool: int):
        workload = aids_like(num_graphs=num_records, num_queries=pool, seed=self.CORPUS_SEED)
        return workload.graphs, list(workload.queries)

    def warm_op(self) -> Any:
        # One GED query costs 2-40 ms, as much as the rest of this set-up; a
        # fixed one keeps setup_s from depending on the seed's first draw.
        return Query(self.backend, self.pool[0], tau=self.tau)


class SetsTopkCache(SetsInproc):
    name = "sets_topk_cache"
    why = (
        "only user of the top-k escalation ladder and the result cache (Zipf stream, working "
        "set larger than the cache): slower hits or extra rungs show"
    )
    tau = None
    k = 10
    cache_size = 256
    num_records = 12000
    num_queries = 1000
    pool_size = 1000
    STREAM = 250
    ZIPF_S = 0.9

    def generate(self, seed: int) -> None:
        super().generate(seed)
        self.cache_size = self.size(type(self).cache_size)

    # Which queries are hot decides what a cache workload costs (with the
    # stream drawn per seed, ten seeds spread by ~16% in p50 and p99).  So the
    # stream's composition is a constant Zipf draw over the whole pool, and
    # the seed draws what a cache is sensitive to: the order of arrival.

    def draw(self, rng: random.Random) -> list[Any]:
        return self.pool

    def plan(self, rng: random.Random):
        ranks = range(len(self.queries))
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in ranks]
        composition = random.Random(self.CORPUS_SEED)
        keys = composition.choices(ranks, weights=weights, k=self.size(self.STREAM, 40))
        rng.shuffle(keys)
        return [(key, self.queries[key]) for key in keys]


class SetsSharded2(SetsInproc):
    name = "sets_sharded2"
    why = (
        "sets_inproc's data in 2 id-range shards: pickling, pool IPC and merge do most of the "
        "work; compare against sets_inproc"
    )
    system_class = ShardedSystem
    num_queries = 600


class SetsServedC1(SetsInproc):
    name = "sets_served_c1"
    why = (
        "sets_inproc's data behind the HTTP server, one connection: coalescing wait, HTTP and "
        "codec are ~80% of the op, the kernel almost none"
    )
    system_class = ServedSystem
    num_queries = 400

    def plan(self, rng: random.Random):
        return [(key, encode_query(query)) for key, query in enumerate(self.queries)]

    def traced_op(self, op: Any, tracer: Tracer, record: OpRecord, op_span: int) -> Any:
        start = time.perf_counter_ns()
        response = self.system.search(op)
        add_served_spans(tracer, op_span, start, time.perf_counter_ns(), response)
        record.engine_ms = response.engine_time_ms
        record.batch_size = response.batch_size
        return response


class HammingServedC2(SetsServedC1):
    name = "hamming_served_c2"
    why = (
        "same server used differently: two connections, real coalescing, 256-int payloads, "
        "hamming kernel; counter-workload to sets_served_c1"
    )
    backend = "hamming"
    tau = 32
    callers = 2
    num_records = 30000
    num_queries = 400
    pool_size = 800

    def corpus(self, num_records: int, pool: int):
        workload = gist_like(num_vectors=num_records, num_queries=pool, seed=self.CORPUS_SEED)
        return workload.vectors, [np.asarray(row) for row in workload.queries]

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        """One pass by two callers, each on its own connection and thread."""
        result = PassResult(callers=self.callers, traced=tracer is not None)
        shares = [self.ops[caller :: self.callers] for caller in range(self.callers)]
        logs: list[list] = [[] for _ in shares]
        barrier = threading.Barrier(self.callers + 1)

        def call(caller: int) -> None:
            search = self.system.search
            log = logs[caller]
            clock = time.perf_counter_ns
            barrier.wait()
            for key, op in shares[caller]:
                start = clock()
                try:
                    response = search(op, caller)
                except Exception:  # noqa: BLE001 - any failure is a failed op
                    response = None
                log.append((key, start, clock(), response))

        threads = [threading.Thread(target=call, args=(caller,)) for caller in range(len(shares))]
        for thread in threads:
            thread.start()
        barrier.wait()
        begin = time.perf_counter()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - begin
        result.trace_from(tracer)
        for log in logs:
            for key, start, end, response in log:
                if response is None:
                    result.raised += 1
                    continue
                result.query_s.append((end - start) / 1e9)
                result.answers.append((key, response))
                if tracer is not None:
                    op_span = tracer.add("op", start, end)
                    add_served_spans(tracer, op_span, start, end, response)
                    result.ops.append(
                        OpRecord(
                            "query",
                            end - start,
                            engine_ms=response.engine_time_ms,
                            batch_size=response.batch_size,
                        )
                    )
        result.trace_to(tracer)
        return result


class StringsRW(Workload):
    name = "strings_rw"
    why = (
        "4 queries to 1 durable mutate batch on one engine with a WAL: delta-scan growth "
        "and compaction wall are charged to the readers"
    )
    backend = "strings"
    tau = 2
    num_records = 20000
    # A pass asks ~350 queries before its compaction, so the pool is kept near
    # that: drawing them from thousands made p50 and p99 depend on the draw.
    num_queries = 400
    pool_size = 480
    exact_passes = 3
    # Every fifth op is a batch of 6 upserts (3 new records, 3 overwrites of
    # live ones) and 2 deletes.  The mix is fixed rather than drawn so that
    # every pass is the same work; the seed draws the records and the ids.
    WRITE_EVERY = 5
    BATCH = ("new", "overwrite", "delete", "new", "overwrite", "new", "overwrite", "delete")
    COMPACT_AT = 512

    def corpus(self, num_records: int, pool: int):
        workload = imdb_like(num_records=num_records, num_queries=pool, seed=self.CORPUS_SEED)
        return list(workload.records), list(workload.queries)

    def generate(self, seed: int) -> None:
        super().generate(seed)
        self.rng = random.Random(seed + 1)
        self.compact_at = self.size(self.COMPACT_AT, 32)
        self.wire_batches: list[list[dict]] = []
        self.upserted_bytes = 0

    def setup(self, workdir: str) -> None:
        # The deployed shape of a durable index: a container on disk, a WAL
        # beside it, fsync before every acknowledgement (the default level).
        self.system = InprocSystem(self, workdir)
        try:
            engine = self.system.engine
            engine.save_index(self.backend, os.path.join(workdir, "index"))
            engine.attach_wal(self.backend, os.path.join(workdir, "strings.wal"))
            engine.search(self.queries[0])
        except BaseException:
            self.teardown()
            raise
        # The benchmark's own model of what must be live, fed by the acks.
        self.model: dict[int, str] = dict(enumerate(self.records))
        self.live: list[int] = list(self.model)

    def next_batch(self) -> list[dict]:
        rng = self.rng
        batch = []
        for kind in self.BATCH:
            if kind == "delete":
                batch.append({"op": "delete", "id": rng.choice(self.live)})
                continue
            source = self.records[rng.randrange(len(self.records))]
            at = rng.randrange(len(source))
            record = source[:at] + rng.choice("aeiourstln") + source[at + 1 :]
            obj_id = rng.choice(self.live) if kind == "overwrite" else None
            batch.append({"op": "upsert", "record": record, "id": obj_id})
        return batch

    def acknowledge(self, batch: list[dict], outcome: dict) -> None:
        for op, ack in zip(batch, outcome["results"]):
            if op["op"] == "upsert":
                if ack["id"] not in self.model:
                    self.live.append(ack["id"])
                self.model[ack["id"]] = op["record"]
                self.upserted_bytes += len(op["record"].encode("utf-8"))
            elif ack["deleted"]:
                del self.model[op["id"]]
        # Deleted ids leave `live` lazily, so picking one stays O(1).
        if len(self.live) > 2 * len(self.model):
            self.live = list(self.model)
        wire = [dict(op, id=ack["id"]) for op, ack in zip(batch, outcome["results"])]
        if len(self.wire_batches) < 256:
            self.wire_batches.append(wire)

    def wal_counts(self) -> tuple[int, int]:
        """Synced appends and bytes appended so far, from the engine's registry."""
        registry = self.system.engine.stats.registry
        fsyncs = registry.get("wal_fsync_seconds", backend=self.backend)
        appended = registry.get("wal_bytes_total", backend=self.backend)
        return (fsyncs.count if fsyncs else 0, int(appended.value) if appended else 0)

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        """Ops until the driver's compaction: every pass folds the delta once.

        No timers: the driver compacts as soon as the engine reports
        ``COMPACT_AT`` delta records, so pass lengths and counts repeat.
        """
        result = PassResult(traced=tracer is not None)
        engine = self.system.engine
        backend = self.backend
        clock = time.perf_counter
        delta_seen: list[int] = []
        delta = engine.mutation_info(backend)["delta_records"]
        fsyncs, wal_bytes, upserted = (*self.wal_counts(), self.upserted_bytes)
        result.trace_from(tracer)
        begin = clock()
        # Every pass asks the same queries in the same order.
        for turn in range(1, 1 << 30):
            write = turn % self.WRITE_EVERY == 0
            if write:
                op: Any = self.next_batch()
            else:
                op = self.queries[(turn - turn // self.WRITE_EVERY - 1) % len(self.queries)]
            name = "executor.mutate" if write else "executor.search"
            start = clock()
            try:
                with maybe_span(tracer, "op"), maybe_span(tracer, name):
                    outcome = engine.mutate(backend, op) if write else engine.search(op)
            except Exception:  # noqa: BLE001 - any failure is a failed op
                result.raised += 1
                continue
            elapsed = clock() - start
            if not write:
                result.query_s.append(elapsed)
                delta_seen.append(delta)
                # Exactness is checked on the final state; on the way, no
                # answer may name a record the acknowledged history deleted.
                if any(obj_id not in self.model for obj_id in outcome.ids):
                    result.wrong += 1
                if tracer is not None:
                    result.ops.append(OpRecord("query", int(elapsed * 1e9)))
                continue
            result.write_s.append(elapsed)
            result.write_records += len(op)
            if tracer is not None:
                result.ops.append(OpRecord("write", int(elapsed * 1e9)))
            self.acknowledge(op, outcome)
            delta = engine.mutation_info(backend)["delta_records"]
            if delta < self.compact_at:
                continue
            start = clock()
            with maybe_span(tracer, "op"), maybe_span(tracer, "executor.compact"):
                engine.compact(backend)
            result.compact_s.append(clock() - start)
            break
        result.wall_s = clock() - begin
        now_fsyncs, now_bytes = self.wal_counts()
        result.counters = {
            "delta_records_sum": sum(delta_seen),
            "queries": len(delta_seen),
            "fsyncs": now_fsyncs - fsyncs,
            "wal_bytes": now_bytes - wal_bytes,
            "upserted_bytes": self.upserted_bytes - upserted,
        }
        result.trace_to(tracer)
        return result

    def check(self, result: PassResult) -> None:
        result.answers = []

    def oracle(self, tracer: Tracer | None) -> tuple[int, int]:
        """Final state against a from-scratch rebuild of the live records.

        The rebuild is scanned linearly, so one check covers the filter, the
        delta overlay, the tombstones and every compaction at once.
        """
        engine = self.system.engine
        live_ids = sorted(self.model)
        rebuilt = SearchEngine(cache_size=0)
        rebuilt.add_dataset(self.backend, [self.model[obj_id] for obj_id in live_ids])
        wrong = 0
        for key in self.oracle_keys:
            query = self.queries[key]
            with maybe_span(tracer, "oracle.ring"):
                served = engine.search(query)
            with maybe_span(tracer, "oracle.linear"):
                truth = rebuilt.search(replace(query, algorithm="linear"))
            if sorted(served.ids) != sorted(live_ids[position] for position in truth.ids):
                wrong += 1
        return len(self.oracle_keys), wrong


WORKLOADS = [
    SetsInproc,
    GraphsInproc,
    SetsTopkCache,
    StringsRW,
    SetsSharded2,
    SetsServedC1,
    HammingServedC2,
]
