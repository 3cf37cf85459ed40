"""Per-layer metrics: their table, the tracing backend, the direct probes.

Every layer is measured from outside the program: by timing calls into its
public functions and by reading public outputs.  ``LAYER_METRICS`` is the one
table of what is reported; ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from harness import END, NAME, START, PassResult, Tracer, mean, percentile

from repro.engine import (
    WriteAheadLog,
    get_backend,
    load_container,
    register_backend,
    save_container,
)
from repro.engine.wal import op_to_wire
from repro.engine.wire import decode_query, encode_query, encode_response

# name -> (unit, better, exact, what it is and which end-to-end metric it should move).
# ``exact`` marks counts that must repeat for a seed, digit for digit.
LAYER_METRICS: dict[str, tuple[str, str, bool, str]] = {
    # kernel: repro.sets|strings|hamming|graphs + repro.core, via Backend.make_searcher
    "kernel.search_ms_p50": ("ms", "lower", False, "one searcher call"),
    "kernel.search_ms_p99": ("ms", "lower", False, "one searcher call, tail"),
    "kernel.candidate_ms_mean": ("ms", "lower", False, "searcher-reported filter time"),
    "kernel.verify_ms_mean": ("ms", "lower", False, "searcher-reported verification time"),
    "kernel.generated_per_query": ("count", "lower", True, "objects entering the filter"),
    "kernel.candidates_per_query": ("count", "lower", True, "objects reaching verification"),
    "kernel.results_per_query": ("count", "higher", True, "matches (must not change)"),
    "kernel.verify_precision": ("ratio", "higher", True, "results / verified candidates"),
    "kernel.ring_vs_linear": ("ratio", "higher", False, "linear p50 / ring p50; < 1: scan wins"),
    # executor: engine.executor + engine.topk
    "executor.self_ms_p50": ("ms", "lower", False, "SearchEngine.search minus its children"),
    "executor.self_ms_p99": ("ms", "lower", False, "same, tail"),
    "executor.cache_hit_ratio": ("ratio", "higher", True, "ops answered from the result cache"),
    "executor.hit_ms_p50": ("ms", "lower", False, "latency of a cache hit"),
    "topk.rungs_per_query": ("count", "lower", True, "kernel calls per top-k op"),
    # mutation / wal: engine.mutation, engine.wal
    "mutation.mutate_ms_p50": ("ms", "lower", False, "SearchEngine.mutate, one batch"),
    "mutation.delta_scan_ms_p50": ("ms", "lower", False, "Backend.scan_records per query"),
    "mutation.delta_records_mean": ("count", "lower", True, "delta size a query scans"),
    "mutation.compact_ms_p50": ("ms", "lower", False, "SearchEngine.compact"),
    "mutation.compactions": ("count", "lower", True, "compactions in the counted passes"),
    "wal.append_ms_p50": ("ms", "lower", False, "WriteAheadLog.append(sync=True), direct"),
    "wal.fsyncs": ("count", "lower", True, "synced appends in the counted passes"),
    "wal.bytes_per_record_byte": ("ratio", "lower", True, "WAL bytes / upserted bytes"),
    # persistence: engine.persistence
    "persistence.save_s": ("s", "lower", False, "save_container"),
    "persistence.load_s": ("s", "lower", False, "load_container"),
    "persistence.bytes_per_record_byte": ("ratio", "lower", True, "container / record bytes"),
    # sharding: engine.sharding + engine.replication
    "sharding.search_ms_p50": ("ms", "lower", False, "ShardedEngine.search"),
    "sharding.fanout_ms_mean": ("ms", "lower", False, "submit to merged, stats.snapshot()"),
    "sharding.worker_ms_max_mean": ("ms", "lower", False, "slowest shard's mean worker time"),
    "sharding.ipc_ms_mean": ("ms", "lower", False, "fan-out minus slowest worker"),
    "sharding.merge_ms_mean": ("ms", "lower", False, "combining shard answers"),
    "sharding.start_s": ("s", "lower", False, "ShardedEngine() to ready"),
    "sharding.failovers": ("count", "lower", True, "reads retried on a sibling"),
    "sharding.worker_errors": ("count", "lower", True, "worker process failures"),
    # wire: engine.wire + JSON
    "wire.encode_query_us": ("us", "lower", False, "encode_query + json.dumps"),
    "wire.decode_query_us": ("us", "lower", False, "json.loads + decode_query"),
    "wire.encode_response_us": ("us", "lower", False, "encode_response + json.dumps"),
    "wire.request_bytes_mean": ("bytes", "lower", True, "request body size"),
    "wire.response_bytes_mean": ("bytes", "lower", False, "response body size (has a float)"),
    # server / client: engine.server, engine.client
    "server.engine_ms_p50": ("ms", "lower", False, "WireResponse.engine_time_ms"),
    "server.overhead_ms_p50": ("ms", "lower", False, "client latency minus engine time"),
    "server.overhead_share": ("ratio", "lower", False, "overhead / client latency"),
    "server.queue_wait_ms_mean": ("ms", "lower", False, "server_coalesce_wait_seconds"),
    "server.batch_size_mean": ("count", "higher", False, "WireResponse.batch_size"),
    "server.rejected": ("count", "lower", True, "429 + 400 on GET /stats"),
    "server.start_s": ("s", "lower", False, "spawn to ready-file"),
    # Moved here from the end-to-end list: defined on one workload only
    # (write_*) or always zero (error_rate), which that list does not allow.
    "write_p50_ms": ("ms", "lower", False, "caller-observed latency of one mutate batch"),
    "write_p99_ms": ("ms", "lower", False, "same, tail"),
    "write_records_per_s": ("1/s", "higher", False, "acknowledged record ops / wall"),
    "error_rate": ("ratio", "lower", True, "failed ops / attempted ops"),
    # bench
    "bench.trace_coverage": ("ratio", "higher", False, "span self-times / traced op wall"),
    "bench.trace_overhead_pct": ("%", "lower", False, "traced vs untraced query_p50_ms"),
}


# ---------------------------------------------------------------------------
# The tracing backend
# ---------------------------------------------------------------------------


def install_tracing_backend(name: str, tracer: Tracer) -> Any:
    """Register a subclass of backend ``name`` that records kernel spans.

    Returns the original backend, for :func:`restore_backend`.  The subclass
    wraps ``make_searcher`` and ``scan_records`` and nothing else; with
    ``tracer.enabled`` off a wrapped call costs one attribute test.
    """
    original = get_backend(name)

    class TracingBackend(type(original)):  # type: ignore[misc]
        def make_searcher(self, store, algorithm, tau, chain_length):
            if tracer.enabled:
                # Index construction is kernel work, not executor self time.
                with tracer.span("kernel.build"):
                    inner = super().make_searcher(store, algorithm, tau, chain_length)
            else:
                inner = super().make_searcher(store, algorithm, tau, chain_length)
            span_name = "kernel.search" if algorithm == "ring" else "kernel." + algorithm

            def searcher(payload):
                if not tracer.enabled:
                    return inner(payload)
                with tracer.span(span_name):
                    outcome = inner(payload)
                generated = outcome.extra.get("generated", outcome.num_candidates)
                tracer.kernel_calls.append(
                    (
                        tracer.op_id,
                        algorithm,
                        outcome.candidate_time,
                        outcome.verify_time,
                        generated,
                        outcome.num_candidates,
                        outcome.num_results,
                    )
                )
                return outcome

            return searcher

        def scan_records(self, store, payload, records, tau):
            if not tracer.enabled:
                return super().scan_records(store, payload, records, tau)
            with tracer.span("mutation.delta_scan"):
                return super().scan_records(store, payload, records, tau)

    register_backend(TracingBackend(), replace=True)
    return original


def restore_backend(original: Any) -> None:
    register_backend(original, replace=True)


# ---------------------------------------------------------------------------
# Direct probes
# ---------------------------------------------------------------------------


def record_bytes(backend: Any, records: Any) -> int:
    """User data size: the records as compact JSON in the backend's wire form."""
    return sum(
        len(json.dumps(backend.record_to_wire(record), separators=(",", ":"))) for record in records
    )


def directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )


def probe_persistence(workload: Any, workdir: str) -> dict:
    backend = get_backend(workload.backend)
    store = workload.local_engine.store(workload.backend)
    directory = os.path.join(workdir, "probe-container")
    start = time.perf_counter()
    save_container(backend, store, directory)
    saved = time.perf_counter()
    load_container(directory)
    loaded = time.perf_counter()
    return {
        "persistence.save_s": saved - start,
        "persistence.load_s": loaded - saved,
        "persistence.bytes_per_record_byte": directory_bytes(directory)
        / record_bytes(backend, backend.store_records(store)),
    }


def probe_wire(workload: Any, calls: int = 1500) -> dict:
    """Codec cost of this workload's own queries and answers, JSON included."""
    engine = workload.local_engine
    queries = workload.queries[:64]
    responses = [engine.search(query) for query in queries]
    rounds = max(1, calls // len(queries))
    dumps, loads = json.dumps, json.loads
    start = time.perf_counter()
    for _ in range(rounds):
        requests = [dumps(encode_query(query)) for query in queries]
    encoded = time.perf_counter()
    for _ in range(rounds):
        for request in requests:
            decode_query(loads(request))
    decoded = time.perf_counter()
    for _ in range(rounds):
        replies = [dumps(encode_response(response)) for response in responses]
    replied = time.perf_counter()
    total = rounds * len(queries)
    return {
        "wire.encode_query_us": (encoded - start) / total * 1e6,
        "wire.decode_query_us": (decoded - encoded) / total * 1e6,
        "wire.encode_response_us": (replied - decoded) / total * 1e6,
        "wire.request_bytes_mean": mean(len(request) for request in requests),
        "wire.response_bytes_mean": mean(len(reply) for reply in replies),
    }


def probe_wal(workload: Any, workdir: str) -> float:
    """p50 of a synced append of the run's own batches to a scratch log (ms)."""
    batches = getattr(workload, "wire_batches", [])
    if not batches:
        return 0.0
    backend = get_backend(workload.backend)
    times = []
    with WriteAheadLog(os.path.join(workdir, "probe.wal")) as log:
        for batch in batches:
            wire = [op_to_wire(backend, op) for op in batch]
            start = time.perf_counter()
            log.append(workload.backend, wire, sync=True)
            times.append(time.perf_counter() - start)
    return percentile(times, 0.5) * 1e3


def scrape_server(client: Any) -> dict:
    """Queue wait and refusals from ``GET /metrics`` and ``GET /stats``."""
    sums: dict[str, float] = {}
    for line in client.metrics().splitlines():
        if line.startswith("server_coalesce_wait_seconds_"):
            name, _, value = line.rpartition(" ")
            sums[name.split("{")[0]] = float(value)
    count = sums.get("server_coalesce_wait_seconds_count", 0.0)
    total = sums.get("server_coalesce_wait_seconds_sum", 0.0)
    server = client.stats()["server"]
    return {
        "server.queue_wait_ms_mean": total / count * 1e3 if count else 0.0,
        "server.rejected": server["rejected_busy"] + server["rejected_invalid"],
    }


# ---------------------------------------------------------------------------
# From spans and pass records to metrics
# ---------------------------------------------------------------------------


def span_durations(tracer: Tracer, passes: list[PassResult], name: str) -> list[float]:
    """Durations (ms) of the spans called ``name`` inside the given passes."""
    out = []
    for result in passes:
        low, high = result.span_range
        for record in tracer.spans[low:high]:
            if record[NAME] == name:
                out.append((record[END] - record[START]) / 1e6)
    return out


def self_durations(tracer: Tracer, passes: list[PassResult], name: str) -> list[float]:
    own = tracer.self_times()
    out = []
    for result in passes:
        low, high = result.span_range
        for index in range(low, high):
            if tracer.spans[index][NAME] == name:
                out.append(own[index] / 1e6)
    return out


def kernel_rows(tracer: Tracer, passes: list[PassResult]) -> list[tuple]:
    rows = []
    for result in passes:
        low, high = result.kernel_range
        rows.extend(tracer.kernel_calls[low:high])
    return rows


def ring_vs_linear(tracer: Tracer) -> float:
    """Kernel time per oracle op under ``linear`` over the same under ``ring``."""
    roots = tracer.roots()
    totals: dict[str, dict[int, int]] = {"oracle.ring": {}, "oracle.linear": {}}
    for index, record in enumerate(tracer.spans):
        root_name = tracer.spans[roots[index]][NAME]
        if root_name in totals and record[NAME].startswith("kernel."):
            per_op = totals[root_name]
            per_op[roots[index]] = per_op.get(roots[index], 0) + record[END] - record[START]
    ring = percentile(totals["oracle.ring"].values(), 0.5)
    return percentile(totals["oracle.linear"].values(), 0.5) / ring if ring else 0.0


def coverage(tracer: Tracer, system_passes: list[PassResult]) -> float:
    """Self-times of the spans under ``op`` roots over the callers' traced wall."""
    own = tracer.self_times()
    covered = 0
    for result in system_passes:
        low, high = result.span_range
        covered += sum(own[low:high])
    wall = sum(result.wall_s * result.callers for result in system_passes)
    return covered / 1e9 / wall if wall else 0.0


def layer_metrics(
    tracer: Tracer,
    local: list[PassResult],
    system: list[PassResult],
    exact: list[PassResult],
) -> dict:
    """Kernel, executor, mutation, sharding and server metrics of a traced run.

    ``local`` passes hold the in-process spans (the measured passes of an
    in-process workload, the reference pass of a served or sharded one),
    ``system`` the measured traced passes, ``exact`` the leading passes the
    exactly-repeating counters are taken over.
    """
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    kernel = span_durations(tracer, local, "kernel.search")
    out["kernel.search_ms_p50"] = percentile(kernel, 0.5)
    out["kernel.search_ms_p99"] = percentile(kernel, 0.99)
    ring = [row for row in kernel_rows(tracer, local) if row[1] == "ring"]
    out["kernel.candidate_ms_mean"] = mean(row[2] for row in ring) * 1e3
    out["kernel.verify_ms_mean"] = mean(row[3] for row in ring) * 1e3
    counted = [row for row in kernel_rows(tracer, exact) if row[1] == "ring"]
    if counted:
        out["kernel.generated_per_query"] = mean(row[4] for row in counted)
        out["kernel.candidates_per_query"] = mean(row[5] for row in counted)
        out["kernel.results_per_query"] = mean(row[6] for row in counted)
        verified = sum(row[5] for row in counted)
        if verified:
            out["kernel.verify_precision"] = sum(row[6] for row in counted) / verified
    out["kernel.ring_vs_linear"] = ring_vs_linear(tracer)

    executor = self_durations(tracer, local, "executor.search")
    out["executor.self_ms_p50"] = percentile(executor, 0.5)
    out["executor.self_ms_p99"] = percentile(executor, 0.99)
    exact_ops = [op for result in exact for op in result.ops if op.kind == "query"]
    if exact_ops:
        out["executor.cache_hit_ratio"] = mean(op.cached for op in exact_ops)
        out["topk.rungs_per_query"] = len(kernel_rows(tracer, exact)) / len(exact_ops)
    hits = [op.latency_ns / 1e6 for result in local for op in result.ops if op.cached]
    out["executor.hit_ms_p50"] = percentile(hits, 0.5)

    def span_p50(passes: list[PassResult], name: str) -> float:
        return percentile(span_durations(tracer, passes, name), 0.5)

    out["mutation.mutate_ms_p50"] = span_p50(local, "executor.mutate")
    out["mutation.delta_scan_ms_p50"] = span_p50(local, "mutation.delta_scan")
    out["mutation.compact_ms_p50"] = span_p50(local, "executor.compact")
    out["sharding.search_ms_p50"] = span_p50(system, "sharding.search")
    scanned = sum(result.counters.get("queries", 0) for result in exact)
    if scanned:
        total = sum(result.counters["delta_records_sum"] for result in exact)
        out["mutation.delta_records_mean"] = total / scanned
    out["mutation.compactions"] = sum(len(result.compact_s) for result in exact)
    out["wal.fsyncs"] = sum(result.counters.get("fsyncs", 0) for result in exact)
    upserted = sum(result.counters.get("upserted_bytes", 0) for result in exact)
    if upserted:
        logged = sum(result.counters["wal_bytes"] for result in exact)
        out["wal.bytes_per_record_byte"] = logged / upserted

    served = [op for result in system for op in result.ops if op.engine_ms is not None]
    if served:
        overheads = [op.latency_ns / 1e6 - op.engine_ms for op in served]
        out["server.engine_ms_p50"] = percentile([op.engine_ms for op in served], 0.5)
        out["server.overhead_ms_p50"] = percentile(overheads, 0.5)
        out["server.overhead_share"] = sum(overheads) / sum(op.latency_ns for op in served) * 1e6
        out["server.batch_size_mean"] = mean(op.batch_size for op in served)
    out["bench.trace_coverage"] = coverage(tracer, system)
    return out


def sharding_metrics(engine: Any, start_s: float) -> dict:
    """The fan-out breakdown, straight from ``ShardedEngine.stats.snapshot()``."""
    snapshot = engine.stats.snapshot()
    slowest = max(shard["avg_worker_time_ms"] for shard in snapshot["per_shard"])
    fanout = snapshot["avg_fanout_time_ms"] - snapshot["avg_merge_time_ms"]
    return {
        "sharding.fanout_ms_mean": fanout,
        "sharding.worker_ms_max_mean": slowest,
        "sharding.ipc_ms_mean": fanout - slowest,
        "sharding.merge_ms_mean": snapshot["avg_merge_time_ms"],
        "sharding.start_s": start_s,
        "sharding.failovers": sum(shard["failovers"] for shard in snapshot["per_shard"]),
        "sharding.worker_errors": sum(shard["worker_errors"] for shard in snapshot["per_shard"]),
    }
