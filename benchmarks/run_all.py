"""Cross-domain benchmark suite: all four backends at 1/2/4 shards.

For every domain (Hamming, sets, strings, graphs) this runner

1. builds a synthetic workload with the backend's ``make_workload``,
2. answers it once through an in-process ``SearchEngine`` (the correctness
   reference),
3. builds a sharded index at each shard count and serves the workload
   through a ``ShardedEngine`` (one worker process per shard), measuring
   throughput and p50/p95 latency with ``repro.engine.bench``,
4. checks the sharded answers equal the reference answers exactly,
5. (unless ``--no-served``) starts the HTTP serving layer as a real
   subprocess (``python -m repro.engine serve``) over each domain's index
   and drives it with the closed-loop load generator at concurrency 1 and
   8, recording achieved QPS, p50/p95/p99 latency and the observed
   micro-batch coalescing under a ``served`` section,
6. (unless ``--no-mutation``) replays the query workload while a writer
   interleaves upserts and deletes, recording query latency and
   throughput **under write load** plus compaction cost under a
   ``mutation`` section -- and asserts that compaction changes no answer,
   and
7. (unless ``--no-pipeline``) runs the threshold workload through the
   columnar candidate pipeline (algorithm ``ring``) and the retained
   scalar searchers (``ring-scalar``) back to back on the same engine,
   recording per-algorithm throughput, the filter-vs-verify candidate
   funnel and per-stage timings under a ``pipeline`` section -- asserting
   the two return identical ids.  ``--pipeline-only`` runs just this
   section (the CI kernel micro-bench smoke), and
8. (unless ``--no-durability``) serves each domain with a write-ahead log
   attached and measures durable ingest over HTTP: single-op ``/upsert``
   at ``wal`` durability (one fsync per op) against ``/mutate`` batches at
   ``memory`` and ``wal`` (one fsync per batch), plus query p99 while
   background auto-compaction folds the delta store, under a
   ``durability`` section -- ``check_regression.py`` holds the batched
   ``wal`` path at or above the single-op rate, and
9. (unless ``--no-observability``) replays the threshold workload once
   with tracing off, once with a trace id threaded through every query,
   and once with the full diagnostics stack armed (continuous sampling
   profiler + tail sampler + span->metrics bridge), plus the latency of a
   ``GET /metrics`` scrape against a live server, under an
   ``observability`` section -- ``benchmarks/check_regression.py`` holds
   the tracing-off throughput within 5% of the ``pipeline`` section's
   ring throughput (the span instrumentation's disabled path must stay
   near-free) and the diagnostics-on overhead -- the best pairwise wall
   ratio against the interleaved tracing-on pass -- under 5% (profiling
   + tail sampling must be cheap enough to leave on in production), and
10. (unless ``--no-replication``) serves one representative domain's
    two-shard index through in-process engines at replication factor 1
    and 2, recording read QPS/latency per factor, the single-search
    failover cost and supervisor heal time after a SIGKILLed replica,
    and the writer-observed maximum op stall during a compaction, under
    a ``replication`` section -- ``check_regression.py`` requires the
    replicated answers to match the reference and the rolling-compaction
    stall to stay under half the compaction's own wall clock (the
    zero-downtime claim, measured rather than asserted).

The single schema-versioned report (``benchmarks/BENCH_all.json`` by
default) carries throughput, latency percentiles, merge overhead and
speedup-vs-1-shard per (domain, shard count), plus the hardware it was
measured on -- process-parallel speedups only materialise with more than
one CPU.  CI's ``bench-regression`` job replays the ``ci`` profile and
gates on ``benchmarks/check_regression.py``.

Run with:  PYTHONPATH=src python benchmarks/run_all.py --profile ci
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time

import repro
from repro.common import diag
from repro.common.stats import Timer
from repro.engine import Query, SearchEngine
from repro.engine.backend import get_backend
from repro.engine.bench import BENCH_SCHEMA_VERSION, run_bench, run_load_bench, wire_requests
from repro.engine.persistence import save_container
from repro.engine.sharding import ShardedEngine, build_shards

#: Workload sizes per profile.  ``ci`` is small enough for a pull-request
#: gate; ``full`` is the nightly / local deep-dive configuration.
PROFILES: dict[str, dict[str, dict]] = {
    "ci": {
        "hamming": dict(size=8000, num_queries=12, repeat=5, seed=101),
        "sets": dict(size=12000, num_queries=12, repeat=5, seed=102),
        "strings": dict(size=6000, num_queries=10, repeat=4, seed=103),
        "graphs": dict(size=120, num_queries=6, repeat=2, seed=104),
    },
    "full": {
        "hamming": dict(size=30000, num_queries=20, repeat=5, seed=101),
        "sets": dict(size=40000, num_queries=20, repeat=5, seed=102),
        "strings": dict(size=20000, num_queries=16, repeat=4, seed=103),
        "graphs": dict(size=300, num_queries=10, repeat=2, seed=104),
    },
}

DEFAULT_SHARD_COUNTS = (1, 2, 4)

#: Closed-loop request volume per served concurrency level, by profile.
SERVED_REQUESTS = {"ci": 120, "full": 600}
SERVED_CONCURRENCY = (1, 8)

#: Write rounds of the query-latency-under-write-load profile.  Each round
#: applies one upsert (and, every third round, one delete) and then replays
#: the whole query workload, so the delta store grows as the run proceeds.
MUTATION_ROUNDS = {"ci": 24, "full": 80}

#: Algorithms compared by the ``pipeline`` section; domains that retain no
#: scalar ring (Hamming was always vectorised) report only ``ring``.
PIPELINE_ALGORITHMS = ("ring", "ring-scalar")

#: Write volume of the ``durability`` section, per profile: single-op
#: upserts and ``/mutate`` batches both push this many ops per ack level.
DURABILITY_OPS = {"ci": 96, "full": 480}
DURABILITY_BATCH_SIZE = 16

#: The ``replication`` section measures the replication layer, not the
#: per-domain kernels, so one representative domain keeps the CI wall
#: clock bounded while still exercising the full replica fan-out.
REPLICATION_DOMAINS = ("sets",)
REPLICATION_SHARDS = 2
REPLICATION_FACTOR = 2


def bench_pipeline(name: str, config: dict) -> dict:
    """Columnar vs scalar threshold search on one in-process engine.

    Both algorithms answer the identical workload on the same store, so the
    throughput ratio is a same-hardware measurement of the columnar
    kernels; per-stage timings and the candidate funnel (generated ->
    verified -> results) come from the engine's per-backend stats.
    """
    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    engine = SearchEngine(cache_size=0)
    store = engine.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    algorithms = [
        algorithm for algorithm in PIPELINE_ALGORITHMS if algorithm in backend.algorithms
    ]
    section: dict = {
        "tau": tau,
        "num_objects": backend.store_size(store),
        "num_queries": len(payloads),
        "repeat": config["repeat"],
        "algorithms": {},
    }
    ids_by_algorithm: dict[str, list] = {}
    for algorithm in algorithms:
        queries = [
            Query(backend=name, payload=payload, tau=tau, algorithm=algorithm)
            for payload in payloads
        ]
        engine.search(queries[0])  # searcher construction is not serving
        engine.reset_stats()
        responses: list = []
        timer = Timer()
        for _ in range(config["repeat"]):
            responses = [engine.search(query) for query in queries]
        wall = timer.elapsed()
        stats = engine.stats.snapshot()["per_backend"][name]
        ids_by_algorithm[algorithm] = [
            sorted(int(obj_id) for obj_id in response.ids) for response in responses
        ]
        section["algorithms"][algorithm] = {
            "throughput_qps": config["repeat"] * len(queries) / wall if wall else 0.0,
            "avg_generated_candidates": stats["avg_generated_candidates"],
            "avg_verified_candidates": stats["avg_candidates"],
            "avg_results": stats["avg_results"],
            "avg_candidate_time_ms": stats["avg_candidate_time_ms"],
            "avg_verify_time_ms": stats["avg_verify_time_ms"],
        }
    if len(algorithms) > 1:
        section["results_agree"] = (
            ids_by_algorithm["ring"] == ids_by_algorithm["ring-scalar"]
        )
        scalar_qps = section["algorithms"]["ring-scalar"]["throughput_qps"]
        section["speedup_columnar_vs_scalar"] = (
            section["algorithms"]["ring"]["throughput_qps"] / scalar_qps if scalar_qps else 0.0
        )
    else:
        section["results_agree"] = True
    return section


def bench_observability(name: str, config: dict) -> dict:
    """Tracing-on vs tracing-off serving throughput for one domain.

    Both passes answer the identical workload on the same engine; the
    traced pass threads a trace id through every query, so the ratio is a
    same-hardware measurement of the span instrumentation.  The disabled
    path must stay near-free: ``check_regression.py`` gates
    ``tracing_off_qps`` against ``pipeline_ring_qps`` -- the
    pipeline-profile workload (algorithm pinned to ``ring``, no trace
    plumbing) re-measured *inside this section*, back to back with the
    off/on passes -- at 5%.  An in-section reference is the only way a
    5% throughput gate survives a shared runner: the ``pipeline``
    section proper runs minutes earlier, and sustained load drift
    between sections dwarfs any real instrumentation cost.  Today the
    untraced default dispatch and pinned ``ring`` coincide, so the gate
    is a sentinel; it starts biting when the default path diverges from
    pinned ``ring`` (e.g. a cost-based planner in front of dispatch).
    The hard bound on the disabled span guards themselves (<2% of a
    query) lives in the tier-1 micro-bench (tests/engine/test_obs.py).

    Each pass is timed individually and the best pass wins: a gated
    *ratio* must not inherit one GC pause or scheduler hiccup, which at
    ci scale (graphs: six ~14 ms queries per pass) would otherwise
    dominate the measurement.

    A third measured pass arms the full diagnostics stack -- the
    continuous sampling profiler, a 1%-budget tail sampler offered every
    trace, and the span->metrics bridge folding every span timeline into
    counters -- over the same traced workload, interleaved iteration by
    iteration with the tracing-on pass.  The gated statistic is
    ``diag_overhead_pct``, the best *pairwise* diag/traced wall ratio
    across the interleaved iterations: adjacent passes share the same
    milliseconds of machine state, so the ratio measures the hooks
    rather than runner load drift.  ``check_regression.py`` caps it at
    the same 5%: the always-on diagnostics posture must stay cheap
    enough, relative to the tracing that feeds it, to never turn off.
    """
    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    engine = SearchEngine(cache_size=0)
    store = engine.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    plain = [Query(backend=name, payload=payload, tau=tau) for payload in payloads]
    traced = [
        Query(backend=name, payload=payload, tau=tau, trace_id=f"bench-{index}")
        for index, payload in enumerate(payloads)
    ]
    reference = [
        Query(backend=name, payload=payload, tau=tau, algorithm="ring")
        for payload in payloads
    ]
    for query in plain:  # searcher construction / cold caches are not serving
        engine.search(query)
    # Gated few-percent ratios need more best-of draws than the ungated
    # sections: min-of-3 on a shared runner still carries ~10% of
    # scheduler noise, min-of-7 does not.
    repeat = max(7, config["repeat"])

    def best_pass(queries: list[Query]) -> tuple[float, list]:
        responses: list = []
        walls: list[float] = []
        for _ in range(repeat):
            timer = Timer()
            responses = [engine.search(query) for query in queries]
            walls.append(timer.elapsed())
        return min(walls), responses

    ref_wall, _ = best_pass(reference)
    off_wall, off_responses = best_pass(plain)

    # The tracing-on and diagnostics-on passes interleave inside one loop:
    # the gated diag-vs-traced ratio must come from the same seconds of
    # wall clock, or sustained load drift between two separate best-of
    # blocks (easily 10%+ on a shared runner) swamps the few-percent hook
    # cost being measured.  The profiler arms only around the diag pass so
    # its cost lands on the correct side of the ratio.
    sampler = diag.TailSampler(capacity=128, budget=0.01)
    bridge = diag.SpanMetricsBridge(engine.stats.registry)
    profiler = diag.SamplingProfiler()
    on_walls: list[float] = []
    diag_walls: list[float] = []
    on_responses: list = []
    for _ in range(repeat):
        timer = Timer()
        on_responses = [engine.search(query) for query in traced]
        on_walls.append(timer.elapsed())
        profiler.start()
        timer = Timer()
        for query in traced:
            response = engine.search(query)
            sampler.add(response.trace, e2e_ms=response.engine_time * 1000.0)
            bridge.record(response.trace, backend=name)
        diag_walls.append(timer.elapsed())
        profiler.stop()
    on_wall = min(on_walls)
    diag_wall = min(diag_walls)
    # The gated overhead is the best *pairwise* ratio: each iteration
    # compares two adjacent passes a few ms apart, so a noise spike that
    # lands on one iteration cannot masquerade as instrumentation cost
    # the way it can when two independent best-of minima are divided.
    diag_ratio = min(d / o for d, o in zip(diag_walls, on_walls) if o) if on_wall else 1.0

    num = len(plain)
    agree = all(
        off.ids == on.ids and on.trace is not None
        for off, on in zip(off_responses, on_responses)
    )
    return {
        "tau": tau,
        "num_queries": repeat * num,
        "pipeline_ring_qps": num / ref_wall if ref_wall else 0.0,
        "tracing_off_qps": num / off_wall if off_wall else 0.0,
        "tracing_on_qps": num / on_wall if on_wall else 0.0,
        "tracing_overhead_pct": (
            100.0 * (on_wall - off_wall) / off_wall if off_wall else 0.0
        ),
        "diag_on_qps": num / diag_wall if diag_wall else 0.0,
        "diag_overhead_pct": 100.0 * (diag_ratio - 1.0),
        "tail_sampler_kept": (
            sampler.stats()["kept_slow"]
            + sampler.stats()["kept_error"]
            + sampler.stats()["kept_sampled"]
        ),
        "traced_results_agree": agree,
    }


def bench_metrics_scrape(name: str, config: dict, samples: int = 10) -> dict:
    """Latency of a ``GET /metrics`` scrape against a live, warmed server."""
    from repro.engine import EngineClient, ServerThread
    from repro.engine.bench import percentile

    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    engine = SearchEngine(cache_size=0)
    store = engine.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    scrape_ms: list[float] = []
    text = ""
    with ServerThread(engine) as handle:
        with EngineClient(handle.url) as client:
            for payload in payloads:  # populate every instrument first
                client.search(name, payload, tau=tau)
            for _ in range(samples):
                timer = Timer()
                text = client.metrics()
                scrape_ms.append(timer.elapsed() * 1000.0)
    return {
        "backend": name,
        "num_samples": samples,
        "scrape_p50_ms": percentile(scrape_ms, 0.50),
        "scrape_p95_ms": percentile(scrape_ms, 0.95),
        "num_series": sum(
            1 for line in text.splitlines() if line and not line.startswith("#")
        ),
    }


def bench_domain(name: str, config: dict, shard_counts: tuple[int, ...], workdir: str) -> dict:
    """Measure one domain at every shard count; returns its report section."""
    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    reference = SearchEngine(cache_size=0)
    store = reference.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    queries = [Query(backend=name, payload=payload, tau=tau) for payload in payloads]
    expected = [sorted(int(obj_id) for obj_id in reference.search(query).ids) for query in queries]

    section: dict = {
        "tau": tau,
        "num_objects": backend.store_size(store),
        "num_queries": len(queries),
        "avg_reference_results": sum(len(ids) for ids in expected) / len(expected),
        "shards": {},
    }
    for count in shard_counts:
        directory = os.path.join(workdir, f"{name}-{count}")
        timer = Timer()
        build_shards(name, dataset, directory, count)
        build_seconds = timer.elapsed()
        with ShardedEngine(directory) as engine:
            report, responses = run_bench(engine, queries, repeat=config["repeat"])
            agree = all(response.ids == ids for response, ids in zip(responses, expected))
            stats = engine.stats.snapshot()
        entry = report.to_dict()
        entry["build_seconds"] = build_seconds
        entry["avg_merge_time_ms"] = stats["avg_merge_time_ms"]
        entry["results_agree"] = agree
        section["shards"][str(count)] = entry

    baseline_qps = section["shards"][str(shard_counts[0])]["throughput_qps"]
    for entry in section["shards"].values():
        entry["speedup_vs_1_shard"] = (
            entry["throughput_qps"] / baseline_qps if baseline_qps else 0.0
        )
    return section


def bench_mutation(name: str, config: dict, rounds: int) -> dict:
    """Query latency under write load, plus compaction cost, for one domain.

    A writer interleaves upserts (records recycled from the dataset itself,
    so every domain works unchanged) and deletes with full replays of the
    query workload; the delta store grows round by round, so the recorded
    percentiles include the linear delta-scan cost a freshly-written index
    pays.  Ends with a ``compact()`` and asserts it changes no answer.
    """
    from repro.engine.bench import percentile

    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    engine = SearchEngine(cache_size=0)
    store = engine.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    queries = [Query(backend=name, payload=payload, tau=tau) for payload in payloads]
    recycled = list(backend.store_records(store))
    engine.search(queries[0])  # warmup: searcher construction is not serving

    latencies_ms: list[float] = []
    num_writes = 0
    next_delete = 0
    timer = Timer()
    for round_index in range(rounds):
        engine.upsert(name, recycled[round_index % len(recycled)])
        num_writes += 1
        if round_index % 3 == 2:
            engine.delete(name, next_delete)
            next_delete += 1
            num_writes += 1
        for query in queries:
            query_timer = Timer()
            engine.search(query)
            latencies_ms.append(query_timer.elapsed() * 1000.0)
    wall = timer.elapsed()

    before = [sorted(engine.search(query).ids) for query in queries]
    compact_timer = Timer()
    summary = engine.compact(name)
    compact_seconds = compact_timer.elapsed()
    after = [sorted(engine.search(query).ids) for query in queries]
    return {
        "tau": tau,
        "rounds": rounds,
        "num_queries": len(latencies_ms),
        "num_writes": num_writes,
        "delta_records_at_compact": summary.get("folded_records", 0),
        "queries_per_s_under_writes": len(latencies_ms) / wall if wall else 0.0,
        "writes_per_s": num_writes / wall if wall else 0.0,
        "query_p50_ms": percentile(latencies_ms, 0.50),
        "query_p95_ms": percentile(latencies_ms, 0.95),
        "compact_seconds": compact_seconds,
        "compact_preserves_answers": before == after,
    }


def bench_durability(name: str, config: dict, num_ops: int, workdir: str) -> dict:
    """Durable ingest throughput and auto-compaction pauses for one domain.

    A live HTTP server (in-process ``ServerThread``, real wire format) over
    a WAL-attached engine answers three write profiles with the same op
    volume: single-op ``/upsert`` shims at ``wal`` durability (one fsync
    per op -- the naive path), then ``/mutate`` batches of
    ``DURABILITY_BATCH_SIZE`` at ``memory`` and at ``wal`` (one fsync per
    *batch* -- the group-commit claim; ``check_regression.py`` holds
    batched-wal ops/s at or above the single-op rate).  A final phase arms
    auto-compaction and interleaves writes with the query workload,
    recording query p99 *including* any compaction swap pauses, and
    verifies the background folds completed cleanly.
    """
    from repro.engine import EngineClient, ServerThread
    from repro.engine.bench import percentile
    from repro.engine.wal import AutoCompactionPolicy

    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    engine = SearchEngine(cache_size=0)
    store = engine.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    engine.attach_wal(name, os.path.join(workdir, f"{name}-durability.wal"))
    recycled = list(backend.store_records(store))
    num_batches = -(-num_ops // DURABILITY_BATCH_SIZE)

    section: dict = {
        "tau": tau,
        "num_ops": num_ops,
        "batch_size": DURABILITY_BATCH_SIZE,
        "levels": {},
    }
    with ServerThread(engine) as handle:
        with EngineClient(handle.url) as client:
            timer = Timer()
            for index in range(num_ops):
                client.upsert(name, recycled[index % len(recycled)], durability="wal")
            wall = timer.elapsed()
            section["single_op_wal_qps"] = num_ops / wall if wall else 0.0
            for level in ("memory", "wal"):
                timer = Timer()
                for index in range(num_batches):
                    ops = [
                        {"op": "upsert", "record": recycled[(index + offset) % len(recycled)]}
                        for offset in range(DURABILITY_BATCH_SIZE)
                    ]
                    client.mutate(name, ops, durability=level)
                wall = timer.elapsed()
                total = num_batches * DURABILITY_BATCH_SIZE
                section["levels"][level] = {
                    "batched_ops_per_s": total / wall if wall else 0.0,
                    "batches_per_s": num_batches / wall if wall else 0.0,
                }
            # Auto-compaction phase: queries ride along with the writes, so
            # their p99 absorbs every container-swap pause.
            engine.enable_auto_compaction(
                name,
                AutoCompactionPolicy(
                    min_delta_records=16, cost_ratio=0.05, max_delta_records=512
                ),
            )
            latencies_ms: list[float] = []
            for index in range(num_batches):
                client.mutate(
                    name,
                    [
                        {"op": "upsert", "record": recycled[(index + offset) % len(recycled)]}
                        for offset in range(DURABILITY_BATCH_SIZE)
                    ],
                    durability="wal",
                )
                for payload in payloads:
                    query_timer = Timer()
                    client.search(name, payload, tau=tau)
                    latencies_ms.append(query_timer.elapsed() * 1000.0)
            engine.wait_for_compaction(name, timeout=120.0)
            info = engine.durability_info(name)["auto_compaction"]
    section["auto_compaction"] = {
        "compactions": info["compactions"],
        "completed_cleanly": bool(info["compactions"]) and info["last_error"] is None,
        "query_p50_ms": percentile(latencies_ms, 0.50),
        "query_p99_ms": percentile(latencies_ms, 0.99),
    }
    single = section["single_op_wal_qps"]
    batched = section["levels"]["wal"]["batched_ops_per_s"]
    section["batched_vs_single_op"] = batched / single if single else 0.0
    return section


def bench_replication(name: str, config: dict, workdir: str) -> dict:
    """Replicated vs single-replica serving, failover cost and compaction stall.

    One sharded index is served twice through in-process ``ShardedEngine``
    instances sharing nothing but the checkpoint: once at replication
    factor 1 and once at :data:`REPLICATION_FACTOR`.  Each pass measures

    * read throughput and latency on the identical workload (answers must
      match the unsharded reference exactly -- routing across replicas is
      not allowed to change a single id),
    * the write stall of a compaction: a writer thread applies acked
      upserts while ``compact()`` runs, and the maximum per-op latency it
      observes is the stall.  With one replica the rebuild blocks every
      write behind it; with two, rolling compaction drains one replica at
      a time while the sibling keeps absorbing the fan-out, so the stall
      must collapse (``check_regression.py`` gates the ratio whenever the
      blocking stall is large enough to measure), and
    * (replicated pass only) failover: SIGKILL one live replica and time
      the next search -- the recovery is transparent, so this is the only
      user-visible cost of a replica death -- then wait for the supervisor
      to respawn it and record the heal time.
    """
    import threading

    from repro.engine.bench import run_bench

    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    reference = SearchEngine(cache_size=0)
    store = reference.add_dataset(name, dataset)
    tau = backend.default_tau(store)
    queries = [Query(backend=name, payload=payload, tau=tau) for payload in payloads]
    expected = [sorted(int(obj_id) for obj_id in reference.search(query).ids) for query in queries]
    recycled = list(backend.store_records(store))
    num_objects = backend.store_size(store)

    section: dict = {
        "tau": tau,
        "num_objects": num_objects,
        "num_queries": len(queries),
        "num_shards": REPLICATION_SHARDS,
        "replicas": {},
    }
    agree = True
    for factor in (1, REPLICATION_FACTOR):
        # Each pass gets its own checkpoint: compaction persists the
        # rebuilt (written-to) containers back into the index directory,
        # which must not leak into the other pass's reference comparison.
        directory = os.path.join(workdir, f"{name}-replication-{factor}")
        build_shards(name, dataset, directory, REPLICATION_SHARDS)
        wal_dir = os.path.join(workdir, f"{name}-replication-wal-{factor}")
        with ShardedEngine(directory, wal_dir=wal_dir, replicas=factor) as engine:
            report, responses = run_bench(engine, queries, repeat=config["repeat"])
            agree = agree and all(
                sorted(int(obj_id) for obj_id in response.ids) == ids
                for response, ids in zip(responses, expected)
            )
            entry = report.to_dict()

            if factor > 1:
                # Failover: the kill is invisible except as one slow search.
                victim = engine.replica_status()[0]["replicas"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                failover_timer = Timer()
                response = engine.search(queries[0])
                entry["failover_search_ms"] = failover_timer.elapsed() * 1000.0
                agree = agree and sorted(int(i) for i in response.ids) == expected[0]
                heal_timer = Timer()
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    health = engine.shard_health()[0]
                    if health["live_replicas"] == health["num_replicas"]:
                        break
                    time.sleep(0.05)
                else:
                    raise RuntimeError(f"replication {name}: replica did not heal")
                entry["heal_seconds"] = heal_timer.elapsed()
                entry["failovers"] = sum(
                    shard.failovers for shard in engine.stats.per_shard
                )

            # Compaction write stall: the writer's worst op latency while
            # the rebuild runs.  Writes use explicit ids so both passes
            # leave the store in the same state.
            stall_ms: list[float] = []
            writer_errors: list[BaseException] = []
            stop = threading.Event()

            def write_through_compaction() -> None:
                index = 0
                try:
                    while not stop.is_set():
                        op_timer = Timer()
                        engine.upsert(
                            name,
                            recycled[index % len(recycled)],
                            obj_id=num_objects + index,
                            durability="wal",
                        )
                        stall_ms.append(op_timer.elapsed() * 1000.0)
                        index += 1
                except BaseException as exc:
                    writer_errors.append(exc)

            writer = threading.Thread(target=write_through_compaction)
            writer.start()
            try:
                time.sleep(0.2)  # establish a write baseline before the rebuild
                compact_timer = Timer()
                engine.compact(name)
                entry["compact_seconds"] = compact_timer.elapsed()
            finally:
                stop.set()
                writer.join(timeout=120.0)
            if writer_errors:
                raise RuntimeError(
                    f"replication {name} r{factor}: writer failed during "
                    f"compaction: {writer_errors[0]!r}"
                )
            entry["writes_through_compaction"] = len(stall_ms)
            entry["max_write_stall_ms"] = max(stall_ms) if stall_ms else 0.0
            section["replicas"][str(factor)] = entry

    section["results_agree"] = agree
    blocking = section["replicas"]["1"]["max_write_stall_ms"]
    rolling = section["replicas"][str(REPLICATION_FACTOR)]["max_write_stall_ms"]
    section["rolling_vs_blocking_stall"] = rolling / blocking if blocking else 0.0
    return section


def _spawn_server(index_dir: str, ready_file: str) -> subprocess.Popen:
    """Start ``python -m repro.engine serve`` with this checkout importable."""
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


def bench_served(name: str, config: dict, num_requests: int, workdir: str) -> dict:
    """Serve one domain over HTTP in a subprocess and drive it with load."""
    backend = get_backend(name)
    dataset, payloads = backend.make_workload(config["size"], config["num_queries"], config["seed"])
    store = backend.prepare(dataset)
    tau = backend.default_tau(store)
    index_dir = os.path.join(workdir, f"{name}-served")
    save_container(backend, store, index_dir)
    requests = wire_requests(
        name, payloads, tau=tau, repeat=-(-num_requests // len(payloads))
    )[:num_requests]

    ready_file = os.path.join(workdir, f"{name}-ready")
    process = _spawn_server(index_dir, ready_file)
    section: dict = {"tau": tau, "num_requests": num_requests, "concurrency": {}}
    try:
        url = _await_ready(ready_file, process)
        for concurrency in SERVED_CONCURRENCY:
            report = run_load_bench(url, requests, concurrency=concurrency, mode="closed")
            if report.num_ok != num_requests:
                raise RuntimeError(
                    f"served {name} c={concurrency}: only {report.num_ok}/"
                    f"{num_requests} requests succeeded"
                )
            section["concurrency"][str(concurrency)] = report.to_dict()
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    base = section["concurrency"][str(SERVED_CONCURRENCY[0])]["achieved_qps"]
    peak = section["concurrency"][str(SERVED_CONCURRENCY[-1])]["achieved_qps"]
    section["speedup_peak_vs_c1"] = peak / base if base else 0.0
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_out = os.path.join(os.path.dirname(__file__), "BENCH_all.json")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="ci")
    parser.add_argument("--out", default=default_out)
    parser.add_argument(
        "--shards",
        default=",".join(str(count) for count in DEFAULT_SHARD_COUNTS),
        help="comma-separated shard counts (first one is the speedup baseline)",
    )
    parser.add_argument(
        "--domains",
        default=None,
        help="comma-separated subset of domains (default: all four)",
    )
    parser.add_argument(
        "--no-served",
        action="store_true",
        help="skip the HTTP served-profile benchmarks",
    )
    parser.add_argument(
        "--no-mutation",
        action="store_true",
        help="skip the query-latency-under-write-load benchmarks",
    )
    parser.add_argument(
        "--no-pipeline",
        action="store_true",
        help="skip the columnar-vs-scalar pipeline benchmarks",
    )
    parser.add_argument(
        "--no-durability",
        action="store_true",
        help="skip the WAL ingest-throughput + auto-compaction benchmarks",
    )
    parser.add_argument(
        "--no-observability",
        action="store_true",
        help="skip the tracing-overhead + /metrics scrape benchmarks",
    )
    parser.add_argument(
        "--no-replication",
        action="store_true",
        help="skip the replicated-serving + failover + compaction-stall benchmarks",
    )
    parser.add_argument(
        "--pipeline-only",
        action="store_true",
        help="run only the pipeline section (the CI kernel micro-bench smoke)",
    )
    args = parser.parse_args(argv)
    if args.pipeline_only and args.no_pipeline:
        parser.error("--pipeline-only and --no-pipeline are mutually exclusive")

    shard_counts = tuple(int(part) for part in args.shards.split(","))
    profile = PROFILES[args.profile]
    domains = list(profile) if args.domains is None else args.domains.split(",")

    report: dict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "profile": args.profile,
        "shard_counts": list(shard_counts),
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "domains": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-shards-") as workdir:
        for name in domains:
            if args.pipeline_only:
                break
            section = bench_domain(name, profile[name], shard_counts, workdir)
            report["domains"][name] = section
            for count, entry in section["shards"].items():
                ok = ok and entry["results_agree"]
                print(
                    f"[{name:>8} x{count}] {entry['throughput_qps']:>8.1f} q/s  "
                    f"p50 {entry['p50_ms']:>7.2f} ms  p95 {entry['p95_ms']:>7.2f} ms  "
                    f"speedup {entry['speedup_vs_1_shard']:.2f}x  "
                    f"agree={entry['results_agree']}"
                )
        if not args.no_pipeline:
            report["pipeline"] = {"algorithms": list(PIPELINE_ALGORITHMS), "domains": {}}
            for name in domains:
                section = bench_pipeline(name, profile[name])
                report["pipeline"]["domains"][name] = section
                ok = ok and section["results_agree"]
                for algorithm, entry in section["algorithms"].items():
                    print(
                        f"[{name:>8} pipeline {algorithm:<11}] "
                        f"{entry['throughput_qps']:>8.1f} q/s  "
                        f"funnel {entry['avg_generated_candidates']:>8.1f} -> "
                        f"{entry['avg_verified_candidates']:>7.1f} -> "
                        f"{entry['avg_results']:>6.1f}  "
                        f"cand {entry['avg_candidate_time_ms']:>6.2f} ms  "
                        f"verify {entry['avg_verify_time_ms']:>6.2f} ms"
                    )
                if "speedup_columnar_vs_scalar" in section:
                    print(
                        f"[{name:>8} pipeline] columnar speedup "
                        f"{section['speedup_columnar_vs_scalar']:.2f}x  "
                        f"agree={section['results_agree']}"
                    )
        if args.pipeline_only:
            report.pop("domains", None)
        if not args.no_mutation and not args.pipeline_only:
            report["mutation"] = {"rounds": MUTATION_ROUNDS[args.profile], "domains": {}}
            for name in domains:
                section = bench_mutation(name, profile[name], MUTATION_ROUNDS[args.profile])
                report["mutation"]["domains"][name] = section
                ok = ok and section["compact_preserves_answers"]
                print(
                    f"[{name:>8} mutation] {section['queries_per_s_under_writes']:>8.1f} q/s "
                    f"under {section['writes_per_s']:.1f} w/s  "
                    f"p50 {section['query_p50_ms']:>7.2f} ms  "
                    f"p95 {section['query_p95_ms']:>7.2f} ms  "
                    f"compact {section['compact_seconds']:.2f}s  "
                    f"stable={section['compact_preserves_answers']}"
                )
        if not args.no_durability and not args.pipeline_only:
            report["durability"] = {
                "ops": DURABILITY_OPS[args.profile],
                "batch_size": DURABILITY_BATCH_SIZE,
                "domains": {},
            }
            for name in domains:
                section = bench_durability(
                    name, profile[name], DURABILITY_OPS[args.profile], workdir
                )
                report["durability"]["domains"][name] = section
                ok = ok and section["auto_compaction"]["completed_cleanly"]
                print(
                    f"[{name:>8} durability] single-op wal "
                    f"{section['single_op_wal_qps']:>7.1f} op/s  "
                    f"batched wal {section['levels']['wal']['batched_ops_per_s']:>8.1f} op/s "
                    f"({section['batched_vs_single_op']:.1f}x)  "
                    f"memory {section['levels']['memory']['batched_ops_per_s']:>8.1f} op/s  "
                    f"compactions {section['auto_compaction']['compactions']}  "
                    f"q p99 {section['auto_compaction']['query_p99_ms']:.2f} ms"
                )
        if not args.no_observability and not args.pipeline_only:
            report["observability"] = {"domains": {}}
            for name in domains:
                section = bench_observability(name, profile[name])
                report["observability"]["domains"][name] = section
                ok = ok and section["traced_results_agree"]
                print(
                    f"[{name:>8} obs] ring ref {section['pipeline_ring_qps']:>8.1f} q/s  "
                    f"tracing off {section['tracing_off_qps']:>8.1f} q/s  "
                    f"on {section['tracing_on_qps']:>8.1f} q/s  "
                    f"overhead {section['tracing_overhead_pct']:+.1f}%  "
                    f"diag on {section['diag_on_qps']:>8.1f} q/s "
                    f"({section['diag_overhead_pct']:+.1f}%)  "
                    f"agree={section['traced_results_agree']}"
                )
            scrape = bench_metrics_scrape(domains[0], profile[domains[0]])
            report["observability"]["metrics_scrape"] = scrape
            print(
                f"[{domains[0]:>8} obs] /metrics scrape p50 {scrape['scrape_p50_ms']:.2f} ms  "
                f"p95 {scrape['scrape_p95_ms']:.2f} ms  ({scrape['num_series']} series)"
            )
        if not args.no_replication and not args.pipeline_only:
            report["replication"] = {
                "num_shards": REPLICATION_SHARDS,
                "factor": REPLICATION_FACTOR,
                "domains": {},
            }
            for name in REPLICATION_DOMAINS:
                if name not in domains:
                    continue
                section = bench_replication(name, profile[name], workdir)
                report["replication"]["domains"][name] = section
                ok = ok and section["results_agree"]
                for factor, entry in section["replicas"].items():
                    extra = (
                        f"failover {entry['failover_search_ms']:>6.1f} ms  "
                        f"heal {entry['heal_seconds']:.1f}s  "
                        if "failover_search_ms" in entry
                        else ""
                    )
                    print(
                        f"[{name:>8} replication r={factor}] "
                        f"{entry['throughput_qps']:>8.1f} q/s  "
                        f"p50 {entry['p50_ms']:>7.2f} ms  "
                        f"p95 {entry['p95_ms']:>7.2f} ms  "
                        f"{extra}"
                        f"write stall {entry['max_write_stall_ms']:>7.1f} ms "
                        f"(compact {entry['compact_seconds']:.2f}s)"
                    )
                print(
                    f"[{name:>8} replication] rolling/blocking stall "
                    f"{section['rolling_vs_blocking_stall']:.3f}  "
                    f"agree={section['results_agree']}"
                )
        if not args.no_served and not args.pipeline_only:
            report["served"] = {
                "levels": list(SERVED_CONCURRENCY),
                "domains": {},
            }
            for name in domains:
                section = bench_served(
                    name, profile[name], SERVED_REQUESTS[args.profile], workdir
                )
                report["served"]["domains"][name] = section
                for level, entry in section["concurrency"].items():
                    print(
                        f"[{name:>8} served c={level:<2}] "
                        f"{entry['achieved_qps']:>8.1f} q/s  "
                        f"p50 {entry['p50_ms']:>7.2f} ms  "
                        f"p99 {entry['p99_ms']:>7.2f} ms  "
                        f"batch {entry['avg_batch_size']:.2f}"
                    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    if not ok:
        print(
            "FAIL: results diverged (sharded vs reference, columnar vs "
            "scalar, or across a compaction)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
