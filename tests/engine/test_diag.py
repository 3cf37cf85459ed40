"""The diagnostics layer: profiler, exemplars, tail sampling, SLO monitors."""

from __future__ import annotations

import inspect
import json
import os
import re
import signal
import threading
import time

import pytest

from repro.common import diag, obs
from repro.engine import (
    EngineClient,
    Query,
    RequestError,
    SearchEngine,
    ServerConfig,
    ServerThread,
    ShardedEngine,
    build_shards,
)
from tests.engine.test_replication import _replica_pid, _replicated, _wait_until

# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, role",
    [
        ("engine-batch_0", "executor"),
        ("engine-server", "batcher"),
        ("asyncio_0", "batcher"),
        ("auto-compact-sets", "compaction"),
        ("MainThread", "batcher"),
        ("ThreadPoolExecutor-3_0", "other"),
    ],
)
def test_thread_role_mapping(name, role):
    assert diag.thread_role(name) == role


def test_thread_role_main_override():
    assert diag.thread_role("MainThread", main_role="shard-worker") == "shard-worker"


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i * i for i in range(500))


def test_profiler_attributes_samples_to_roles():
    stop = threading.Event()
    worker = threading.Thread(target=_spin, args=(stop,), name="engine-batch_test")
    worker.start()
    try:
        with diag.SamplingProfiler(hz=200.0) as profiler:
            time.sleep(0.25)
            snapshot = profiler.snapshot()
    finally:
        stop.set()
        worker.join()
    assert snapshot["diag_wire_version"] == diag.PROFILE_WIRE_VERSION
    assert snapshot["ticks"] > 0
    roles = snapshot["roles"]
    assert "executor" in roles
    assert roles["executor"]["samples"] > 0
    # The busy loop's leaf frames dominate the executor role.
    folded = diag.render_folded(snapshot)
    assert any(line.startswith("executor;") for line in folded.splitlines())
    top = diag.top_self_frames(snapshot, top=5)
    assert top and top[0]["samples"] >= top[-1]["samples"]
    attribution = diag.role_attribution(snapshot)
    assert attribution
    assert abs(sum(attribution.values()) - 1.0) < 1e-9


def test_profiler_snapshots_merge():
    a = {
        "diag_wire_version": 1,
        "hz": 67.0,
        "running": True,
        "duration_s": 2.0,
        "ticks": 100,
        "roles": {"executor": {"samples": 3, "stacks": {"m:f;m:g": 3}}},
    }
    b = {
        "diag_wire_version": 1,
        "hz": 50.0,
        "running": False,
        "duration_s": 5.0,
        "ticks": 10,
        "roles": {
            "executor": {"samples": 2, "stacks": {"m:f;m:g": 1, "m:f;m:h": 1}},
            "shard-worker": {"samples": 4, "stacks": {"w:scan": 4}},
        },
    }
    merged = diag.merge_profiles([a, b, {}])
    assert merged["ticks"] == 110
    assert merged["duration_s"] == 5.0
    assert merged["roles"]["executor"]["stacks"]["m:f;m:g"] == 4
    assert merged["roles"]["shard-worker"]["samples"] == 4


def test_profiler_memory_is_bounded():
    profiler = diag.SamplingProfiler(hz=1.0, max_stacks=2)
    # Drive the aggregation path directly with synthetic distinct stacks.
    bucket = profiler._roles.setdefault("executor", {})
    for i in range(10):
        stack = f"m:frame_{i}"
        if stack in bucket or len(bucket) < profiler.max_stacks:
            bucket[stack] = bucket.get(stack, 0) + 1
        else:
            bucket[diag.OVERFLOW_STACK] = bucket.get(diag.OVERFLOW_STACK, 0) + 1
    assert len(bucket) <= profiler.max_stacks + 1
    assert bucket[diag.OVERFLOW_STACK] == 8


def _time_workload(repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum(i * i for i in range(60_000))
        best = min(best, time.perf_counter() - t0)
    return best


def test_profiler_overhead_is_small():
    """A 67 Hz sampler must not meaningfully slow the sampled workload."""
    ratio = float("inf")
    for _attempt in range(3):  # best-of retries absorb scheduler noise
        off = _time_workload(5)
        with diag.SamplingProfiler(hz=diag.DEFAULT_PROFILE_HZ):
            on = _time_workload(5)
        ratio = min(ratio, on / off if off else 1.0)
        if ratio <= 1.05:
            break
    assert ratio <= 1.05, f"profiler overhead {100 * (ratio - 1):.1f}% exceeds 5%"


# ---------------------------------------------------------------------------
# OpenMetrics exemplars
# ---------------------------------------------------------------------------

_EXEMPLAR_SUFFIX_RE = re.compile(
    r'^\{trace_id="[^"\\]+"\} [0-9.eE+-]+ [0-9.eE+-]+$'
)


def test_histogram_exemplar_grammar():
    registry = obs.MetricsRegistry()
    registry.histogram("engine_query_seconds", "q", backend="sets").observe(
        0.004, trace_id="deadbeef"
    )
    text = registry.render_prometheus()
    annotated = [line for line in text.splitlines() if " # {" in line]
    assert annotated, "no exemplar rendered"
    for line in annotated:
        sample, _sep, suffix = line.partition(" # ")
        assert _EXEMPLAR_SUFFIX_RE.match(suffix), suffix
        # The stripped sample must parse as an ordinary exposition line.
        stripped = obs.strip_exemplar(line)
        assert stripped == sample
        float(stripped.rpartition(" ")[2])
    # Exactly one bucket (the owning one) carries the exemplar.
    assert len([line for line in annotated if 'le="0.005"' in line]) == 1


def test_exemplars_survive_wire_merge_newest_wins():
    old = obs.MetricsRegistry()
    h = old.histogram("engine_query_seconds", "q", backend="sets")
    h.observe(0.004, trace_id="older")
    h.exemplars[h._bucket_index(0.004)] = ("older", 0.004, 100.0)

    new = obs.MetricsRegistry()
    h2 = new.histogram("engine_query_seconds", "q", backend="sets")
    h2.observe(0.0045, trace_id="newer")
    h2.exemplars[h2._bucket_index(0.0045)] = ("newer", 0.0045, 200.0)

    merged = obs.MetricsRegistry.merged([old.to_wire(), new.to_wire()])
    hist = merged.get("engine_query_seconds", backend="sets")
    assert hist.count == 2
    kept = [ex for ex in hist.exemplars if ex is not None]
    assert kept == [("newer", 0.0045, 200.0)]
    # A second round trip (parent re-exporting the merged dump) is lossless.
    again = obs.MetricsRegistry.merged([merged.to_wire()])
    assert again.get("engine_query_seconds", backend="sets").exemplars == hist.exemplars


def test_untraced_histograms_carry_no_exemplars():
    registry = obs.MetricsRegistry()
    registry.histogram("engine_query_seconds", "q").observe(0.004)
    assert registry.get("engine_query_seconds").exemplars is None
    assert " # {" not in registry.render_prometheus()
    assert "exemplars" not in json.dumps(registry.to_wire())


# ---------------------------------------------------------------------------
# Tail-based trace sampling
# ---------------------------------------------------------------------------


def test_tail_sampler_keeps_all_slow_and_errors_under_tight_budget():
    sampler = diag.TailSampler(capacity=256, budget=0.01, slow_ms=50.0)
    for i in range(1000):
        sampler.add({"trace_id": f"fast-{i}"}, e2e_ms=1.0)
    for i in range(20):
        sampler.add({"trace_id": f"slow-{i}"}, e2e_ms=80.0)
    for i in range(5):
        sampler.add({"trace_id": f"err-{i}"}, error=True)
    stats = sampler.stats()
    assert stats["kept_slow"] == 20
    assert stats["kept_error"] == 5
    assert stats["kept_sampled"] == 10  # 1% of 1000, deterministic stride
    assert stats["offered"] == 1025
    kept_ids = {doc["trace_id"] for doc in sampler.snapshot()}
    assert all(f"slow-{i}" in kept_ids for i in range(20))
    assert all(f"err-{i}" in kept_ids for i in range(5))


def test_tail_sampler_full_budget_matches_trace_buffer():
    sampler = diag.TailSampler(capacity=4, budget=1.0)
    for i in range(6):
        sampler.add({"trace_id": f"t{i}"})
    assert len(sampler) == 4
    assert [doc["trace_id"] for doc in sampler.snapshot()] == ["t5", "t4", "t3", "t2"]
    assert [doc["trace_id"] for doc in sampler.snapshot(2)] == ["t5", "t4"]


def test_tail_sampler_interleaves_newest_first():
    sampler = diag.TailSampler(capacity=8, budget=1.0, slow_ms=10.0)
    sampler.add({"trace_id": "a"}, e2e_ms=1.0)
    sampler.add({"trace_id": "b"}, e2e_ms=99.0)  # slow -> tail ring
    sampler.add({"trace_id": "c"}, e2e_ms=1.0)
    assert [doc["trace_id"] for doc in sampler.snapshot()] == ["c", "b", "a"]


def test_tail_sampler_infers_latency_from_duration():
    sampler = diag.TailSampler(capacity=8, budget=0.0, slow_ms=10.0)
    assert sampler.add({"trace_id": "s", "duration_ms": 25.0})
    assert not sampler.add({"trace_id": "f", "duration_ms": 1.0})
    assert [doc["trace_id"] for doc in sampler.snapshot()] == ["s"]


def test_tail_sampler_rejects_bad_budget():
    with pytest.raises(ValueError, match="budget"):
        diag.TailSampler(budget=1.5)


def test_tail_sampler_rejects_negative_slow_ms():
    """The slow ring's threshold is validated where it is set."""
    with pytest.raises(ValueError, match="slow_ms"):
        diag.TailSampler(slow_ms=-1.0)
    with pytest.raises(ValueError, match="slow_query_ms"):
        ServerConfig(slow_query_ms=-1.0)


# ---------------------------------------------------------------------------
# SLO burn-rate monitors
# ---------------------------------------------------------------------------


def test_slo_burn_rate_math():
    slo = diag.SloMonitor(objective=0.99, latency_ms=100.0)
    now = 10_000.0
    for _ in range(90):
        slo.observe(10.0, now=now)
    for _ in range(10):
        slo.observe(500.0, now=now)  # over the latency target -> bad
    # 10% bad over a 1% budget -> burn rate 10.
    status = slo.status(now=now)
    assert status["windows"]["fast"]["burn_rate"] == pytest.approx(10.0)
    assert status["windows"]["fast"]["bad"] == 10
    # Fast window burns at 10 < 14.4: not breaching yet.
    assert not status["breaching"]


def test_slo_breaching_requires_both_windows():
    slo = diag.SloMonitor(objective=0.99, latency_ms=100.0)
    now = 10_000.0
    for _ in range(80):
        slo.observe(10.0, now=now)
    for _ in range(20):
        slo.observe(10.0, error=True, now=now)
    status = slo.status(now=now)
    # 20% bad -> burn 20 exceeds both 14.4 (fast) and 6.0 (slow).
    assert status["breaching"]
    # An hour later the fast window is clean but the slow window still
    # remembers the bad minute: no longer breaching (the blip ended).
    later = now + 2000.0
    for _ in range(50):
        slo.observe(10.0, now=later)
    status = slo.status(now=later)
    assert status["windows"]["fast"]["burn_rate"] == 0.0
    assert status["windows"]["slow"]["burn_rate"] > 0.0
    assert not status["breaching"]


def test_slo_memory_is_bounded():
    slo = diag.SloMonitor(objective=0.99)
    for i in range(100_000):
        slo.observe(1.0, now=float(i))
    assert len(slo._buckets) <= diag._SLOW_WINDOW_S / diag._BUCKET_S + 2


def test_health_scoreboard_grades_shards():
    board = diag.HealthScoreboard(num_shards=3)
    now = 1000.0
    board.observe(0, latency_s=0.01, now=now)
    board.observe(1, latency_s=0.02, now=now)
    board.observe(1, error=True, now=now)
    board.observe(1, latency_s=0.01, now=now)
    report = board.report(now=now)
    assert [entry["status"] for entry in report] == ["ok", "degraded", "idle"]
    assert report[0]["max_latency_ms"] == pytest.approx(10.0)
    # Half the recent requests failing grades the shard as failing.
    board.observe(2, error=True, now=now)
    board.observe(2, latency_s=0.01, now=now)
    assert board.report(now=now)[2]["status"] == "failing"
    # Events age out of the window entirely.
    assert [e["status"] for e in board.report(now=now + 120.0)] == ["idle"] * 3


# ---------------------------------------------------------------------------
# Consistent /metrics scrapes under concurrent mutation
# ---------------------------------------------------------------------------


def test_metrics_scrape_is_consistent_under_concurrent_mutation(datasets):
    engine = SearchEngine(cache_size=0)
    engine.add_dataset("sets", datasets["sets"])
    stop = threading.Event()
    failures: list[str] = []

    def writer() -> None:
        while not stop.is_set():
            engine.mutate(
                "sets",
                [
                    {"op": "upsert", "record": [1, 2, 3]},
                    {"op": "upsert", "record": [4, 5, 6]},
                ],
            )

    def total(wire: dict, name: str) -> float:
        family = wire.get("families", {}).get(name)
        if family is None:
            return 0.0
        return sum(entry["value"] for entry in family["series"])

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.perf_counter() + 1.0
        scrapes = 0
        while time.perf_counter() < deadline:
            wire = engine.metrics_wire()
            ops = total(wire, "engine_mutation_ops_total")
            batches = total(wire, "engine_mutation_batches_total")
            if ops != 2 * batches:
                failures.append(f"torn scrape: ops={ops} batches={batches}")
                break
            scrapes += 1
    finally:
        stop.set()
        thread.join()
    assert not failures, failures[0]
    assert scrapes > 10


# ---------------------------------------------------------------------------
# Server endpoints: /debug/profile, /debug/slo, exemplars end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def diag_served(datasets):
    """A server with tracing and a latency SLO on."""
    engine = SearchEngine(cache_size=0)
    for name, dataset in datasets.items():
        engine.add_dataset(name, dataset)
    config = ServerConfig(
        trace=True,
        slo_latency_ms=5000.0,
        trace_budget=1.0,
    )
    with ServerThread(engine, config) as handle:
        yield handle


def test_metrics_exemplar_resolves_to_debug_trace(diag_served, query_payloads, taus):
    trace_id = "feedfacecafe0001"
    with EngineClient(diag_served.url) as client:
        client.search("sets", query_payloads["sets"][0], tau=taus["sets"], trace_id=trace_id)
        text = client.metrics()
        annotated = [
            line
            for line in text.splitlines()
            if line.startswith("engine_query_seconds_bucket") and " # {" in line
        ]
        assert annotated, "no exemplar on the query-latency histogram"
        exemplar_ids = {
            re.search(r'# \{trace_id="([^"]+)"\}', line).group(1) for line in annotated
        }
        assert trace_id in exemplar_ids
        known = {doc.get("trace_id") for doc in client.traces()["traces"]}
        assert trace_id in known


def test_debug_profile_returns_folded_stacks(diag_served, query_payloads, taus):
    with EngineClient(diag_served.url) as client:
        for payload in query_payloads["sets"]:
            client.search("sets", payload, tau=taus["sets"])
        payload = client.profile(seconds=0.5)
    profile = payload["profile"]
    assert profile["roles"], "the window produced no samples"
    assert not profile["running"] and 0.4 <= profile["duration_s"] < 2.0
    assert payload["folded"]
    assert payload["top"]
    assert payload["attribution"]
    total_samples = sum(role["samples"] for role in profile["roles"].values())
    assert total_samples > 0
    # Every folded line parses as "role;stack count".
    for line in payload["folded"]:
        head, _sep, count = line.rpartition(" ")
        assert ";" in head and int(count) > 0


@pytest.mark.parametrize("seconds", ["0", "-1", "31", "nan", "bogus"])
def test_debug_profile_rejects_bad_seconds(diag_served, seconds):
    with EngineClient(diag_served.url) as client:
        with pytest.raises(RequestError) as excinfo:
            client._request("GET", f"/debug/profile?seconds={seconds}")
        assert excinfo.value.status == 400


def test_debug_slo_and_healthz_report_burn_rates(diag_served, query_payloads, taus):
    with EngineClient(diag_served.url) as client:
        client.search("sets", query_payloads["sets"][0], tau=taus["sets"])
        payload = client.slo()
        health = client.healthz()
    slo = payload["slo"]
    assert slo["objective"] == 0.99
    assert set(slo["windows"]) == {"fast", "slow"}
    assert slo["windows"]["fast"]["requests"] > 0
    assert not slo["breaching"]
    assert payload["trace_sampling"]["offered"] > 0
    assert health["slo"]["breaching"] is False
    assert "fast_burn_rate" in health["slo"]


def test_debug_traces_reports_sampling_stats(diag_served, query_payloads, taus):
    with EngineClient(diag_served.url) as client:
        client.search("sets", query_payloads["sets"][0], tau=taus["sets"])
        payload = client.traces()
    sampling = payload["sampling"]
    assert sampling["budget"] == 1.0
    assert sampling["offered"] >= sampling["kept_sampled"]


# ---------------------------------------------------------------------------
# Sharded engine: worker profilers and the health scoreboard
# ---------------------------------------------------------------------------


def test_sharded_engine_profiles_workers_and_reports_health(tmp_path, datasets):
    directory = str(tmp_path / "shards")
    build_shards("sets", datasets["sets"], directory, 2)
    with ShardedEngine(directory) as engine:
        engine.start_profiling()
        for step in range(4):
            engine.search(Query(backend="sets", payload=[1, 2, 3 + step], tau=0.5))
        time.sleep(0.3)  # let the worker samplers tick
        wires = engine.profile_wire()
        assert len(wires) == 2
        merged = diag.merge_profiles(wires)
        assert merged["ticks"] > 0
        assert "shard-worker" in merged["roles"]
        health = engine.shard_health()
        assert [entry["shard"] for entry in health] == [0, 1]
        assert all(entry["status"] == "ok" for entry in health)
        assert all(entry["requests"] >= 4 for entry in health)
        engine.stop_profiling()
        assert engine.profile_wire() == []


# ---------------------------------------------------------------------------
# One on-demand /debug/profile window, with no serve flag
# ---------------------------------------------------------------------------

_PROFILE_KEYS = {"schema_version", "profile", "folded", "top", "attribution"}


def _thread_names() -> list[str]:
    return [thread.name for thread in threading.enumerate()]


def _armed_samplers(engine: ShardedEngine) -> int:
    """``diag-profiler`` threads alive in this process and every live worker."""
    names = _thread_names()
    for rset in engine._sets:
        for worker_names in rset.broadcast(_thread_names):
            names.extend(worker_names)
    return names.count("diag-profiler")


def _profile_in_thread(url: str, seconds: float, out: list) -> threading.Thread:
    def run() -> None:
        with EngineClient(url) as client:
            try:
                out.append((client.profile(seconds=seconds), time.perf_counter()))
            except Exception as exc:  # noqa: BLE001 - the test inspects it
                out.append((exc, time.perf_counter()))

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def test_profile_window_covers_shard_workers_with_no_flag(tmp_path, datasets):
    directory = str(tmp_path / "shards")
    build_shards("sets", datasets["sets"], directory, 2)
    with ShardedEngine(directory) as engine, ServerThread(engine) as handle:
        with EngineClient(handle.url) as client:
            payload = client.profile(seconds=0.3)
        assert set(payload) == _PROFILE_KEYS
        assert payload["profile"]["roles"]["shard-worker"]["samples"] > 0
        assert payload["attribution"]["shard-worker"] > 0
        assert _armed_samplers(engine) == 0 and engine.profile_wire() == []


def test_plain_engine_answers_the_profile_window_with_the_same_keys(diag_served):
    with EngineClient(diag_served.url) as client:
        payload = client.profile(seconds=0.2)
    assert set(payload) == _PROFILE_KEYS
    assert "shard-worker" not in payload["profile"]["roles"]
    assert "diag-profiler" not in _thread_names()


def test_overlapping_profile_windows_run_one_at_a_time(tmp_path, datasets):
    directory = str(tmp_path / "shards")
    build_shards("sets", datasets["sets"], directory, 2)
    with ShardedEngine(directory) as engine, ServerThread(engine) as handle:
        out: list = []
        started = time.perf_counter()
        first = _profile_in_thread(handle.url, 0.5, out)
        time.sleep(0.1)
        second = _profile_in_thread(handle.url, 0.5, out)
        first.join()
        second.join()
        assert _armed_samplers(engine) == 0
    (one, _), (two, finished) = out
    # The second waited for the first to disarm instead of cutting it short:
    # both windows ran whole, back to back.
    assert finished - started >= 0.95
    for payload in (one, two):
        assert payload["profile"]["duration_s"] >= 0.45
        assert payload["profile"]["roles"]["shard-worker"]["samples"] > 0


def test_replica_killed_and_healed_mid_window_fails_nothing(tmp_path, datasets):
    with _replicated(tmp_path, datasets) as engine, ServerThread(engine) as handle:
        out: list = []
        window = _profile_in_thread(handle.url, 1.5, out)
        time.sleep(0.3)
        os.kill(_replica_pid(engine, 0, 0), signal.SIGKILL)
        window.join()
        payload, _ = out[0]
        assert set(payload) == _PROFILE_KEYS, payload
        assert payload["profile"]["roles"]["shard-worker"]["samples"] > 0
        assert _wait_until(
            lambda: all(
                entry["live_replicas"] == 2 for entry in engine.shard_health()
            )
        )
        assert _armed_samplers(engine) == 0 and engine.profile_wire() == []
        with EngineClient(handle.url) as client:
            again = client.profile(seconds=0.3)
        # All four workers (the healed one included) sampled the next window.
        assert again["profile"]["ticks"] > payload["profile"]["ticks"] / 5
        assert again["profile"]["roles"]["shard-worker"]["samples"] > 0
        assert _armed_samplers(engine) == 0


def test_a_drain_that_cancels_a_window_disarms_it(tmp_path, datasets):
    directory = str(tmp_path / "shards")
    build_shards("sets", datasets["sets"], directory, 2)
    with ShardedEngine(directory) as engine:
        out: list = []
        with ServerThread(engine, ServerConfig(drain_timeout_s=0.2)) as handle:
            window = _profile_in_thread(handle.url, 20.0, out)
            assert _wait_until(lambda: len(engine.profile_wire()) == 2, timeout=5.0)
        window.join()
        assert isinstance(out[0][0], Exception)  # the connection was cut
        assert _armed_samplers(engine) == 0 and engine.profile_wire() == []


# ---------------------------------------------------------------------------
# The slow ring is the slow-query log
# ---------------------------------------------------------------------------


def test_slow_request_keeps_its_summary_through_a_flood_of_fast_traces(
    datasets, query_payloads, taus
):
    engine = SearchEngine(cache_size=64)
    engine.add_dataset("sets", datasets["sets"])
    search = engine.search

    def stall_the_marked_query(query):
        if query.trace_id == "slow-one":
            time.sleep(0.05)
        return search(query)

    engine.search = stall_the_marked_query
    # The cached repeats that follow are far under the threshold.
    config = ServerConfig(slow_query_ms=25.0, trace_budget=0.01)
    with ServerThread(engine, config) as handle, EngineClient(handle.url) as client:
        payload = query_payloads["sets"][0]
        slow = client.search("sets", payload, tau=taus["sets"], trace_id="slow-one")
        assert slow.trace["duration_ms"] >= 25.0
        for _ in range(400):  # three times the ring's capacity
            client.search("sets", payload, tau=taus["sets"])
        body = client.traces()
    assert body["sampling"]["kept_slow"] >= 1
    assert body["sampling"]["dropped"] > 300
    kept = {doc["trace_id"]: doc for doc in body["traces"]}
    doc = kept["slow-one"]
    assert [span["name"] for span in doc["spans"]] == ["coalesce_wait", "batch_exec"]
    summary = doc["query"]
    assert summary["route"] == "/search" and summary["backend"] == "sets"
    assert summary["tau"] == taus["sets"] and summary["k"] is None
    assert summary["algorithm"] == "ring" and summary["batch_size"] == 1
    assert summary["num_results"] == len(slow.ids)
    assert summary["num_candidates"] >= summary["num_results"]
    assert summary["cached"] is False and summary["ts"] > 0


# ---------------------------------------------------------------------------
# The removed options stay removed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["slow_query_log", "slow_query_max_mb", "profile_hz", "max_batch_size"]
)
def test_server_config_rejects_removed_fields(name):
    with pytest.raises(TypeError, match=name):
        ServerConfig(**{name: 1})


@pytest.mark.parametrize(
    "flag",
    [
        "--slow-query-log",
        "--slow-query-max-mb",
        "--profile-hz",
        "--slow-query-keep-files",
        "--max-batch",
    ],
)
def test_serve_rejects_removed_flags(flag, capsys):
    from repro.engine.cli import build_parser

    parser = build_parser()
    parser.parse_args(["serve", "--index", "x", "--slow-query-ms", "5"])  # still there
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--index", "x", flag, "1"])
    assert flag in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--help"])
    assert flag not in capsys.readouterr().out


@pytest.mark.parametrize("engine_class", [SearchEngine, ShardedEngine])
def test_start_profiling_takes_no_rate(engine_class):
    assert list(inspect.signature(engine_class.start_profiling).parameters) == ["self"]
