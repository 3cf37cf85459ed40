"""The repo benchmark: seven workloads, end to end and layer by layer.

One run (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a report and, as its last line, one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  Without
``--workload`` it runs the whole suite, each run in a process of its own::

    python3 benchmarks/perf/run.py [--seed 11] [--trace] [--aa] [--smoke]

See README.md beside this file for what every metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

os.environ.setdefault("OMP_NUM_THREADS", "1")

from harness import REPO_ROOT, SRC_DIR, Tracer, child_env, pass_stats, peak_rss_mb, recording

if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit(f"the program under test is missing: no package at {SRC_DIR}/repro")
sys.path.insert(0, SRC_DIR)

import layers  # noqa: E402 - needs the program on the path
import numpy  # noqa: E402
from workloads import WORKLOADS, InprocSystem, ServedSystem, ShardedSystem  # noqa: E402

from repro.engine import get_backend  # noqa: E402

SETUP_REPEATS = 3
SMOKE_SECONDS = 0.3


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def input_digest(workload) -> str:
    """A short hash of the generated inputs: same seed, same digest."""
    backend = get_backend(workload.backend)
    digest = hashlib.sha256()
    if isinstance(workload.records, numpy.ndarray):
        digest.update(workload.records.tobytes())
    else:
        for record in workload.records:
            digest.update(json.dumps(backend.record_to_wire(record)).encode("utf-8"))
    for query in workload.queries:
        digest.update(json.dumps(backend.payload_to_wire(query.payload)).encode("utf-8"))
    digest.update(repr([key for key, _ in workload.ops]).encode("utf-8"))
    return digest.hexdigest()[:16]


def environment(seed: int, digest: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "input_digest": digest,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def measure_untraced(workload, seconds: float) -> list:
    passes = []
    measured = 0.0
    while measured < seconds:
        result = workload.run_pass(None)
        workload.check(result)
        passes.append(result)
        measured += result.wall_s
    return passes


def measure_traced(workload, tracer: Tracer, seconds: float) -> tuple[list, list]:
    """Alternate passes with tracing off and on until both the time and the
    passes the exact counters need are there."""
    plain, traced = [], []
    measured = 0.0
    while measured < seconds or len(traced) < workload.exact_passes:
        for target, active in ((plain, None), (traced, tracer)):
            with recording(active):
                result = workload.run_pass(active)
            workload.check(result)
            target.append(result)
            measured += result.wall_s
    return plain, traced


def traced_metrics(workload, tracer: Tracer, plain, traced, reference, workdir: str) -> dict:
    out_of_process = reference is not None
    local = [reference] if out_of_process else traced
    exact = [reference] if out_of_process else traced[: workload.exact_passes]
    metrics = layers.layer_metrics(tracer, local, traced, exact)
    if workload.k is None:
        metrics["topk.rungs_per_query"] = 0.0
    metrics["wal.append_ms_p50"] = layers.probe_wal(workload, workdir)
    system = workload.system
    if isinstance(system, ShardedSystem):
        metrics.update(layers.sharding_metrics(system.engine, system.start_s))
    if isinstance(system, ServedSystem):
        metrics.update(layers.scrape_server(system.clients[0]))
        metrics["server.start_s"] = system.start_s
    untraced = pass_stats(plain)
    for name in ("write_p50_ms", "write_p99_ms", "write_records_per_s"):
        metrics[name] = untraced[name]
    base = untraced["query_p50_ms"]
    metrics["bench.trace_overhead_pct"] = (pass_stats(traced)["query_p50_ms"] - base) / base * 100
    return metrics


def write_trace(path: str, workload, env: dict, tracer: Tracer, coverage: float) -> None:
    document = {
        "workload": workload.name,
        "environment": env,
        "coverage": coverage,
        "summary": tracer.summary(),
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
        "spans": tracer.spans,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def run_one(args: argparse.Namespace, contract: dict) -> int:
    """One workload, one seed, one mode; the result is the last line printed."""
    classes = {cls.name: cls for cls in WORKLOADS}
    workload = classes[args.workload](smoke=args.smoke)
    workload.inject_wrong_id = args.inject_wrong_id
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    workload.generate(args.seed)
    env = environment(args.seed, input_digest(workload))
    out_dir = os.path.join(REPO_ROOT, "runs", "perf", f"seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=out_dir)
    tracer = Tracer() if args.trace else None
    original = layers.install_tracing_backend(workload.backend, tracer) if tracer else None
    try:
        setup_s = []
        repeats = 1 if (args.smoke or tracer) else SETUP_REPEATS
        for repeat in range(repeats):
            if repeat:
                workload.teardown()
            directory = os.path.join(workdir, f"setup{repeat}")
            os.makedirs(directory)
            start = time.perf_counter()
            workload.setup(directory)
            setup_s.append(time.perf_counter() - start)
        with recording(tracer):
            reference = workload.build_reference(tracer)
        if tracer:
            # Probed on the state set-up left, so that sizes repeat exactly.
            probes = layers.probe_persistence(workload, workdir)
            probes.update(layers.probe_wire(workload))
        if isinstance(workload.system, ShardedSystem):
            workload.system.engine.reset_stats()
        warm = workload.run_pass(None)
        workload.check(warm)
        if tracer:
            plain, traced = measure_traced(workload, tracer, seconds)
            passes = plain + traced
        else:
            passes = measure_untraced(workload, seconds)
        if isinstance(workload.system, InprocSystem):
            workload.system.engine.clear_cache()
        with recording(tracer):
            checked, wrong = workload.oracle(tracer)
        if tracer:
            metrics = traced_metrics(workload, tracer, plain, traced, reference, workdir)
            metrics.update(probes)
    finally:
        workload.teardown()
        workload.close_reference()
        if original is not None:
            layers.restore_backend(original)
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = checked + sum(result.attempted for result in [warm] + passes)
    failed = wrong + sum(result.failed for result in [warm] + passes)
    stats = pass_stats(passes)
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(env))
    print(
        f"ops attempted {attempted}  ok {attempted - failed}  failed {failed}  "
        f"(oracle sample {checked}, wrong {wrong})"
    )
    print(
        f"passes {stats['passes']}  measured wall {stats['wall_s']:.2f} s  "
        f"query samples {stats['query_samples']}  write samples {stats['write_samples']}"
    )
    print(f"per-pass query p50 ms {stats['pass_p50_ms']}")
    print(f"per-pass query p99 ms {stats['pass_p99_ms']}")
    print(f"per-pass query qps {stats['pass_qps']}")
    if tracer:
        metrics["error_rate"] = failed / attempted
        trace_path = os.path.join(out_dir, f"trace-{workload.name}.json")
        write_trace(trace_path, workload, env, tracer, metrics["bench.trace_coverage"])
        print(f"trace file {os.path.relpath(trace_path, REPO_ROOT)}")
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
    else:
        print(f"set-ups {[round(value, 4) for value in setup_s]} s")
        units = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
        measured = dict(stats, setup_s=statistics.median(setup_s), peak_rss_mb=peak_rss_mb())
        metrics = {name: measured[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.4f} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name} (trace {trace}) exited with code {done.returncode}")
    for line in lines[:-1]:
        print("    " + line)
    return json.loads(lines[-1])


def run_suite(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Every workload untraced, then (``trace``) traced; one process per run."""
    results: dict[str, dict] = {}
    for cls in WORKLOADS:
        print(f"== {cls.name} (seed {seed}) ==")
        results[cls.name] = {"end_to_end": run_child(cls.name, seed, seconds, 0, smoke)}
        if trace:
            results[cls.name]["per_layer"] = run_child(cls.name, seed, seconds, 1, smoke)
    return results


def compare(first: dict, second: dict, contract: dict) -> int:
    """A/A: two sets of runs of the same code, against the benchmark's own bounds."""
    bounds = {metric["name"]: metric for metric in contract["end_to_end"]}
    breaches = 0
    print(f"{'workload':20s} {'metric':14s} {'first':>12s} {'second':>12s} {'diff':>8s} bound")
    for name, runs in first.items():
        for metric, spec in bounds.items():
            a = runs["end_to_end"]["metrics"][metric]["value"]
            b = second[name]["end_to_end"]["metrics"][metric]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            breach = abs(worse) > spec["bound"]
            breaches += breach
            flag = "  BREACH" if breach else ""
            row = f"{name:20s} {metric:14s} {a:12.4f} {b:12.4f} {worse:+8.1%} {spec['bound']:5.2f}"
            print(row + flag)
        for metric, spec in layers.LAYER_METRICS.items():
            a = runs["per_layer"]["metrics"][metric]["value"]
            b = second[name]["per_layer"]["metrics"][metric]["value"]
            if spec[2] and a != b:
                breaches += 1
                print(f"{name:20s} {metric}: exact counter differs: {a!r} vs {b!r}  BREACH")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[cls.name for cls in WORKLOADS])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    parser.add_argument("--aa", action="store_true", help="two suites back to back, compared")
    parser.add_argument("--smoke", action="store_true", help="every size at about 1/20")
    parser.add_argument(
        "--inject-wrong-id",
        action="store_true",
        help="self-test: corrupt one answer and see it counted as a failed op",
    )
    args = parser.parse_args()
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload:
        return run_one(args, contract)
    first = run_suite(args.seed, args.seconds, bool(args.trace) or args.aa, args.smoke)
    if not args.aa:
        failed = sum(run["failed"] for runs in first.values() for run in runs.values())
        return 1 if failed else 0
    second = run_suite(args.seed, args.seconds, True, args.smoke)
    return compare(first, second, contract)


if __name__ == "__main__":
    sys.exit(main())
