"""Measurement core of the repo benchmark: spans, passes, percentiles, processes.

Nothing here knows a workload; :mod:`workloads` supplies the systems and the
op plans, :mod:`layers` turns what is recorded here into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sequence (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

# Span record layout (a list, so the end time can be filled in on exit).
NAME, START, END, PARENT, OP = range(5)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        tracer = self.tracer
        stack = tracer._stack
        if not stack:
            tracer.op_id += 1  # a root span opens a new op
        index = len(tracer.spans)
        tracer.spans.append(
            [self.name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, tracer.op_id]
        )
        stack.append(index)
        return index

    def __exit__(self, *exc_info) -> None:
        tracer = self.tracer
        tracer.spans[tracer._stack.pop()][END] = time.perf_counter_ns()


def maybe_span(tracer: "Tracer | None", name: str):
    """A span on a traced run, nothing on an untraced one."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def recording(tracer: "Tracer | None"):
    """Record the tracing backend's spans for a block (nothing on untraced runs)."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


class Tracer:
    """In-memory span recorder, written out once when the run ends.

    In-process layers nest through :meth:`span` (single caller, so one stack
    is enough); out-of-process layers are reconstructed after the fact from
    public response fields and recorded with :meth:`add`.  ``enabled`` is
    flipped per pass (see :func:`recording`): a traced run alternates passes
    with tracing off and on, and the difference is the tracing overhead.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0
        # One row per kernel call: (op id, algorithm, candidate seconds,
        # verify seconds, generated, verified candidates, results).
        self.kernel_calls: list[tuple] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        if parent < 0:
            self.op_id += 1
        self.spans.append([name, start_ns, end_ns, parent, self.op_id])
        return len(self.spans) - 1

    def add_inside(self, name: str, parent: int, duration_ns: int) -> int:
        """A child whose duration another process reported, centred in its parent.

        Clocks differ between processes, so only the duration is measured.
        """
        start, end = self.spans[parent][START], self.spans[parent][END]
        duration_ns = min(duration_ns, end - start)
        offset = (end - start - duration_ns) // 2
        return self.add(name, start + offset, start + offset + duration_ns, parent)

    def roots(self) -> list[int]:
        """Index of the root span of every span (parents precede children)."""
        roots: list[int] = []
        for index, record in enumerate(self.spans):
            roots.append(index if record[PARENT] < 0 else roots[record[PARENT]])
        return roots

    def self_times(self) -> list[int]:
        """Per-span self time: duration minus what its children cover."""
        spans = self.spans
        own = [record[END] - record[START] for record in spans]
        duration = list(own)
        for index, record in enumerate(spans):
            parent = record[PARENT]
            if parent >= 0:
                own[parent] -= min(duration[index], duration[parent])
        return [max(0, value) for value in own]

    def summary(self) -> dict:
        """Per span name: count, total and self milliseconds."""
        table: dict[str, list] = {}
        for record, own in zip(self.spans, self.self_times()):
            row = table.setdefault(record[NAME], [0, 0, 0])
            row[0] += 1
            row[1] += record[END] - record[START]
            row[2] += own
        return {
            name: {"count": row[0], "total_ms": row[1] / 1e6, "self_ms": row[2] / 1e6}
            for name, row in sorted(table.items())
        }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    """What a traced pass keeps about one op, beyond its spans."""

    kind: str
    latency_ns: int
    cached: bool = False
    engine_ms: float | None = None
    batch_size: int | None = None


@dataclass
class PassResult:
    """One pass: a fixed, repeatable unit of work, timed op by op."""

    wall_s: float = 0.0
    callers: int = 1
    query_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    compact_s: list[float] = field(default_factory=list)
    write_records: int = 0
    raised: int = 0
    wrong: int = 0
    # (key, response) pairs checked after the pass, outside every timed region.
    answers: list[tuple] = field(default_factory=list)
    # Traced passes only.
    traced: bool = False
    ops: list[OpRecord] = field(default_factory=list)
    span_range: tuple[int, int] = (0, 0)
    kernel_range: tuple[int, int] = (0, 0)
    counters: dict = field(default_factory=dict)

    def trace_from(self, tracer: Tracer | None) -> None:
        """Remember where this pass's spans and kernel rows begin."""
        if tracer is not None:
            self.span_range = (len(tracer.spans), 0)
            self.kernel_range = (len(tracer.kernel_calls), 0)

    def trace_to(self, tracer: Tracer | None) -> None:
        if tracer is not None:
            self.span_range = (self.span_range[0], len(tracer.spans))
            self.kernel_range = (self.kernel_range[0], len(tracer.kernel_calls))

    @property
    def attempted(self) -> int:
        return len(self.query_s) + len(self.write_s) + len(self.compact_s) + self.raised

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def best_times(passes: list[list[float]]) -> list[float]:
    """Per op position of a pass, the fastest time seen over all the passes.

    A pass is the same work every time, and interference on a shared machine
    only ever adds time: stalls last from milliseconds to seconds here, and
    the machine's speed drifts by several percent between them.  Taking each
    op's best time over its repeats keeps what the op costs every time
    (including a tail that belongs to the query, or to where it falls in the
    pass) and drops what the neighbours added.  Over ten runs this spread
    about a third as much as the median over passes whenever the machine
    was busy, and the same when it was calm.
    """
    if not passes:
        return []
    return [min(times) for times in zip(*passes)]  # zip stops at the shortest pass


def pass_stats(passes: list[PassResult]) -> dict:
    """End-to-end statistics of a set of passes.

    Latency percentiles are taken over `best_times`; rates are those of the
    best pass.
    """
    query_passes = [p for p in passes if p.query_s]
    write_passes = [p for p in passes if p.write_s]
    wall = sum(p.wall_s for p in passes)
    queries = best_times([p.query_s for p in query_passes])
    writes = best_times([p.write_s for p in write_passes])
    return {
        "query_p50_ms": percentile(queries, 0.5) * 1e3,
        "query_p99_ms": percentile(queries, 0.99) * 1e3,
        "query_qps": max((len(p.query_s) / p.wall_s for p in query_passes), default=0.0),
        "write_p50_ms": percentile(writes, 0.5) * 1e3,
        "write_p99_ms": percentile(writes, 0.99) * 1e3,
        "write_records_per_s": max((p.write_records / p.wall_s for p in write_passes), default=0.0),
        "pass_p50_ms": [round(percentile(p.query_s, 0.5) * 1e3, 4) for p in query_passes],
        "pass_p99_ms": [round(percentile(p.query_s, 0.99) * 1e3, 4) for p in query_passes],
        "pass_qps": [round(len(p.query_s) / p.wall_s, 2) for p in query_passes],
        "query_samples": sum(len(p.query_s) for p in passes),
        "write_samples": sum(len(p.write_s) for p in passes),
        "passes": len(passes),
        "wall_s": wall,
    }


# ---------------------------------------------------------------------------
# Processes and the environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Environment for subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    return env


class ServerProcess:
    """``python -m repro.engine serve`` as a subprocess, always reaped."""

    READY_TIMEOUT_S = 60.0

    def __init__(self, index_dir: str, workdir: str) -> None:
        ready_file = os.path.join(workdir, "ready")
        command = [sys.executable, "-m", "repro.engine", "serve"]
        command += ["--index", index_dir, "--ready-file", ready_file]
        self._log = open(os.path.join(workdir, "server.log"), "wb")
        try:
            self._process = subprocess.Popen(
                command, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT
            )
        except BaseException:
            self._log.close()
            raise
        try:
            deadline = time.monotonic() + self.READY_TIMEOUT_S
            while not os.path.exists(ready_file):
                if self._process.poll() is not None:
                    raise RuntimeError(f"the server exited with code {self._process.returncode}")
                if time.monotonic() > deadline:
                    raise TimeoutError("the server did not become ready in time")
                time.sleep(0.002)
            with open(ready_file, encoding="utf-8") as handle:
                host, port = handle.read().split()
            self.url = f"http://{host}:{port}"
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; waits until the process ended."""
        process = self._process
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            self._log.close()


def reap_workers(timeout_s: float = 10.0) -> None:
    """Wait for this process's multiprocessing children; kill stragglers.

    ``ShardedEngine.close`` shuts its pools down without waiting, so the
    worker processes are joined here: nothing outlives the benchmark, and
    ``RUSAGE_CHILDREN`` only counts children that have been waited for.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)
    for process in multiprocessing.active_children():
        process.terminate()
        process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports kilobytes
