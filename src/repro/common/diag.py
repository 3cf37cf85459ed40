"""Diagnostics layer: sampling profiler, tail sampling and SLO monitors.

Three facilities that answer "why is p99 slow *right now*", layered on the
metrics/tracing substrate of :mod:`repro.common.obs`:

* a **sampling profiler** -- a daemon thread samples
  ``sys._current_frames()`` and aggregates folded (flamegraph-collapsed)
  stacks per *thread role*: the server's asyncio loop is the ``batcher``,
  the server's ``engine-batch`` pool threads are the ``executor``,
  ``auto-compact-*`` threads are ``compaction`` and shard worker processes
  report as ``shard-worker``.  It runs for one ``GET /debug/profile``
  window at a time (armed, slept on, collected, disarmed), never for a
  process lifetime.  Memory is bounded (at most ``max_stacks`` distinct
  stacks per role, overflow folded into an ``(overflow)`` pseudo-stack),
  snapshots are JSON-safe and mergeable across processes, and
  ``render_folded`` emits standard collapsed-stack lines that flamegraph
  tooling consumes directly.

* a **tail-based trace sampler** -- a ring of recent trace documents
  (``add`` / ``snapshot`` / ``__len__``) with a retention policy: slow
  traces (over ``slow_ms``) and error traces are *always* kept in a
  dedicated ring, while ordinary traces pass through a budgeted stride
  sampler (``budget=0.01`` keeps ~1%).  The always-keep ring is the
  server's slow-query log: each document carries the query summary next to
  its span timeline, and ordinary traffic cannot evict it.

* **SLO burn-rate monitors** -- a multi-window (fast 5m / slow 1h)
  burn-rate monitor over a latency/error objective, plus a per-shard
  health scoreboard for the sharded engine.  Windows, thresholds and
  bucket width are module constants: nothing ever set them.

The :class:`Supervisor` loop the replicated engine heals with lives here
too.  Everything is stdlib-only and safe to import in shard worker
processes.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from typing import Callable, Iterable

PROFILE_WIRE_VERSION = 1

# The sampling rate of every profiling window.  67 Hz resolves
# millisecond-scale stages while the sampling thread itself stays well under
# 1% of one core; a prime-ish rate avoids beating against periodic work.
DEFAULT_PROFILE_HZ = 67.0

# A sampled stack deeper than this is truncated at the root end; the leaf
# frames (where self time is spent) are always retained.
_STACK_DEPTH_LIMIT = 64

# Pseudo-stack that absorbs samples once a role has max_stacks distinct
# folded stacks, keeping profiler memory bounded on pathological workloads.
OVERFLOW_STACK = "(overflow)"


def thread_role(name: str, main_role: str = "batcher") -> str:
    """Map a thread name to its engine stage role.

    ``main_role`` is what ``MainThread`` reports as: the asyncio accept loop
    (``batcher``) when profiling a server process, ``shard-worker`` when
    profiling inside a shard worker process.
    """
    if name.startswith("engine-batch"):
        return "executor"
    if name.startswith("engine-server") or name.startswith("asyncio"):
        return "batcher"
    if name.startswith("auto-compact"):
        return "compaction"
    if name.endswith("-supervisor") or name.startswith("supervisor"):
        return "supervisor"
    if name == "MainThread":
        return main_role
    return "other"


def _fold(frame) -> str:
    """Render one thread's frame chain as a collapsed stack, root first."""
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < _STACK_DEPTH_LIMIT:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Sampling profiler with bounded memory.

    ``start()`` spawns a daemon thread that wakes ``hz`` times a second,
    walks ``sys._current_frames()`` and attributes each thread's folded
    stack to its role.  ``snapshot()`` returns a JSON-safe, mergeable dump
    at any time (running or stopped).  The profiler's own sampling thread
    is excluded from its samples.
    """

    def __init__(
        self,
        hz: float = DEFAULT_PROFILE_HZ,
        max_stacks: int = 512,
        main_role: str = "batcher",
    ) -> None:
        if not hz > 0:
            raise ValueError("profiler hz must be positive")
        if max_stacks < 1:
            raise ValueError("profiler max_stacks must be at least 1")
        self.hz = float(hz)
        self.max_stacks = int(max_stacks)
        self.main_role = main_role
        self._lock = threading.Lock()
        self._roles: dict[str, dict[str, int]] = {}
        self._ticks = 0
        self._active_s = 0.0
        self._t0: float | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        with self._lock:
            if self._thread is not None:
                return self
            self._stop = threading.Event()
            self._t0 = time.perf_counter()
            self._thread = threading.Thread(
                target=self._run, name="diag-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            stop = self._stop
            self._thread = None
        if thread is None:
            return
        stop.set()
        thread.join(timeout=2.0)
        with self._lock:
            if self._t0 is not None:
                self._active_s += time.perf_counter() - self._t0
                self._t0 = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- sampling -----------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        while not self._stop.wait(interval):
            self._sample(me)

    def _sample(self, skip_ident: int) -> None:
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        with self._lock:
            self._ticks += 1
            for ident, frame in frames.items():
                if ident == skip_ident:
                    continue
                name = names.get(ident)
                if name is None:
                    continue  # thread died between the two snapshots
                role = thread_role(name, self.main_role)
                stack = _fold(frame)
                bucket = self._roles.setdefault(role, {})
                if stack in bucket or len(bucket) < self.max_stacks:
                    bucket[stack] = bucket.get(stack, 0) + 1
                else:
                    bucket[OVERFLOW_STACK] = bucket.get(OVERFLOW_STACK, 0) + 1

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump; ``samples`` per role count thread-samples."""
        with self._lock:
            duration = self._active_s
            if self._t0 is not None:
                duration += time.perf_counter() - self._t0
            roles = {
                role: {"samples": sum(stacks.values()), "stacks": dict(stacks)}
                for role, stacks in self._roles.items()
            }
            return {
                "diag_wire_version": PROFILE_WIRE_VERSION,
                "hz": self.hz,
                "running": self._thread is not None,
                "duration_s": round(duration, 3),
                "ticks": self._ticks,
                "roles": roles,
            }


def merge_profiles(wires: Iterable[dict]) -> dict:
    """Fold profiler snapshots (e.g. parent + shard workers) into one."""
    merged: dict = {
        "diag_wire_version": PROFILE_WIRE_VERSION,
        "hz": 0.0,
        "running": False,
        "duration_s": 0.0,
        "ticks": 0,
        "roles": {},
    }
    for wire in wires:
        if not wire:
            continue
        merged["hz"] = max(merged["hz"], float(wire.get("hz", 0.0)))
        merged["running"] = merged["running"] or bool(wire.get("running"))
        merged["duration_s"] = max(merged["duration_s"], float(wire.get("duration_s", 0.0)))
        merged["ticks"] += int(wire.get("ticks", 0))
        for role, dumped in wire.get("roles", {}).items():
            bucket = merged["roles"].setdefault(role, {"samples": 0, "stacks": {}})
            bucket["samples"] += int(dumped.get("samples", 0))
            stacks = bucket["stacks"]
            for stack, count in dumped.get("stacks", {}).items():
                stacks[stack] = stacks.get(stack, 0) + int(count)
    return merged


def render_folded(profile: dict) -> str:
    """Collapsed-stack text (``role;frame;frame count``), flamegraph-ready."""
    lines: list[str] = []
    for role in sorted(profile.get("roles", {})):
        stacks = profile["roles"][role].get("stacks", {})
        for stack, count in sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{role};{stack} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def top_self_frames(profile: dict, top: int = 15) -> list[dict]:
    """Hottest frames by *self* samples (the leaf of each folded stack)."""
    totals: dict[tuple[str, str], int] = {}
    all_samples = 0
    for role, dumped in profile.get("roles", {}).items():
        for stack, count in dumped.get("stacks", {}).items():
            leaf = stack.rsplit(";", 1)[-1]
            totals[(role, leaf)] = totals.get((role, leaf), 0) + int(count)
            all_samples += int(count)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        {
            "role": role,
            "frame": frame,
            "samples": count,
            "share": round(count / all_samples, 4) if all_samples else 0.0,
        }
        for (role, frame), count in ranked[: max(0, int(top))]
    ]


def role_attribution(profile: dict) -> dict[str, float]:
    """Fraction of all samples attributed to each thread role."""
    samples = {
        role: int(dumped.get("samples", 0))
        for role, dumped in profile.get("roles", {}).items()
    }
    total = sum(samples.values())
    if not total:
        return {}
    return {role: count / total for role, count in samples.items()}


# ---------------------------------------------------------------------------
# Tail-based trace sampling
# ---------------------------------------------------------------------------


class TailSampler:
    """Tail-based trace retention: keep the interesting, sample the rest.

    A ring of trace documents (``add`` / ``snapshot`` / ``__len__``) with two
    retention classes:

    * **always-keep** -- traces flagged as errors, and traces whose
      end-to-end latency reaches ``slow_ms``, go to a dedicated ring that
      ordinary traffic can never evict;
    * **budgeted** -- every other trace passes a deterministic stride
      sampler: ``budget=1.0`` keeps everything, ``budget=0.01`` keeps every
      100th.

    ``snapshot`` interleaves both rings newest-first, so ``/debug/traces``
    surfaces the slow tail alongside a representative sample of the rest.
    """

    def __init__(
        self,
        capacity: int = 128,
        budget: float = 1.0,
        slow_ms: float | None = None,
    ) -> None:
        if not 0.0 <= budget <= 1.0:
            raise ValueError("trace budget must be in [0, 1]")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        cap = max(1, int(capacity))
        self.budget = float(budget)
        self.slow_ms = slow_ms
        self._stride = 0 if budget == 0.0 else max(1, round(1.0 / budget))
        self._lock = threading.Lock()
        self._tail: "deque[tuple[int, dict]]" = deque(maxlen=cap)
        self._sampled: "deque[tuple[int, dict]]" = deque(maxlen=cap)
        self._seq = 0
        self._ordinary = 0
        self.offered = 0
        self.kept_slow = 0
        self.kept_error = 0
        self.kept_sampled = 0
        self.dropped = 0

    def add(self, trace_doc: dict, *, e2e_ms: float | None = None, error: bool = False) -> bool:
        """Offer a trace; returns True when retained."""
        if e2e_ms is None:
            e2e_ms = trace_doc.get("duration_ms")
        with self._lock:
            self._seq += 1
            self.offered += 1
            if error:
                self.kept_error += 1
                self._tail.append((self._seq, trace_doc))
                return True
            if self.slow_ms is not None and e2e_ms is not None and e2e_ms >= self.slow_ms:
                self.kept_slow += 1
                self._tail.append((self._seq, trace_doc))
                return True
            self._ordinary += 1
            if self._stride and self._ordinary % self._stride == 1 % self._stride:
                self.kept_sampled += 1
                self._sampled.append((self._seq, trace_doc))
                return True
            self.dropped += 1
            return False

    def snapshot(self, last: int | None = None) -> list[dict]:
        """Most recent first across both retention classes."""
        with self._lock:
            tagged = sorted(
                list(self._tail) + list(self._sampled), key=lambda sv: -sv[0]
            )
        docs = [doc for _, doc in tagged]
        return docs if last is None else docs[: max(0, int(last))]

    def __len__(self) -> int:
        with self._lock:
            return len(self._tail) + len(self._sampled)

    def stats(self) -> dict:
        with self._lock:
            return {
                "offered": self.offered,
                "kept_slow": self.kept_slow,
                "kept_error": self.kept_error,
                "kept_sampled": self.kept_sampled,
                "dropped": self.dropped,
                "budget": self.budget,
                "slow_ms": self.slow_ms,
            }


# ---------------------------------------------------------------------------
# SLO burn-rate monitoring
# ---------------------------------------------------------------------------


# The multi-window burn-rate recipe: the fast window catches a fresh
# regression, the slow one stops a blip from paging.  A burn rate of 14.4
# spends a 30-day error budget in two days, 6.0 in five.
_FAST_WINDOW_S = 300.0
_SLOW_WINDOW_S = 3600.0
_FAST_BURN = 14.4
_SLOW_BURN = 6.0
# Granularity of the good/bad counts (memory is O(slow window / bucket)).
_BUCKET_S = 10.0


class SloMonitor:
    """Multi-window burn-rate monitor over a latency/error objective.

    The SLO is "a fraction ``objective`` of requests are *good*", where a
    request is bad when it errored or (with ``latency_ms`` set) exceeded
    the latency target.  Burn rate over a window is the observed bad
    fraction divided by the error budget ``1 - objective``: 1.0 means the
    budget is being spent exactly at the sustainable rate.  Following the
    multi-window pattern, :meth:`status` reports ``breaching`` only when
    *both* the fast (5 min) and the slow (1 h) window exceed their
    thresholds.

    Counts are bucketed at 10 s granularity in a bounded ring, so memory is
    O(slow window / bucket) regardless of traffic.  ``now`` can be injected
    on every call for deterministic tests.
    """

    def __init__(self, objective: float = 0.99, latency_ms: float | None = None) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError("SLO objective must be in (0, 1)")
        if latency_ms is not None and latency_ms <= 0:
            raise ValueError("SLO latency target must be positive")
        self.objective = float(objective)
        self.latency_ms = latency_ms
        self._lock = threading.Lock()
        max_buckets = int(_SLOW_WINDOW_S / _BUCKET_S) + 2
        self._buckets: "deque[list]" = deque(maxlen=max_buckets)  # [start, good, bad]

    def observe(self, latency_ms: float, error: bool = False, now: float | None = None) -> None:
        bad = error or (self.latency_ms is not None and latency_ms > self.latency_ms)
        now = time.time() if now is None else now
        start = now - (now % _BUCKET_S)
        with self._lock:
            if self._buckets and self._buckets[-1][0] == start:
                bucket = self._buckets[-1]
            else:
                bucket = [start, 0, 0]
                self._buckets.append(bucket)
            bucket[2 if bad else 1] += 1

    def _window(self, seconds: float, threshold: float, now: float) -> dict:
        lo = now - seconds - _BUCKET_S
        with self._lock:
            counts = [(good, bad) for start, good, bad in self._buckets if start >= lo]
        bad = sum(b for _g, b in counts)
        total = sum(g for g, _b in counts) + bad
        rate = (bad / total) / (1.0 - self.objective) if total else 0.0
        return {
            "seconds": seconds,
            "requests": total,
            "bad": bad,
            "burn_rate": round(rate, 4),
            "threshold": threshold,
        }

    def status(self, now: float | None = None) -> dict:
        now = time.time() if now is None else now
        fast = self._window(_FAST_WINDOW_S, _FAST_BURN, now)
        slow = self._window(_SLOW_WINDOW_S, _SLOW_BURN, now)
        return {
            "objective": self.objective,
            "latency_ms": self.latency_ms,
            "windows": {"fast": fast, "slow": slow},
            "breaching": bool(
                fast["burn_rate"] >= _FAST_BURN and slow["burn_rate"] >= _SLOW_BURN
            ),
        }


class Supervisor:
    """A background self-healing loop: call ``tick`` every ``interval_s``.

    The replicated sharded engine (``replicas > 1``) runs one of these to
    respawn dead replicas, and for nothing else: background compaction is
    decided on the write path, so a rebuild never holds off a respawn.
    A tick that raises is recorded
    (count + last message) and the loop keeps going -- a transient failure
    in one sweep must not kill the healer; persistent failures surface
    through :meth:`status` on ``/healthz``-style probes.
    """

    def __init__(
        self,
        tick: Callable[[], None],
        interval_s: float = 0.2,
        name: str = "supervisor",
    ) -> None:
        if not interval_s > 0:
            raise ValueError("supervisor interval must be positive")
        self._tick = tick
        self.interval_s = float(interval_s)
        self.name = name
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks = 0
        self._errors = 0
        self._last_error: str | None = None

    def start(self) -> None:
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._tick()
            except Exception as exc:
                with self._lock:
                    self._errors += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
            else:
                with self._lock:
                    self._ticks += 1

    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def status(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "interval_s": self.interval_s,
                "running": self._thread is not None and self._thread.is_alive(),
                "ticks": self._ticks,
                "errors": self._errors,
                "last_error": self._last_error,
            }


# How far back the per-shard health scoreboard looks.
_HEALTH_WINDOW_S = 60.0


class HealthScoreboard:
    """Per-shard rolling health for the sharded engine.

    Tracks requests, errors and worst latency per shard over a sliding
    60 s window and grades each shard ``ok`` / ``degraded`` / ``failing``
    (``idle`` with no recent traffic).  A shard is degraded once any
    recent request failed, failing when at least half did.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("scoreboard needs at least one shard")
        self._lock = threading.Lock()
        # Per shard: deque of (ts, latency_s, error) capped to keep memory
        # bounded even if pruning lags behind a traffic burst.
        self._events: list[deque] = [deque(maxlen=4096) for _ in range(num_shards)]

    def observe(
        self,
        shard: int,
        latency_s: float = 0.0,
        error: bool = False,
        now: float | None = None,
    ) -> None:
        if not 0 <= shard < len(self._events):
            return
        now = time.time() if now is None else now
        with self._lock:
            events = self._events[shard]
            events.append((now, float(latency_s), bool(error)))
            self._prune(events, now)

    def _prune(self, events: deque, now: float) -> None:
        lo = now - _HEALTH_WINDOW_S
        while events and events[0][0] < lo:
            events.popleft()

    def report(self, now: float | None = None) -> list[dict]:
        now = time.time() if now is None else now
        out: list[dict] = []
        with self._lock:
            for shard, events in enumerate(self._events):
                self._prune(events, now)
                requests = len(events)
                errors = sum(1 for _, _, err in events if err)
                worst = max((lat for _, lat, err in events if not err), default=0.0)
                if not requests:
                    status = "idle"
                elif errors * 2 >= requests:
                    status = "failing"
                elif errors:
                    status = "degraded"
                else:
                    status = "ok"
                out.append(
                    {
                        "shard": shard,
                        "window_s": _HEALTH_WINDOW_S,
                        "requests": requests,
                        "errors": errors,
                        "error_rate": round(errors / requests, 4) if requests else 0.0,
                        "max_latency_ms": round(worst * 1000.0, 3),
                        "status": status,
                    }
                )
        return out
