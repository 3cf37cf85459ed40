"""Metrics registry and request tracing for the serving stack.

Two small, dependency-free facilities shared by the engine, the sharded
engine and the HTTP server:

* a **metrics registry** -- named counters, gauges and fixed-bucket latency
  histograms.  Instruments are get-or-created by ``(name, labels)``, are
  cheap to update under a lock-free fast path (plain attribute writes guarded
  by the GIL), can be snapshotted to a JSON-safe wire dict, **merged** across
  processes (shard workers ship their registries over the existing pickle
  IPC and the parent folds them together), and rendered in the Prometheus
  text exposition format for ``GET /metrics``.  Histogram p50/p95/p99 are
  derived by linear interpolation inside the owning bucket, so merged
  shard histograms answer the same quantile queries as an unsharded one.
  Histograms optionally record an **exemplar** per bucket -- the trace id of
  a recent observation that landed there -- rendered in OpenMetrics
  ``# {trace_id="..."}`` syntax so a slow bucket links to a replayable trace
  in ``/debug/traces``.  Exemplars survive ``merge_wire`` (newest wins).

* **request tracing** -- a span API (``with span("verify"): ...``) built on a
  :class:`contextvars.ContextVar`.  When no trace is active ``span()``
  returns a shared no-op context manager after a single guard check, so the
  disabled path costs one function call and one ContextVar read (bounded by
  a micro-bench test).  When a trace *is* active, spans nest into a tree of
  ``{"name", "start_ms", "duration_ms", "children"}`` nodes that the server
  stitches into an end-to-end request timeline (coalesce wait -> batch exec
  -> per-shard candidate/verify -> merge), retrievable via
  ``Response.trace`` and ``GET /debug/traces`` (whose always-keep ring holds
  every request over the server's slow-query threshold).
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Iterable, Sequence

# Version 2 added optional per-bucket histogram exemplars; merge_wire accepts
# both versions (exemplars are simply absent from v1 dumps).
OBS_WIRE_VERSION = 2

# Versions merge_wire still decodes (v1 dumps are a subset of v2).
SUPPORTED_OBS_WIRE_VERSIONS = frozenset({1, 2})

# Default latency buckets (seconds).  Tuned for the engine's range: a cached
# hit is ~10us, a cold graph query a few hundred ms.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count (float-valued for time totals)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (requests in flight, delta-store size)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with derivable quantiles and exact sum/count.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the overflow.  Two histograms with the same bucket ladder merge
    by element-wise addition, which is exactly how the parent combines the
    per-shard-worker latency histograms: the merged histogram is
    indistinguishable from one that observed every sample itself.

    When an observation carries a ``trace_id``, the owning bucket remembers
    it as an exemplar ``(trace_id, value, unix_ts)``.  Exemplar storage is
    lazy (``None`` until the first traced observation), merges newest-wins,
    and is bounded to one exemplar per bucket.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "exemplars")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError("histogram buckets must be distinct and ascending")
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0
        # One (trace_id, value, unix_ts) per bucket, or None; allocated lazily
        # so untraced histograms pay nothing.
        self.exemplars: list[tuple[str, float, float] | None] | None = None

    def _bucket_index(self, value: float) -> int:
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                return i
        return len(self.buckets)

    def observe(self, value: float, trace_id: str | None = None) -> None:
        self.sum += value
        self.count += 1
        i = self._bucket_index(value)
        self.counts[i] += 1
        if trace_id is not None:
            if self.exemplars is None:
                self.exemplars = [None] * (len(self.buckets) + 1)
            self.exemplars[i] = (str(trace_id), float(value), time.time())

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count
        if other.exemplars is not None:
            self._merge_exemplars(other.exemplars)

    def _merge_exemplars(
        self, incoming: Sequence[tuple[str, float, float] | None]
    ) -> None:
        """Newest observation wins per bucket (timestamps are unix seconds)."""
        if self.exemplars is None:
            self.exemplars = [None] * (len(self.buckets) + 1)
        for i, ex in enumerate(incoming):
            if ex is None:
                continue
            mine = self.exemplars[i]
            if mine is None or ex[2] >= mine[2]:
                self.exemplars[i] = (str(ex[0]), float(ex[1]), float(ex[2]))

    def quantile(self, q: float) -> float:
        """Approximate q-quantile by linear interpolation within the bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, edge in enumerate(self.buckets):
            c = self.counts[i]
            if c and cumulative + c >= target:
                fraction = (target - cumulative) / c
                return lower + (edge - lower) * max(0.0, min(1.0, fraction))
            cumulative += c
            lower = edge
        # Everything beyond the last finite edge: report that edge (the
        # histogram cannot resolve further).
        return self.buckets[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All series of one metric name: kind, help text, labelled instruments."""

    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(self, name: str, kind: str, help: str, buckets=None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: dict[tuple[tuple[str, str], ...], object] = {}


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create instrument store, snapshot/merge/render in one place."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- instrument access --------------------------------------------------

    def _get(self, name: str, kind: str, help: str, buckets, labels: dict[str, str]):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {family.kind}"
                )
            key = _label_key(labels)
            instrument = family.series.get(key)
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(family.buckets or LATENCY_BUCKETS_S)
                else:
                    instrument = _KINDS[kind]()
                family.series[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(name, "gauge", help, None, labels)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None, **labels: str
    ) -> Histogram:
        return self._get(name, "histogram", help, tuple(buckets) if buckets else None, labels)

    def get(self, name: str, **labels: str):
        """Fetch an existing instrument or None (no registration side effect)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.series.get(_label_key(labels))

    # -- serialization ------------------------------------------------------

    def to_wire(self) -> dict:
        """JSON-safe dump: ships over the shard IPC and the HTTP /stats body."""
        with self._lock:
            families = {}
            for name, family in self._families.items():
                series = []
                for key, instrument in family.series.items():
                    entry: dict = {"labels": dict(key)}
                    if family.kind == "histogram":
                        entry["counts"] = list(instrument.counts)
                        entry["sum"] = instrument.sum
                        entry["count"] = instrument.count
                        if instrument.exemplars is not None:
                            entry["exemplars"] = [
                                list(ex) if ex is not None else None
                                for ex in instrument.exemplars
                            ]
                    else:
                        entry["value"] = instrument.value
                    series.append(entry)
                families[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "buckets": list(family.buckets) if family.buckets else None,
                    "series": series,
                }
            return {"obs_wire_version": OBS_WIRE_VERSION, "families": families}

    def merge_wire(self, wire: dict) -> None:
        """Fold a :meth:`to_wire` dump into this registry.

        Counters and histogram buckets add; gauges add too (per-worker sizes
        such as delta-store records are additive across id-range shards).
        """
        version = wire.get("obs_wire_version", 1)
        if version not in SUPPORTED_OBS_WIRE_VERSIONS:
            supported = ", ".join(str(v) for v in sorted(SUPPORTED_OBS_WIRE_VERSIONS))
            raise ValueError(
                f"unsupported obs wire version {version!r} (supported: {supported})"
            )
        for name, dumped in wire.get("families", {}).items():
            kind = dumped["kind"]
            buckets = tuple(dumped["buckets"]) if dumped.get("buckets") else None
            for entry in dumped["series"]:
                labels = entry.get("labels", {})
                if kind == "histogram":
                    hist = self.histogram(name, dumped.get("help", ""), buckets, **labels)
                    incoming = Histogram(hist.buckets)
                    incoming.counts = list(entry["counts"])
                    incoming.sum = float(entry["sum"])
                    incoming.count = int(entry["count"])
                    dumped_exemplars = entry.get("exemplars")
                    if dumped_exemplars:
                        incoming.exemplars = [
                            tuple(ex) if ex is not None else None
                            for ex in dumped_exemplars
                        ]
                    hist.merge(incoming)
                elif kind == "gauge":
                    self.gauge(name, dumped.get("help", ""), **labels).inc(entry["value"])
                else:
                    self.counter(name, dumped.get("help", ""), **labels).inc(entry["value"])

    @classmethod
    def merged(cls, wires: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        for wire in wires:
            registry.merge_wire(wire)
        return registry

    # -- exposition ---------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {_escape_help(family.help)}")
                lines.append(f"# TYPE {name} {family.kind}")
                for key in sorted(family.series):
                    instrument = family.series[key]
                    labels = dict(key)
                    if family.kind == "histogram":
                        exemplars = instrument.exemplars
                        cumulative = 0
                        for i, edge in enumerate(instrument.buckets):
                            cumulative += instrument.counts[i]
                            line = _sample(
                                f"{name}_bucket", {**labels, "le": _fmt(edge)}, cumulative
                            )
                            if exemplars is not None and exemplars[i] is not None:
                                line += _exemplar_suffix(exemplars[i])
                            lines.append(line)
                        line = _sample(
                            f"{name}_bucket", {**labels, "le": "+Inf"}, instrument.count
                        )
                        if exemplars is not None and exemplars[-1] is not None:
                            line += _exemplar_suffix(exemplars[-1])
                        lines.append(line)
                        lines.append(_sample(f"{name}_sum", labels, instrument.sum))
                        lines.append(_sample(f"{name}_count", labels, instrument.count))
                    else:
                        lines.append(_sample(name, labels, instrument.value))
        return "\n".join(lines) + "\n"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: dict[str, str], value: float) -> str:
    if labels:
        rendered = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


def _exemplar_suffix(exemplar: tuple[str, float, float]) -> str:
    """OpenMetrics exemplar: `` # {trace_id="..."} <value> <unix_ts>``."""
    trace_id, value, ts = exemplar
    return f' # {{trace_id="{_escape_label(trace_id)}"}} {_fmt(value)} {_fmt(ts)}'


def strip_exemplar(line: str) -> str:
    """Drop a trailing exemplar annotation from one exposition line."""
    marker = line.find(" # {")
    return line[:marker] if marker >= 0 else line


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class _Node:
    __slots__ = ("name", "start", "end", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.children: list = []  # _Node or pre-rendered span dicts


class Trace:
    """One request timeline: a tree of timed spans plus embedded sub-traces.

    Spans carry offsets relative to the trace start.  A worker's trace is
    embedded as a pre-rendered subtree whose offsets are relative to the
    *worker's* start (clocks are not comparable across processes), which is
    when the worker began the query -- close enough for a timeline.
    """

    __slots__ = ("trace_id", "name", "started_unix", "_t0", "_end", "_root", "_stack")

    def __init__(self, trace_id: str | None = None, name: str = "trace") -> None:
        self.trace_id = trace_id or new_trace_id()
        self.name = name
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self._end: float | None = None
        self._root: list = []
        self._stack: list[_Node] = []

    def begin(self, name: str) -> _Node:
        node = _Node(name, time.perf_counter())
        (self._stack[-1].children if self._stack else self._root).append(node)
        self._stack.append(node)
        return node

    def end(self, node: _Node) -> None:
        node.end = time.perf_counter()
        if self._stack and self._stack[-1] is node:
            self._stack.pop()

    def embed(self, name: str, duration_ms: float, children: list | None, *, start_ms: float = 0.0) -> None:
        """Attach a pre-rendered span subtree under the current span."""
        rendered = {
            "name": name,
            "start_ms": round(start_ms, 4),
            "duration_ms": round(duration_ms, 4),
            "children": children or [],
        }
        (self._stack[-1].children if self._stack else self._root).append(rendered)

    def finish(self) -> None:
        self._end = time.perf_counter()

    @property
    def duration_ms(self) -> float:
        end = self._end if self._end is not None else time.perf_counter()
        return (end - self._t0) * 1000.0

    def _render(self, node) -> dict:
        if isinstance(node, dict):
            return node
        return {
            "name": node.name,
            "start_ms": round((node.start - self._t0) * 1000.0, 4),
            "duration_ms": round((node.end - node.start) * 1000.0, 4),
            "children": [self._render(child) for child in node.children],
        }

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_unix": self.started_unix,
            "duration_ms": round(self.duration_ms, 4),
            "spans": [self._render(node) for node in self._root],
        }


_ACTIVE: ContextVar[Trace | None] = ContextVar("repro_obs_trace", default=None)


def current_trace() -> Trace | None:
    return _ACTIVE.get()


def activate(trace: Trace):
    """Install ``trace`` as the ambient trace; returns a reset token."""
    return _ACTIVE.set(trace)


def deactivate(token) -> None:
    _ACTIVE.reset(token)


class _NoopSpan:
    """Shared do-nothing context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP_SPAN = _NoopSpan()


class _SpanHandle:
    __slots__ = ("_trace", "_name", "_node")

    def __init__(self, trace: Trace, name: str) -> None:
        self._trace = trace
        self._name = name
        self._node = None

    def __enter__(self):
        self._node = self._trace.begin(self._name)
        return self._node

    def __exit__(self, *exc):
        self._trace.end(self._node)
        return False


def span(name: str):
    """Time a block under the ambient trace; free when tracing is off."""
    trace = _ACTIVE.get()
    if trace is None:
        return _NOOP_SPAN
    return _SpanHandle(trace, name)


def span_tree_coverage(trace_doc: dict) -> float:
    """Fraction of the trace duration covered by its top-level spans."""
    total = trace_doc.get("duration_ms", 0.0)
    if not total:
        return 0.0
    covered = sum(s.get("duration_ms", 0.0) for s in trace_doc.get("spans", ()))
    return covered / total
