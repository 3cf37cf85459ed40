"""Unit tests for the metrics registry and tracing primitives."""

from __future__ import annotations

import json

import pytest

from repro.common import obs
from repro.common.obs import (
    Histogram,
    MetricsRegistry,
    Trace,
    span,
    span_tree_coverage,
)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


def test_counter_is_monotone():
    registry = MetricsRegistry()
    counter = registry.counter("queries_total")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("queue_depth")
    gauge.set(5)
    gauge.inc(2)
    gauge.inc(-1)
    assert gauge.value == 6.0


def test_histogram_quantiles_interpolate():
    hist = Histogram(buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(6.5)
    # Median target is the 2nd of 4 samples; it falls in the (1, 2] bucket.
    assert 1.0 <= hist.quantile(0.5) <= 2.0
    # Everything past the last finite edge clamps to that edge.
    hist.observe(100.0)
    assert hist.quantile(1.0) == 4.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_histogram_merge_equals_single_observer():
    """The satellite invariant: sharded histograms merge losslessly."""
    samples = [0.0001 * (i % 37 + 1) + 0.001 * (i % 5) for i in range(400)]
    single = Histogram()
    for value in samples:
        single.observe(value)
    shards = [Histogram() for _ in range(3)]
    for i, value in enumerate(samples):
        shards[i % 3].observe(value)
    merged = Histogram()
    for shard in shards:
        merged.merge(shard)
    assert merged.counts == single.counts
    assert merged.count == single.count
    assert merged.sum == pytest.approx(single.sum)
    for q in (0.5, 0.95, 0.99):
        assert merged.quantile(q) == pytest.approx(single.quantile(q))


def test_histogram_merge_rejects_mismatched_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0,)).merge(Histogram(buckets=(2.0,)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    a = registry.counter("hits", "help", backend="sets")
    b = registry.counter("hits", backend="sets")
    other = registry.counter("hits", backend="graphs")
    assert a is b
    assert a is not other


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_registry_get_has_no_side_effect():
    registry = MetricsRegistry()
    assert registry.get("missing") is None
    assert registry.get("missing", backend="sets") is None
    assert "missing" not in registry.to_wire()["families"]
    registry.counter("present").inc()
    assert registry.get("present").value == 1.0
    assert registry.get("present", backend="sets") is None


def test_wire_round_trip_preserves_everything():
    registry = MetricsRegistry()
    registry.counter("c", "a counter", backend="sets").inc(3)
    registry.gauge("g", "a gauge").set(7)
    hist = registry.histogram("h", "a histogram", buckets=(0.5, 1.0))
    hist.observe(0.2)
    hist.observe(0.7)
    wire = registry.to_wire()
    assert json.loads(json.dumps(wire)) == wire  # JSON-safe
    restored = MetricsRegistry.merged([wire])
    assert restored.render_prometheus() == registry.render_prometheus()


def test_registry_merge_across_shards_matches_single():
    """Registries merged from worker wires answer like one registry."""
    single = MetricsRegistry()
    workers = [MetricsRegistry() for _ in range(2)]
    for i in range(100):
        value = 0.001 * (i % 10 + 1)
        single.counter("queries_total").inc()
        single.histogram("latency").observe(value)
        worker = workers[i % 2]
        worker.counter("queries_total").inc()
        worker.histogram("latency").observe(value)
    merged = MetricsRegistry.merged([w.to_wire() for w in workers])
    assert merged.get("queries_total").value == single.get("queries_total").value
    for q in (0.5, 0.95, 0.99):
        assert merged.get("latency").quantile(q) == pytest.approx(
            single.get("latency").quantile(q)
        )


def test_merge_wire_adds_gauges():
    # Per-worker sizes (delta records per shard) are additive.
    a = MetricsRegistry()
    a.gauge("delta_records").set(3)
    b = MetricsRegistry()
    b.gauge("delta_records").set(4)
    merged = MetricsRegistry.merged([a.to_wire(), b.to_wire()])
    assert merged.get("delta_records").value == 7.0


def test_prometheus_rendering_format():
    registry = MetricsRegistry()
    registry.counter("requests_total", "served requests", route="/search").inc(2)
    hist = registry.histogram("latency_seconds", buckets=(0.5, 1.0))
    hist.observe(0.2)
    hist.observe(0.7)
    hist.observe(5.0)
    text = registry.render_prometheus()
    lines = text.splitlines()
    assert "# HELP requests_total served requests" in lines
    assert "# TYPE requests_total counter" in lines
    assert 'requests_total{route="/search"} 2' in lines
    assert "# TYPE latency_seconds histogram" in lines
    # Buckets are cumulative and end with +Inf == count.
    assert 'latency_seconds_bucket{le="0.5"} 1' in lines
    assert 'latency_seconds_bucket{le="1"} 2' in lines
    assert 'latency_seconds_bucket{le="+Inf"} 3' in lines
    assert "latency_seconds_count 3" in lines
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("c", 'he said "hi"\nback\\slash', path='a"b\\c\nd').inc()
    text = registry.render_prometheus()
    assert '# HELP c he said "hi"\\nback\\\\slash' in text
    assert 'c{path="a\\"b\\\\c\\nd"} 1' in text
    assert text.count("\n") == len(text.splitlines())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_span_without_trace_is_shared_noop():
    assert obs.current_trace() is None
    handle = span("anything")
    assert handle is span("something else")  # the shared no-op singleton
    with handle:
        pass  # must be usable as a context manager


def test_trace_builds_nested_span_tree():
    trace = Trace("abc123", name="engine")
    token = obs.activate(trace)
    try:
        with span("outer"):
            with span("inner"):
                pass
        with span("sibling"):
            pass
    finally:
        obs.deactivate(token)
    trace.finish()
    doc = trace.to_dict()
    assert doc["trace_id"] == "abc123"
    assert doc["name"] == "engine"
    assert [node["name"] for node in doc["spans"]] == ["outer", "sibling"]
    outer = doc["spans"][0]
    assert [child["name"] for child in outer["children"]] == ["inner"]
    inner = outer["children"][0]
    assert inner["start_ms"] >= outer["start_ms"]
    assert inner["duration_ms"] <= outer["duration_ms"] + 1e-6
    assert doc["duration_ms"] >= outer["duration_ms"]


def test_trace_embed_attaches_prerendered_subtree():
    trace = Trace(name="sharded")
    with span("fanout"):
        pass  # no ambient activation: span() is a no-op here
    node = trace.begin("fanout")
    trace.embed("shard[0]", 1.5, [{"name": "verify", "start_ms": 0.2, "duration_ms": 1.0, "children": []}], start_ms=0.1)
    trace.end(node)
    trace.finish()
    doc = trace.to_dict()
    fanout = doc["spans"][0]
    assert fanout["children"][0]["name"] == "shard[0]"
    assert fanout["children"][0]["duration_ms"] == 1.5
    assert fanout["children"][0]["children"][0]["name"] == "verify"


def test_span_tree_coverage():
    doc = {"duration_ms": 10.0, "spans": [{"duration_ms": 6.0}, {"duration_ms": 3.0}]}
    assert span_tree_coverage(doc) == pytest.approx(0.9)
    assert span_tree_coverage({"duration_ms": 0.0, "spans": []}) == 0.0
