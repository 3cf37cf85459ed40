"""Command-line front end: ``python -m repro.engine <command>``.

The subcommands make the engine drivable end-to-end without writing code:

* ``build-index`` -- generate a synthetic workload for one backend, build the
  dataset (and, for Hamming, the partition index) once, and save everything
  into an index container directory together with a sample query workload.
* ``query`` -- load a container and answer one stored query, either as a
  thresholded selection (``--tau``) or as a top-k search (``--k``).
* ``build-shards`` -- like ``build-index``, but split the dataset into K
  id-range shards, each its own index container under one directory.
* ``serve`` -- expose an index (plain container or sharded directory,
  whichever :func:`repro.engine.open_engine` finds) over HTTP/JSON with
  backpressure; shuts down gracefully on SIGINT/SIGTERM.
* ``upsert`` / ``delete`` / ``compact`` -- mutate an index on disk (plain
  container or sharded directory): records land in the delta store, deletes
  tombstone, and ``compact`` folds the overlay into a rebuilt main index.
  Records are given in the backend's JSON wire form.
* ``stats`` -- dump a running server's stats snapshot, or its Prometheus
  text exposition with ``--metrics``.
* ``trace`` -- fetch a running server's recent request traces
  (``/debug/traces``; every request over ``--slow-query-ms`` is kept there)
  and print each one's query summary and span timeline as a tree.
* ``profile`` -- have a running server sample itself and its shard workers
  for ``--seconds`` (``/debug/profile``) and print the top self-time frames
  per thread role, or the raw flamegraph-collapsed stacks with ``--folded``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Sequence

from repro.common.stats import Timer
from repro.engine import open_engine
from repro.engine.api import Query
from repro.engine.backend import available_backends, get_backend
from repro.engine.executor import SearchEngine
from repro.engine.sharding import build_shards
from repro.engine.wal import DURABILITY_LEVELS


def _parse_tau(text: str) -> float | int:
    """Keep integral thresholds as ints: for ``sets``, ``--tau 1`` must mean
    overlap >= 1, not Jaccard 1.0 (exact equality)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _build_index(args: argparse.Namespace) -> int:
    engine = SearchEngine()
    backend = engine.backend(args.backend)
    dataset, queries = backend.make_workload(args.size, args.queries, args.seed)
    timer = Timer()
    engine.add_dataset(args.backend, dataset)
    build_time = timer.elapsed()
    manifest = engine.save_index(args.backend, args.out, queries=queries)
    print(f"built {args.backend} store in {build_time:.2f}s: {manifest['descriptor']}")
    print(f"saved index container with {len(queries)} queries to {args.out}")
    return 0


def _open(directory: str, **options):
    """``open_engine``; a directory it refuses (a container or a shard of an
    older format, ``--replicas`` on a plain container) exits with the reason."""
    try:
        return open_engine(directory, **options)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _query(args: argparse.Namespace) -> int:
    with _open(args.index) as engine:
        name, described = next(iter(engine.describe()["backends"].items()))
        queries = get_backend(name).load_queries(args.index)
        if not queries:
            print(f"index {args.index} holds no stored queries", file=sys.stderr)
            return 2
        if not 0 <= args.query < len(queries):
            print(f"--query must be in [0, {len(queries) - 1}]", file=sys.stderr)
            return 2
        payload = queries[args.query]
        tau = args.tau if args.tau is not None else (
            None if args.k is not None else described["default_tau"]
        )
        query = Query(
            backend=name,
            payload=payload,
            tau=tau,
            k=args.k,
            chain_length=args.chain_length,
            algorithm=args.algorithm,
        )
        response = engine.search(query)
        kind = f"top-{args.k}" if args.k is not None else f"tau={tau}"
        print(
            f"[{name}] {kind} algorithm={args.algorithm}: "
            f"{response.num_results} result(s), {response.num_candidates} candidate(s), "
            f"{response.engine_time * 1000.0:.2f} ms"
        )
        if response.scores is not None:
            for obj_id, score in zip(response.ids, response.scores):
                print(f"  id={obj_id}  score={score:g}")
        else:
            print(f"  ids: {response.ids[:20]}{' ...' if response.num_results > 20 else ''}")
        return 0


def _build_shards(args: argparse.Namespace) -> int:
    backend = get_backend(args.backend)
    dataset, queries = backend.make_workload(args.size, args.queries, args.seed)
    timer = Timer()
    manifest = build_shards(args.backend, dataset, args.out, args.shards, queries=queries)
    build_time = timer.elapsed()
    ranges = ", ".join(f"[{shard['lo']}, {shard['hi']})" for shard in manifest["shards"])
    print(
        f"built {manifest['num_shards']} {args.backend} shard(s) over "
        f"{manifest['num_objects']} objects in {build_time:.2f}s: {ranges}"
    )
    print(f"saved sharded index with {len(queries)} queries to {args.out}")
    return 0


def _mutate(args: argparse.Namespace) -> int:
    """Shared driver of the ``upsert`` / ``delete`` / ``compact`` commands."""
    from repro.engine.wire import WireFormatError

    engine = _open(args.index, mp_context=args.mp_context)
    try:
        backend_name = next(iter(engine.describe()["backends"]))
        status = 0
        if args.command == "upsert":
            try:
                record = get_backend(backend_name).record_from_wire(json.loads(args.record))
            except (json.JSONDecodeError, WireFormatError, ValueError) as exc:
                print(f"bad --record for backend {backend_name!r}: {exc}", file=sys.stderr)
                return 2
            outcome = engine.mutate(
                backend_name, [{"op": "upsert", "record": record, "id": args.id}]
            )
            print(f"[{backend_name}] upserted id {outcome['results'][0]['id']}")
        elif args.command == "delete":
            outcome = engine.mutate(backend_name, [{"op": "delete", "id": args.id}])
            if not outcome["results"][0]["deleted"]:
                print(f"[{backend_name}] id {args.id} was not live", file=sys.stderr)
                return 1
            print(f"[{backend_name}] deleted id {args.id}")
        else:
            try:
                summary = engine.compact(backend_name)
            except ValueError as exc:  # e.g. every record deleted
                print(f"[{backend_name}] compact failed: {exc}", file=sys.stderr)
                return 1
            # A sharded index reports one summary per shard; a plain one is
            # its own only entry.
            for entry in summary.get("shards", [summary]):
                shard = f"shard {entry['shard_id']} " if "shard_id" in entry else ""
                if entry.get("compacted"):
                    print(
                        f"[{backend_name}] {shard}compacted: folded "
                        f"{entry['folded_records']} delta record(s), dropped "
                        f"{entry['dropped_tombstones']} tombstone(s), "
                        f"{entry['num_live']} live object(s)"
                    )
                elif "error" in entry:
                    status = 1  # the untouched overlays are still worth saving
                    print(
                        f"[{backend_name}] {shard}compact failed: {entry['error']}",
                        file=sys.stderr,
                    )
                else:
                    print(f"[{backend_name}] {shard}nothing to compact")
        engine.flush()
        if status == 0:
            info = engine.mutation_info()
            print(
                f"  live {info['num_live']}  delta {info['delta_records']}  "
                f"tombstones {info['num_tombstones']}  next id {info['next_id']}"
            )
        return status
    finally:
        engine.close()


async def _serve_until_signalled(server, ready_file: str | None) -> None:
    await server.start()
    host, port = server.address
    print(f"serving {type(server.engine).__name__} on http://{host}:{port}", flush=True)
    if ready_file:
        # Written atomically so a poller never reads a half-written address.
        tmp = ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
        os.replace(tmp, ready_file)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            signal.signal(signum, lambda *_args: stop_event.set())
    await stop_event.wait()
    print("draining in-flight queries ...", flush=True)
    await server.stop()
    print("server stopped cleanly", flush=True)


def _serve(args: argparse.Namespace) -> int:
    from repro.engine.server import EngineServer, ServerConfig

    engine = _open(
        args.index,
        cache_size=args.cache_size,
        wal_dir=args.wal_dir,
        auto_compact=args.auto_compact,
        replicas=args.replicas,
        mp_context=args.mp_context,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        trace=args.trace,
        trace_budget=args.trace_budget,
        slow_query_ms=args.slow_query_ms,
        durability=args.durability,
        slo_latency_ms=args.slo_latency_ms,
    )
    server = EngineServer(engine, config, own_engine=True)
    asyncio.run(_serve_until_signalled(server, args.ready_file))
    return 0


def _wal_inspect(args: argparse.Namespace) -> int:
    """Summarise WAL files: batches, sequence numbers, torn-tail status."""
    from repro.engine.wal import WalCorruptionError, wal_summary

    status = 0
    for path in args.wal:
        try:
            summary = wal_summary(path)
        except FileNotFoundError:
            print(f"{path}: no such file", file=sys.stderr)
            status = 2
            continue
        except WalCorruptionError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 2
            continue
        if args.json:
            print(json.dumps(summary, indent=2))
            continue
        print(
            f"{summary['path']}: {summary['num_batches']} batch(es), "
            f"last seq {summary['last_seq']}, "
            f"{summary['valid_bytes']}/{summary['size_bytes']} bytes valid"
        )
        if summary["tail_error"] is not None:
            print(
                f"  tail: {summary['tail_error']} "
                f"({summary['discarded_bytes']} byte(s) would be discarded)"
            )
        for batch in summary["batches"]:
            print(
                f"  seq {batch['seq']:>6}  [{batch['backend']}] "
                f"{batch['num_ops']} op(s) "
                f"({batch['upserts']} upsert / {batch['deletes']} delete)  "
                f"at byte {batch['offset']} (+{batch['num_bytes']})"
            )
    return status


def _print_span(node: dict, depth: int, total_ms: float) -> None:
    share = 100.0 * node.get("duration_ms", 0.0) / total_ms if total_ms else 0.0
    print(
        f"  {'  ' * depth}{node.get('name', '?'):<{32 - 2 * depth}}"
        f"{node.get('duration_ms', 0.0):>10.3f} ms  {share:5.1f}%"
        f"  @{node.get('start_ms', 0.0):.3f}"
    )
    for child in node.get("children", ()):
        _print_span(child, depth + 1, total_ms)


def _stats(args: argparse.Namespace) -> int:
    from repro.engine.client import EngineClient

    with EngineClient(args.url, timeout=args.timeout) as client:
        if args.metrics:
            sys.stdout.write(client.metrics())
            return 0
        print(json.dumps(client.stats(), indent=2))
    return 0


def _profile(args: argparse.Namespace) -> int:
    from repro.engine.client import EngineClient

    with EngineClient(args.url, timeout=args.timeout) as client:
        payload = client.profile(seconds=args.seconds)
    if args.folded:
        for line in payload.get("folded", []):
            print(line)
        return 0
    profile = payload.get("profile", {})
    roles = profile.get("roles", {})
    total = sum(role.get("samples", 0) for role in roles.values())
    window = profile.get("duration_s", 0.0)
    print(
        f"profile: {total} sample(s) at {profile.get('hz', 0.0):g} Hz "
        f"over {window:.1f}s across {len(roles)} role(s)"
    )
    for role, share in sorted(payload.get("attribution", {}).items(), key=lambda kv: -kv[1]):
        print(f"  {role:<16}{100.0 * share:5.1f}%")
    top = payload.get("top", [])
    if not top:
        print("the window recorded no samples (try a longer --seconds)")
        return 1
    print(f"top {len(top)} self-time frame(s):")
    for entry in top:
        print(
            f"  {100.0 * entry['share']:5.1f}%  {entry['samples']:>6}  "
            f"[{entry['role']}] {entry['frame']}"
        )
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.engine.client import EngineClient

    with EngineClient(args.url, timeout=args.timeout) as client:
        traces = client.traces().get("traces", [])
    if not traces:
        print(
            "the server recorded no traces yet; query it with the X-Trace: 1 "
            "header, or restart it with --trace / --slow-query-ms",
            file=sys.stderr,
        )
        return 1
    for doc in traces[: args.last]:
        total_ms = doc.get("duration_ms", 0.0)
        print(f"trace {doc.get('trace_id', '?')}  {doc.get('name', '?')}  {total_ms:.3f} ms")
        if "query" in doc:
            print("  " + "  ".join(f"{key}={value}" for key, value in doc["query"].items()))
        for node in doc.get("spans", ()):
            _print_span(node, 0, total_ms)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine",
        description="Unified multi-domain similarity search engine",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build-index", help="build and save an index container")
    build.add_argument("--backend", choices=available_backends(), required=True)
    build.add_argument("--out", required=True, help="container directory to create")
    build.add_argument("--size", type=int, default=2000, help="number of data objects")
    build.add_argument("--queries", type=int, default=20, help="stored sample queries")
    build.add_argument("--seed", type=int, default=0)
    build.set_defaults(func=_build_index)

    query = commands.add_parser("query", help="answer one stored query")
    query.add_argument("--index", required=True, help="index container or sharded index directory")
    query.add_argument("--query", type=int, default=0, help="stored query number")
    query.add_argument("--tau", type=_parse_tau, default=None)
    query.add_argument("--k", type=int, default=None)
    query.add_argument("--chain-length", type=int, default=None)
    query.add_argument("--algorithm", default="ring")
    query.set_defaults(func=_query)

    shards = commands.add_parser(
        "build-shards", help="build and save a sharded (multi-container) index"
    )
    shards.add_argument("--backend", choices=available_backends(), required=True)
    shards.add_argument("--out", required=True, help="sharded index directory")
    shards.add_argument("--shards", type=int, default=4, help="number of id-range shards")
    shards.add_argument("--size", type=int, default=2000, help="number of data objects")
    shards.add_argument("--queries", type=int, default=20, help="stored sample queries")
    shards.add_argument("--seed", type=int, default=0)
    shards.set_defaults(func=_build_shards)

    http_serve = commands.add_parser(
        "serve", help="serve an index (plain or sharded) over HTTP/JSON"
    )
    http_serve.add_argument(
        "--index", required=True, help="index container or sharded index directory"
    )
    http_serve.add_argument("--host", default="127.0.0.1")
    http_serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    http_serve.add_argument(
        "--max-pending", type=int, default=256, help="admission-control bound (429 above)"
    )
    http_serve.add_argument("--cache-size", type=int, default=0, help="result-cache size")
    http_serve.add_argument(
        "--mp-context", default=None, choices=["fork", "spawn", "forkserver"]
    )
    http_serve.add_argument(
        "--ready-file",
        default=None,
        help="write 'host port' here once listening (for scripted startup)",
    )
    http_serve.add_argument(
        "--trace",
        action="store_true",
        help="record a span timeline for every query (see /debug/traces)",
    )
    http_serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="trace every query and always keep those at least this many ms "
        "end-to-end under /debug/traces (0 keeps all)",
    )
    http_serve.add_argument(
        "--trace-budget",
        type=float,
        default=1.0,
        help="fraction of ordinary traces the tail sampler retains (slow and "
        "errored traces are always kept); 1.0 keeps everything",
    )
    http_serve.add_argument(
        "--slo-latency-ms",
        type=float,
        default=None,
        help="latency objective for the SLO burn-rate monitors (default: "
        "errors only)",
    )
    http_serve.add_argument(
        "--wal-dir",
        default=None,
        help="attach (and replay) write-ahead logs in this directory; mutations "
        "are fsync'd before they are acknowledged",
    )
    http_serve.add_argument(
        "--durability",
        choices=DURABILITY_LEVELS,
        default=None,
        help="ack level for mutations that do not name one "
        "(default: 'wal' when a WAL is attached)",
    )
    http_serve.add_argument(
        "--auto-compact",
        action="store_true",
        help="fold the delta store into a rebuilt index in the background "
        "once scan cost crosses over (checkpoints + truncates the WAL)",
    )
    http_serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker replicas per shard (sharded indexes only; > 1 requires "
        "--wal-dir): reads fail over between replicas, dead replicas are "
        "respawned and caught up from the WAL in the background",
    )
    http_serve.set_defaults(func=_serve)

    wal_inspect = commands.add_parser(
        "wal-inspect", help="summarise write-ahead log files without replaying them"
    )
    wal_inspect.add_argument("wal", nargs="+", help="WAL file path(s)")
    wal_inspect.add_argument(
        "--json", action="store_true", help="print the raw JSON summaries"
    )
    wal_inspect.set_defaults(func=_wal_inspect)

    upsert = commands.add_parser(
        "upsert", help="insert or overwrite one record in an index on disk"
    )
    upsert.add_argument("--index", required=True, help="container or sharded directory")
    upsert.add_argument(
        "--record",
        required=True,
        help="the record in the backend's JSON wire form "
        "(0/1 list, token list, \"string\", or {vertices, edges})",
    )
    upsert.add_argument(
        "--id", type=int, default=None, help="overwrite this id (default: append a new one)"
    )
    upsert.add_argument("--mp-context", default=None, choices=["fork", "spawn", "forkserver"])
    upsert.set_defaults(func=_mutate)

    delete = commands.add_parser("delete", help="delete one record from an index on disk")
    delete.add_argument("--index", required=True, help="container or sharded directory")
    delete.add_argument("--id", type=int, required=True, help="the id to remove")
    delete.add_argument("--mp-context", default=None, choices=["fork", "spawn", "forkserver"])
    delete.set_defaults(func=_mutate)

    compact = commands.add_parser(
        "compact", help="fold an index's delta store into a rebuilt main index"
    )
    compact.add_argument("--index", required=True, help="container or sharded directory")
    compact.add_argument("--mp-context", default=None, choices=["fork", "spawn", "forkserver"])
    compact.set_defaults(func=_mutate)

    stats = commands.add_parser("stats", help="dump a running server's stats or metrics")
    stats.add_argument("--url", required=True, help="server base URL")
    stats.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus text exposition (/metrics) instead of /stats JSON",
    )
    stats.add_argument("--timeout", type=float, default=10.0)
    stats.set_defaults(func=_stats)

    trace = commands.add_parser(
        "trace", help="pretty-print a running server's recent request traces"
    )
    trace.add_argument("--url", required=True, help="server base URL")
    trace.add_argument("--last", type=int, default=1, help="number of traces to show")
    trace.add_argument("--timeout", type=float, default=10.0)
    trace.set_defaults(func=_trace)

    profile = commands.add_parser(
        "profile", help="sample a running server (and its shard workers) for a window"
    )
    profile.add_argument("--url", required=True, help="server base URL")
    profile.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="length of the sampling window (server default: 1 s, at most 30)",
    )
    profile.add_argument(
        "--folded",
        action="store_true",
        help="print raw flamegraph-collapsed stacks (role;frame;... count)",
    )
    profile.add_argument("--timeout", type=float, default=60.0)
    profile.set_defaults(func=_profile)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
