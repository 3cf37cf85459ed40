#!/usr/bin/env bash
# CI server smoke: build an index, start the HTTP serving layer for real,
# drive it with a client loop, mutate the live index over HTTP
# (upsert -> query it back -> delete -> verify it is gone -> compact), and
# require every query answered plus a clean graceful shutdown on SIGTERM.
# The whole lifecycle runs twice with the identical client code -- against
# the plain container and against `build-shards --shards 2` of the same
# data -- which is the served half of the engine contract: no client line
# may depend on which engine answers.  A third pass serves a strings
# container (its `data.npz` code points) through the same loop.  The
# server runs with a 1 ms slow-query threshold, so the smoke also asserts
# that /metrics parses as Prometheus text with monotone counters and that
# the slow requests sit under /debug/traces with their query summaries and
# span timelines.  Run from the repo root with the package importable
# (PYTHONPATH=src or an installed checkout):
#
#   PYTHONPATH=src timeout 300 bash benchmarks/server_smoke.sh
set -euo pipefail

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    # Shard workers first: SIGKILLing only their parent would orphan them.
    pkill -KILL -P "$server_pid" 2>/dev/null || true
    kill -KILL "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

python -m repro.engine build-index --backend sets --out "$workdir/plain" \
    --size 4000 --queries 12 --seed 42
python -m repro.engine build-shards --backend sets --out "$workdir/sharded" \
    --shards 2 --size 4000 --queries 12 --seed 42
python -m repro.engine build-index --backend strings --out "$workdir/strings" \
    --size 4000 --queries 12 --seed 42

# One served lifecycle: serve_and_drive <index directory> <profile check>
# <backend>, the check being "named" (plain) or "shard-worker" (sharded),
# see below.
serve_and_drive() {
index="$1"
profile_check="$2"
backend="$3"
echo "== serving $index"
rm -f "$workdir/ready"

python -m repro.engine serve --index "$index" --port 0 \
    --ready-file "$workdir/ready" --slow-query-ms 1 &
server_pid=$!

for _ in $(seq 1 100); do
  [ -f "$workdir/ready" ] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died during startup"; exit 1; }
  sleep 0.1
done
[ -f "$workdir/ready" ] || { echo "server never became ready"; exit 1; }

read -r host port < "$workdir/ready"
url="http://$host:$port"
echo "server ready at $url"

# Drive the served index with the container's stored queries over one
# keep-alive connection: a failed request raises (non-zero exit), and a
# repeated query must get the same ids on every round.
python - "$url" "$index" "$backend" <<'EOF'
import sys
import time

from repro.engine import EngineClient, get_backend

url, index, backend = sys.argv[1:]
payloads = get_backend(backend).load_queries(index)
assert payloads, "the container holds no stored queries"
rounds = 12
with EngineClient(url) as client:
    tau = client.manifest()["backends"][backend]["default_tau"]
    start = time.perf_counter()
    answers = [
        [client.search(backend, payload, tau=tau).ids for payload in payloads]
        for _ in range(rounds)
    ]
    wall = time.perf_counter() - start
assert all(answer == answers[0] for answer in answers), "answers changed between rounds"
served = rounds * len(payloads)
print(f"smoke load: {served} queries answered, {served / wall:.1f} q/s")
EOF

# /metrics must parse as Prometheus text (0.0.4: HELP/TYPE metadata,
# name{label="value"} samples, optional OpenMetrics exemplars on traced
# histogram buckets) and its counters must only ever go up.  Because the
# server runs with a 1 ms slow-query threshold every query is traced, so
# the latency histogram must carry at least one exemplar -- and its trace
# id must resolve to a span timeline under /debug/traces.
python - "$url" <<'EOF'
import json
import re
import sys
import urllib.request

url = sys.argv[1]

EXEMPLAR = r'( # \{trace_id="(?:[^"\\]|\\.)*"\} [0-9.eE+-]+( [0-9.eE+-]+)?)?'
SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" -?([0-9.eE+-]+|\+Inf|-Inf|NaN)" + EXEMPLAR + r"$"
)
META = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


def scrape():
    text = urllib.request.urlopen(f"{url}/metrics").read().decode("utf-8")
    samples = {}
    exemplar_ids = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert META.match(line), f"bad metadata line: {line!r}"
            continue
        assert SAMPLE.match(line), f"bad sample line: {line!r}"
        marker = line.find(" # {")
        if marker >= 0:
            exemplar_ids.add(re.search(r'trace_id="([^"]+)"', line).group(1))
            line = line[:marker]
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples, exemplar_ids


before, exemplar_ids = scrape()
for family in ("server_queries_total", "engine_query_seconds_bucket", "http_requests_total"):
    assert any(key.startswith(family) for key in before), f"no {family} samples"
assert exemplar_ids, "traced histograms carried no exemplars"
traces = json.load(urllib.request.urlopen(f"{url}/debug/traces"))
known = {doc.get("trace_id") for doc in traces["traces"]}
resolved = exemplar_ids & known
assert resolved, f"no exemplar resolves in /debug/traces: {sorted(exemplar_ids)[:3]}"
urllib.request.urlopen(f"{url}/healthz").read()  # traffic between scrapes
after, _ = scrape()
monotone = 0
for key, value in before.items():
    if "_total" in key or "_count" in key or "_bucket" in key:
        assert key in after and after[key] >= value, f"{key} went backwards"
        monotone += 1
assert monotone > 0
print(
    f"metrics smoke: {len(before)} samples parsed, {monotone} monotone counters, "
    f"{len(resolved)} exemplar(s) resolved OK"
)
EOF

# A profiling window needs no serve flag: /debug/profile arms a sampler in
# the server and in every live shard worker, sleeps, collects and disarms.
# It must come back with non-empty folded stacks and the lion's share of
# self time on named engine roles rather than unattributed threads.  The
# 90% bound is about the server's own thread population, so it is checked
# on the single-process pass; a sharded parent adds the process pools'
# unnamed management threads, and that pass instead requires the workers'
# own role, which only arrives through the engine contract.
python - "$url" "$profile_check" <<'EOF'
import json
import sys
import urllib.request

url, profile_check = sys.argv[1:]
payload = json.load(urllib.request.urlopen(f"{url}/debug/profile?seconds=1"))
profile = payload["profile"]
assert profile["roles"], "profiler returned no samples"
assert payload["folded"], "no folded stacks"
for line in payload["folded"]:
    head, _, count = line.rpartition(" ")
    assert ";" in head and int(count) > 0, f"bad folded line: {line!r}"
attribution = payload["attribution"]
named = sum(share for role, share in attribution.items() if role != "other")
if profile_check == "named":
    assert named >= 0.9, f"only {named:.0%} of self time on named roles: {attribution}"
else:
    assert attribution.get(profile_check, 0) > 0, f"no {profile_check} samples: {attribution}"
slo = json.load(urllib.request.urlopen(f"{url}/debug/slo"))
assert slo["slo"]["windows"]["fast"]["requests"] > 0, slo
assert slo["slo"]["breaching"] is False, slo
print(
    f"profile smoke: {sum(r['samples'] for r in profile['roles'].values())} samples, "
    f"{len(payload['folded'])} stacks, {named:.0%} on named roles "
    f"({', '.join(sorted(attribution))}) OK"
)
EOF

# Mutate the live index over HTTP: a fresh record must be servable
# immediately, and must vanish the moment it is deleted.
python - "$url" "$backend" <<'EOF'
import sys

from repro.engine.client import EngineClient

url, backend = sys.argv[1:]
# Records no synthetic record comes near, and a threshold that finds a
# record from itself: Jaccard 1.0 (exact match) for sets, one edit for
# strings (the two records are six edits apart).
doomed, keeper, tau = {
    "sets": ([70001, 70002, 70003], [80001, 80002, 80003], 1.0),
    "strings": ("qqxx doomed zzyy", "qqxx keeper zzyy", 1),
}[backend]
with EngineClient(url) as client:
    doomed_id = client.mutate(backend, [{"op": "upsert", "record": doomed}])["results"][0]["id"]
    keeper_id = client.mutate(backend, [{"op": "upsert", "record": keeper}])["results"][0]["id"]
    hits = client.search(backend, doomed, tau=tau)
    assert doomed_id in hits.ids, f"upserted id {doomed_id} not served: {hits.ids}"
    delete = [{"op": "delete", "id": doomed_id}]
    assert client.mutate(backend, delete)["results"][0]["deleted"] is True
    hits = client.search(backend, doomed, tau=tau)
    assert doomed_id not in hits.ids, f"deleted id {doomed_id} still served: {hits.ids}"
    assert client.mutate(backend, delete)["results"][0]["deleted"] is False  # idempotent
    summary = client.compact()
    assert summary["compacted"] is True, summary
    hits = client.search(backend, keeper, tau=tau)
    assert keeper_id in hits.ids, f"id {keeper_id} lost by compaction: {hits.ids}"
    print(f"mutation smoke: upsert/delete/compact OK (ids {doomed_id}/{keeper_id})")
EOF

# The 1 ms threshold traces every request, and the first served query built
# its searcher, well over it: the slow ring under /debug/traces must hold
# slow requests, each with its query summary and span timeline.
python - "$url" "$backend" <<'EOF'
import json
import sys
import urllib.request

body = json.load(urllib.request.urlopen(f"{sys.argv[1]}/debug/traces"))
assert body["sampling"]["kept_slow"] > 0, body["sampling"]
slow = [doc for doc in body["traces"] if doc["duration_ms"] >= 1.0 and "query" in doc]
assert slow, "no slow request under /debug/traces"
for doc in slow:
    assert doc["trace_id"], doc
    names = [span["name"] for span in doc["spans"]]
    assert names == ["coalesce_wait", "batch_exec"], names
    summary = doc["query"]
    assert summary["backend"] == sys.argv[2] and summary["route"].startswith("/search"), doc
    assert summary["num_candidates"] >= summary["num_results"] >= 0, doc
    assert summary["tau"] is not None and summary["batch_size"] >= 1, doc
print(
    f"slow ring: {body['sampling']['kept_slow']} kept, {len(slow)} shown, "
    f"slowest {max(doc['duration_ms'] for doc in slow):.2f} ms OK"
)
EOF

kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
if [ "$status" -ne 0 ]; then
  echo "server did not shut down cleanly (exit $status)"
  exit 1
fi
echo "server shut down cleanly"
}

serve_and_drive "$workdir/plain" named sets
serve_and_drive "$workdir/sharded" shard-worker sets
serve_and_drive "$workdir/strings" named strings

# A clean shutdown must also be a *complete* one: run the full server
# lifecycle in-process (a profiling window included, the same thread
# population the subprocess above had) and require that stop()
# leaves no non-daemon thread behind -- and none of the named engine
# roles (executor / batcher / compaction) still running, daemon or not,
# as classified by the profiler's role registry (diag.thread_role).
python - <<'EOF'
import threading
import time

from repro.common.diag import thread_role
from repro.datasets.tokens import zipfian_set_workload
from repro.engine import SearchEngine
from repro.engine.client import EngineClient
from repro.engine.server import ServerConfig, ServerThread
from repro.sets import SetDataset

workload = zipfian_set_workload(200, 8, seed=3)
engine = SearchEngine(cache_size=16)
engine.add_dataset("sets", SetDataset(workload.records, num_classes=4))

baseline = {t.ident for t in threading.enumerate()}
with ServerThread(engine, ServerConfig(slow_query_ms=1)) as handle:
    with EngineClient(handle.url) as client:
        client.search("sets", list(workload.queries[0]), tau=0.6)
        assert client.profile(seconds=0.3)["profile"]["roles"]

leaked = []
deadline = time.monotonic() + 10.0
while time.monotonic() < deadline:
    leaked = [t for t in threading.enumerate() if t.ident not in baseline and t.is_alive()]
    if not leaked:
        break
    time.sleep(0.05)
roles = {t.name: thread_role(t.name) for t in leaked}
nondaemon = [t.name for t in leaked if not t.daemon]
assert not nondaemon, f"non-daemon threads survived shutdown: {nondaemon} (roles: {roles})"
engine_roles = {name: role for name, role in roles.items() if role != "other"}
assert not engine_roles, f"engine threads survived shutdown: {engine_roles}"
print(f"shutdown leak check: no surviving threads OK (transient: {roles or 'none'})")
EOF
