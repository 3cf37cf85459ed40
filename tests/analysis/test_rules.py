"""Per-rule fixture corpus: every rule must trip on its bad tree and stay
silent on the matching good tree.

These fixtures are the proof that the CI gate can actually fail: a rule
that silently stops matching (an ast refactor, a renamed helper) breaks
these tests long before it lets a real regression through.
"""

from __future__ import annotations

from repro.analysis import run_analysis
from repro.analysis.framework import AnalysisContext
from repro.analysis.rules.wire_compat import update_schemas


def _run(root: str, rule: str):
    return run_analysis(root, rules=[rule])


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

_CYCLE = """
import threading

class Engine:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
"""

_CONSISTENT = """
import threading

class Engine:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def also_forward(self):
        with self._a:
            with self._b:
                pass
"""


def test_lock_discipline_trips_on_inverted_order(make_tree):
    root = make_tree({"src/repro/engine.py": _CYCLE})
    report = _run(root, "lock-discipline")
    assert len(report.errors) == 1
    assert "lock-order cycle" in report.errors[0].message
    assert "Engine._a" in report.errors[0].message


def test_lock_discipline_passes_consistent_order(make_tree):
    root = make_tree({"src/repro/engine.py": _CONSISTENT})
    assert _run(root, "lock-discipline").findings == []


def test_lock_discipline_warns_on_unlocked_shared_write(make_tree):
    root = make_tree(
        {
            "src/repro/counter.py": """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def add(self, n):
                    with self._lock:
                        self.total += n

                def reset(self):
                    self.total = 0
            """
        }
    )
    report = _run(root, "lock-discipline")
    assert report.errors == []
    assert len(report.warnings) == 1
    assert "Counter.total" in report.warnings[0].message


def test_lock_discipline_allows_rlock_reentrancy(make_tree):
    # Mirrors WriteAheadLog: truncate_upto() re-enters batches() under the
    # same RLock; a plain Lock doing that would be flagged.
    root = make_tree(
        {
            "src/repro/wal.py": """
            import threading

            class Wal:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        return 1
            """
        }
    )
    assert _run(root, "lock-discipline").errors == []


def test_lock_discipline_trips_on_plain_lock_reentry(make_tree):
    root = make_tree(
        {
            "src/repro/wal.py": """
            import threading

            class Wal:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        return 1
            """
        }
    )
    report = _run(root, "lock-discipline")
    assert len(report.errors) == 1
    assert "lock-order cycle" in report.errors[0].message


# ---------------------------------------------------------------------------
# wire-compat
# ---------------------------------------------------------------------------

_WIRE_OK = """
WIRE_SCHEMA_VERSION = 1


def encode_query(tau):
    return {"tau": tau, "schema_version": WIRE_SCHEMA_VERSION}


def decode_query(body):
    _check_version(body)
    return body["tau"]


def _check_version(body):
    if body.get("schema_version") != WIRE_SCHEMA_VERSION:
        raise ValueError("bad version")


def encode_mutate(ops):
    return {"ops": ops}


def decode_mutate(body):
    return body["ops"]


def encode_response(ids):
    return {"ids": ids}
"""

_CLIENT = """
class WireResponse:
    def __init__(self, ids):
        self.ids = ids

    @classmethod
    def from_wire(cls, body):
        return cls(body["ids"])
"""


def _wire_tree(make_tree, wire_source: str) -> str:
    return make_tree(
        {
            "src/repro/engine/wire.py": wire_source,
            "src/repro/engine/client.py": _CLIENT,
        }
    )


def test_wire_compat_passes_matched_pairs(make_tree):
    root = _wire_tree(make_tree, _WIRE_OK)
    update_schemas(AnalysisContext(root))
    assert _run(root, "wire-compat").findings == []


def test_wire_compat_trips_on_unread_field(make_tree):
    bad = _WIRE_OK.replace(
        'return {"ids": ids}', 'return {"ids": ids, "debug_blob": 1}'
    )
    root = _wire_tree(make_tree, bad)
    update_schemas(AnalysisContext(root))
    report = _run(root, "wire-compat")
    assert len(report.errors) == 1
    assert "response:debug_blob" in report.errors[0].message
    assert "never read by WireResponse.from_wire" in report.errors[0].message


def test_wire_compat_transitive_helper_reads_count(make_tree):
    # schema_version is read only inside _check_version, reached from
    # decode_query -- the matched-pairs test above would fail without the
    # transitive closure; this spells the property out.
    root = _wire_tree(make_tree, _WIRE_OK)
    update_schemas(AnalysisContext(root))
    report = _run(root, "wire-compat")
    assert not any("schema_version" in f.message for f in report.findings)


_OP_CODEC = """
def op_to_wire(op):
    return {"op": op, "ttl": 0}


def op_from_wire(doc):
    return _kind(doc)


def _kind(doc):
    return doc["op"]
"""


def test_wire_compat_follows_an_imported_op_codec(make_tree):
    # The mutate ops are written and read by functions of another module:
    # their keys count for the pair, and a key that module never reads trips.
    wire = _WIRE_OK.replace(
        "WIRE_SCHEMA_VERSION = 1",
        "from repro.engine.wal import op_from_wire, op_to_wire\n\nWIRE_SCHEMA_VERSION = 1",
    ).replace(
        'return {"ops": ops}', 'return {"ops": [op_to_wire(op) for op in ops]}'
    ).replace('return body["ops"]', 'return [op_from_wire(doc) for doc in body["ops"]]')
    root = make_tree(
        {
            "src/repro/engine/wire.py": wire,
            "src/repro/engine/client.py": _CLIENT,
            "src/repro/engine/wal.py": _OP_CODEC,
        }
    )
    update_schemas(AnalysisContext(root))
    report = _run(root, "wire-compat")
    assert [f.message for f in report.errors] == [
        "mutate:ttl: emitted by encode_mutate but never read by decode_mutate"
    ]


def test_wire_compat_requires_snapshot(make_tree):
    root = _wire_tree(make_tree, _WIRE_OK)
    report = _run(root, "wire-compat")
    assert len(report.errors) == 1
    assert "missing schema snapshot" in report.errors[0].message


def test_wire_compat_requires_version_bump(make_tree):
    root = _wire_tree(make_tree, _WIRE_OK)
    update_schemas(AnalysisContext(root))
    changed = _WIRE_OK.replace(
        'return {"ops": ops}', 'return {"ops": ops, "ttl": 0}'
    ).replace('return body["ops"]', 'return (body["ops"], body["ttl"])')
    _wire_tree(make_tree, changed)
    report = _run(root, "wire-compat")
    assert len(report.errors) == 1
    assert "without a WIRE_SCHEMA_VERSION bump" in report.errors[0].message


def test_wire_compat_bumped_version_wants_fresh_snapshot(make_tree):
    root = _wire_tree(make_tree, _WIRE_OK)
    update_schemas(AnalysisContext(root))
    changed = (
        _WIRE_OK.replace("WIRE_SCHEMA_VERSION = 1", "WIRE_SCHEMA_VERSION = 2")
        .replace('return {"ops": ops}', 'return {"ops": ops, "ttl": 0}')
        .replace('return body["ops"]', 'return (body["ops"], body["ttl"])')
    )
    _wire_tree(make_tree, changed)
    report = _run(root, "wire-compat")
    assert len(report.errors) == 1
    assert "stale" in report.errors[0].message
    update_schemas(AnalysisContext(root))
    assert _run(root, "wire-compat").findings == []


# ---------------------------------------------------------------------------
# doc-drift
# ---------------------------------------------------------------------------

_SERVER = """
_ENDPOINTS = ("/query", "/healthz")
"""

_CLI = """
def build_parser(parser):
    parser.add_argument("--tau", type=float)
    parser.add_argument("positional")
"""


def test_doc_drift_trips_on_missing_route_and_flag(make_tree):
    root = make_tree(
        {
            "src/repro/engine/server.py": _SERVER,
            "src/repro/engine/cli.py": _CLI,
            "ENGINE.md": "Only `/healthz` is documented here.\n",
        }
    )
    report = _run(root, "doc-drift")
    messages = sorted(f.message for f in report.errors)
    assert len(messages) == 2
    assert "route /query is served but missing from ENGINE.md" in messages[1]
    assert "--tau is undocumented" in messages[0]


def test_doc_drift_passes_documented_tree(make_tree):
    root = make_tree(
        {
            "src/repro/engine/server.py": _SERVER,
            "src/repro/engine/cli.py": _CLI,
            "ENGINE.md": "Routes: `/query`, `/healthz`. Flags: `--tau`.\n",
        }
    )
    assert _run(root, "doc-drift").findings == []


_CLI_VERBS = """
def build_parser(commands):
    query = commands.add_parser("query", help="answer one stored query")
    query.add_argument("--tau", type=float)
"""

_ENGINE_MD_OK = """
Run `python -m repro.engine query --tau 2`; see `src/repro/engine/cli.py`,
`src/repro/{engine,analysis}` and `tests/*.py`.

| Flag | Subcommands | Meaning |
| --- | --- | --- |
| `--tau` | `query` | threshold |
"""


def _reverse_tree(make_tree, engine_md: str) -> str:
    return make_tree(
        {
            "src/repro/engine/cli.py": _CLI_VERBS,
            "src/repro/analysis/__init__.py": "",
            "tests/test_cli.py": "",
            "ENGINE.md": engine_md,
        }
    )


def test_doc_drift_reverse_passes_when_docs_name_only_what_exists(make_tree):
    assert _run(_reverse_tree(make_tree, _ENGINE_MD_OK), "doc-drift").findings == []


def test_doc_drift_trips_on_deleted_verb_flag_and_path(make_tree):
    stale = (
        _ENGINE_MD_OK
        + "| `--rate` | `load-bench` | open-loop dispatch rate |\n\n"
        + "```sh\npython -m repro.engine load-bench --tau 2\n```\n"
        + "The suite is `benchmarks/run_all.py`.\n"
    )
    report = _run(_reverse_tree(make_tree, stale), "doc-drift")
    messages = sorted(f.message for f in report.errors)
    assert len(messages) == 3
    assert "documents CLI verb load-bench" in messages[0]
    assert "names --rate, which no command line registers" in messages[1]
    assert "names benchmarks/run_all.py, which does not exist" in messages[2]
    assert {f.file for f in report.errors} == {"ENGINE.md"}


def test_doc_drift_checks_every_flag_the_docs_name_not_only_the_table(make_tree):
    """Prose, a code block, the sibling command lines and the other tools' list."""
    files = {
        "src/repro/engine/cli.py": _CLI_VERBS,
        "src/repro/analysis/__main__.py": 'parser.add_argument("--strict")\n',
        "benchmarks/perf/run.py": 'parser.add_argument("--workload")\n',
        "tests/test_cli.py": "",
        "ENGINE.md": _ENGINE_MD_OK
        + "Run `python -m repro.analysis --strict`, `run.py --workload x` and\n"
        + "`pytest --benchmark-only`; a rule row holds -- as prose -- no flag.\n",
    }
    assert _run(make_tree(files), "doc-drift").findings == []
    files["README.md"] = "Rotation keeps `--slow-query-keep-files` generations:\n\n"
    files["README.md"] += "```sh\npython -m repro.engine query --tau 2 --profile-hz 67\n```\n"
    report = _run(make_tree(files), "doc-drift")
    assert sorted((f.file, f.line, f.message) for f in report.errors) == [
        ("README.md", 1, "names --slow-query-keep-files, which no command line registers"),
        ("README.md", 4, "names --profile-hz, which no command line registers"),
    ]


_STATS = """
class Stats:
    def __init__(self, r):
        self._queries = r.counter("engine_queries_total", "queries served")
        r.gauge("engine_delta_records", "records in the delta store", backend="sets")
        r.histogram(name, "a computed name is not a literal")

    def observe(self, r, backend):
        r.histogram("engine_query_seconds", "latency", backend=backend).observe(1.0)
"""


def test_doc_drift_requires_a_line_for_every_series_the_engine_emits(make_tree):
    files = {
        "src/repro/engine/executor.py": _STATS,
        "src/repro/sets/searcher.py": 'registry.counter("not_under_engine_total")\n',
        "ENGINE.md": "Read `engine_queries_total` and `engine_query_seconds{backend}`;\n"
        "engine_delta_records without backticks does not count.\n",
    }
    report = _run(make_tree(files), "doc-drift")
    assert [(f.file, f.line, f.message) for f in report.errors] == [
        (
            "src/repro/engine/executor.py",
            5,
            "series engine_delta_records is emitted but ENGINE.md never names it",
        )
    ]
    files["ENGINE.md"] += "Overlay size: `engine_delta_records{backend}`.\n"
    assert _run(make_tree(files), "doc-drift").findings == []


def test_doc_drift_requires_engine_md_when_server_exists(make_tree):
    root = make_tree({"src/repro/engine/server.py": _SERVER})
    report = _run(root, "doc-drift")
    assert len(report.errors) == 1
    assert "ENGINE.md" in report.errors[0].message


_DOCSTRING_POINTERS = '''
"""A module whose substitution is documented in DESIGN.md.

See also ENGINE.md and docs/NOTES.md.
"""


def helper():
    """Recorded in
    EXPERIMENTS.md."""
    return "README.md in a string that is not a docstring"
'''


def test_doc_drift_trips_on_docstring_naming_absent_root_document(make_tree):
    root = make_tree(
        {
            "src/repro/sets/partalloc.py": _DOCSTRING_POINTERS,
            "ENGINE.md": "The engine.\n",
        }
    )
    report = _run(root, "doc-drift")
    found = sorted((f.file, f.line, f.message) for f in report.errors)
    # ENGINE.md exists, docs/NOTES.md is not root-level, and only docstrings count.
    assert found == [
        (
            "src/repro/sets/partalloc.py",
            2,
            "a docstring names DESIGN.md, which does not exist",
        ),
        (
            "src/repro/sets/partalloc.py",
            10,
            "a docstring names EXPERIMENTS.md, which does not exist",
        ),
    ]
    make_tree({"DESIGN.md": "Substitutions.\n", "EXPERIMENTS.md": "Numbers.\n"})
    assert _run(root, "doc-drift").findings == []


# ---------------------------------------------------------------------------
# exception-hygiene
# ---------------------------------------------------------------------------


def test_exception_hygiene_trips_on_silent_swallow(make_tree):
    root = make_tree(
        {
            "src/repro/io.py": """
            def read(path):
                try:
                    return open(path).read()
                except Exception:
                    return None

            def close(handle):
                try:
                    handle.close()
                except:
                    pass
            """
        }
    )
    report = _run(root, "exception-hygiene")
    assert len(report.errors) == 2
    assert "broad except swallows" in report.errors[0].message
    assert "bare except swallows" in report.errors[1].message


def test_exception_hygiene_passes_observable_handlers(make_tree):
    root = make_tree(
        {
            "src/repro/io.py": """
            import logging

            def read(path):
                try:
                    return open(path).read()
                except Exception as exc:
                    logging.warning("read failed: %s", exc)
                    return None

            def parse(text):
                try:
                    return int(text)
                except ValueError:
                    return 0
            """
        }
    )
    assert _run(root, "exception-hygiene").findings == []


# ---------------------------------------------------------------------------
# numpy-hotpath
# ---------------------------------------------------------------------------


def test_numpy_hotpath_trips_on_growth_in_loop_and_untyped_alloc(make_tree):
    root = make_tree(
        {
            "src/repro/gather.py": """
            import numpy as np

            def gather(chunks):
                out = np.empty(0, dtype=np.int64)
                for chunk in chunks:
                    out = np.append(out, chunk)
                return out

            def histogram(n):
                return np.zeros(n)
            """
        }
    )
    report = _run(root, "numpy-hotpath")
    assert len(report.errors) == 1
    assert "np.append inside a loop" in report.errors[0].message
    assert len(report.warnings) == 1
    assert "np.zeros without an explicit dtype" in report.warnings[0].message


def test_numpy_hotpath_passes_gather_once_pattern(make_tree):
    root = make_tree(
        {
            "src/repro/gather.py": """
            import numpy as np

            def gather(chunks):
                parts = []
                for chunk in chunks:
                    parts.append(chunk)
                return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

            def histogram(n):
                return np.zeros(n, dtype=np.int64)
            """
        }
    )
    assert _run(root, "numpy-hotpath").findings == []


def test_numpy_hotpath_ignores_files_without_numpy(make_tree):
    root = make_tree(
        {
            "src/repro/plain.py": """
            def gather(chunks):
                out = []
                for chunk in chunks:
                    out.append(chunk)
                return out
            """
        }
    )
    assert _run(root, "numpy-hotpath").findings == []


# ---------------------------------------------------------------------------
# unused-export
# ---------------------------------------------------------------------------

_EXPORTS = """
class Engine:
    def search(self, query):
        return self._rank(query)

    def recent_traces(self):
        return []

    def _rank(self, query):
        return [query]

def open_engine():
    return Engine()

def asearch():
    return None
"""


def test_unused_export_flags_the_dead_and_spares_the_live(make_tree):
    root = make_tree(
        {
            "src/repro/engine/core.py": _EXPORTS,
            # A re-export makes a name reachable, not used ...
            "src/repro/engine/__init__.py": """
            from repro.engine.core import asearch, open_engine

            __all__ = ["asearch", "open_engine"]
            """,
            # ... a call from an example does, and so does a string-dispatched one.
            "examples/demo.py": """
            from repro.engine import open_engine

            getattr(open_engine(), "search")("q")
            """,
            # Tests are not callers.
            "tests/test_core.py": """
            from repro.engine.core import Engine, asearch

            assert Engine().recent_traces() == [] and asearch() is None
            """,
        }
    )
    report = _run(root, "unused-export")
    flagged = sorted(finding.message.split()[0] for finding in report.errors)
    assert flagged == ["Engine.recent_traces", "asearch"]
    assert all(finding.file == "src/repro/engine/core.py" for finding in report.errors)


def test_unused_export_reads_the_smoke_scripts(make_tree):
    root = make_tree(
        {
            "src/repro/engine/core.py": _EXPORTS,
            "benchmarks/smoke.sh": """
            python - <<'EOF'
            from repro.engine.core import Engine, asearch, open_engine
            open_engine().search("q"); asearch(); Engine().recent_traces()
            EOF
            """,
        }
    )
    assert _run(root, "unused-export").findings == []
