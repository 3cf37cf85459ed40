"""Wire-compat rule: every emitted field decodes, schema changes bump versions.

Two protected surfaces:

* the **engine wire** (``src/repro/engine/wire.py``): each ``encode_X`` is
  paired with its decoder -- ``decode_X`` in the same module for requests,
  ``WireResponse.from_wire`` in ``client.py`` for ``encode_response``;
* the **obs wire** (``src/repro/common/obs.py``): ``MetricsRegistry.
  to_wire`` paired with ``MetricsRegistry.merge_wire``.

For an encoder the rule collects every string key it emits (dict literals
and ``body["k"] = ...`` stores), *transitively* through the functions it
calls by name; for a decoder, every key it reads (``body["k"]``,
``body.get("k")``, ``"k" in body``), transitively through same-module
helpers (``decode_query`` delegates ``schema_version`` checking to
``_check_schema_version``).  Both follow functions imported from other
``repro`` modules too: the mutation ops of ``encode_mutate`` /
``decode_mutate`` are written and read by the WAL's op codec.  An emitted
key with no reader on the decode side is an error -- a field nobody can
ever consume is either dead weight or a typo'd rename that silently drops
data.

The second check compares the extracted field sets against checked-in
snapshots (``src/repro/analysis/schemas/*.json``).  A drifted field set
with an unchanged schema version is an error ("bump the version");
a bumped version with a stale snapshot is an error too ("regenerate with
``--update-schemas``"), so snapshots, code and version move together.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass
from typing import Callable

from repro.analysis.framework import AnalysisContext, Finding, rule

SCHEMA_DIR = "src/repro/analysis/schemas"


@dataclass(frozen=True)
class PairSpec:
    """One encoder/decoder pairing inside a surface."""

    name: str
    encode_file: str
    encode_func: str  # "function" or "Class.method"
    decode_file: str
    decode_func: str


@dataclass(frozen=True)
class SurfaceSpec:
    """One wire surface: its version constant and its codec pairs."""

    name: str
    version_file: str
    version_const: str
    pairs: tuple[PairSpec, ...]

    @property
    def snapshot(self) -> str:
        return f"{SCHEMA_DIR}/{self.name}.json"


SURFACES = (
    SurfaceSpec(
        name="engine_wire",
        version_file="src/repro/engine/wire.py",
        version_const="WIRE_SCHEMA_VERSION",
        pairs=(
            PairSpec(
                "query",
                "src/repro/engine/wire.py",
                "encode_query",
                "src/repro/engine/wire.py",
                "decode_query",
            ),
            PairSpec(
                "mutate",
                "src/repro/engine/wire.py",
                "encode_mutate",
                "src/repro/engine/wire.py",
                "decode_mutate",
            ),
            PairSpec(
                "response",
                "src/repro/engine/wire.py",
                "encode_response",
                "src/repro/engine/client.py",
                "WireResponse.from_wire",
            ),
        ),
    ),
    SurfaceSpec(
        name="obs_wire",
        version_file="src/repro/common/obs.py",
        version_const="OBS_WIRE_VERSION",
        pairs=(
            PairSpec(
                "metrics",
                "src/repro/common/obs.py",
                "MetricsRegistry.to_wire",
                "src/repro/common/obs.py",
                "MetricsRegistry.merge_wire",
            ),
        ),
    ),
)


def _find_function(tree: ast.Module, dotted: str) -> ast.FunctionDef | None:
    """Resolve ``func`` or ``Class.method`` to its def node."""
    parts = dotted.split(".")
    body: list[ast.stmt] = tree.body
    for part in parts[:-1]:
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name == part:
                body = node.body
                break
        else:
            return None
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == parts[-1]:
            return node  # type: ignore[return-value]
    return None


def _module_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Top-level and method defs, keyed by name (helpers for transitivity)."""
    functions: dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node  # type: ignore[assignment]
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.setdefault(item.name, item)  # type: ignore[arg-type]
    return functions


def _scope(ctx: AnalysisContext, relpath: str) -> dict[str, tuple[str, ast.FunctionDef]]:
    """Functions callable by name in a module: its own, plus those it imports
    from other ``repro`` modules, each with the file that defines it."""
    tree = ctx.tree(relpath)
    scope = {name: (relpath, func) for name, func in _module_functions(tree).items()}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            source = "src/" + str(node.module).replace(".", "/") + ".py"
            if not ctx.exists(source):
                continue
            defined = _module_functions(ctx.tree(source))
            for alias in node.names:
                if alias.name in defined:
                    scope[alias.asname or alias.name] = (source, defined[alias.name])
    return scope


def _reachable(
    ctx: AnalysisContext, relpath: str, func: ast.FunctionDef, callees: Callable
) -> list[ast.FunctionDef]:
    """``func`` plus every function reached through ``callees(function)``
    names, each resolved in the scope of the module defining the caller."""
    seen: set[tuple[str, str]] = set()
    reached: list[ast.FunctionDef] = []
    frontier = [(relpath, func)]
    while frontier:
        path, current = frontier.pop()
        if (path, current.name) in seen:
            continue
        seen.add((path, current.name))
        reached.append(current)
        scope = _scope(ctx, path)
        frontier.extend(scope[name] for name in callees(current) if name in scope)
    return reached


def _name_calls(func: ast.FunctionDef) -> set[str]:
    """Names of the plain (non-method) functions ``func`` calls."""
    return {
        node.func.id
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def emitted_keys(ctx: AnalysisContext, relpath: str, func: ast.FunctionDef) -> set[str]:
    """String keys the encoder emits: dict-literal keys + subscript stores."""
    keys: set[str] = set()
    for node in (n for f in _reachable(ctx, relpath, func, _name_calls) for n in ast.walk(f)):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _direct_read_keys(func: ast.FunctionDef) -> tuple[set[str], set[str]]:
    """Keys this function reads, plus names of functions it calls."""
    keys: set[str] = set()
    calls: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                keys.add(node.slice.value)
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if isinstance(func_expr, ast.Attribute):
                if func_expr.attr == "get" and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(first.value, str):
                        keys.add(first.value)
                calls.add(func_expr.attr)
            elif isinstance(func_expr, ast.Name):
                calls.add(func_expr.id)
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                if isinstance(node.left, ast.Constant) and isinstance(node.left.value, str):
                    keys.add(node.left.value)
    return keys, calls


def consumed_keys(ctx: AnalysisContext, relpath: str, func: ast.FunctionDef) -> set[str]:
    """Keys read by the decoder or any helper it reaches."""
    keys: set[str] = set()
    for reached in _reachable(ctx, relpath, func, lambda f: _direct_read_keys(f)[1]):
        keys |= _direct_read_keys(reached)[0]
    return keys


def _surface_state(ctx: AnalysisContext, surface: SurfaceSpec) -> tuple[dict, list[Finding]]:
    """Extract the live field sets + version for one surface."""
    findings: list[Finding] = []
    state: dict = {"version": None, "pairs": {}}
    version_tree = ctx.tree(surface.version_file)
    for node in version_tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == surface.version_const:
                    if isinstance(node.value, ast.Constant):
                        state["version"] = node.value.value
    if state["version"] is None:
        findings.append(
            Finding(
                rule="wire-compat",
                file=surface.version_file,
                line=1,
                message=f"cannot find the {surface.version_const} constant",
            )
        )
    for pair in surface.pairs:
        encoder = _find_function(ctx.tree(pair.encode_file), pair.encode_func)
        decoder = _find_function(ctx.tree(pair.decode_file), pair.decode_func)
        if encoder is None or decoder is None:
            missing = pair.encode_func if encoder is None else pair.decode_func
            missing_file = pair.encode_file if encoder is None else pair.decode_file
            findings.append(
                Finding(
                    rule="wire-compat",
                    file=missing_file,
                    line=1,
                    message=f"codec function {missing} not found for pair {pair.name!r}",
                )
            )
            continue
        emitted = emitted_keys(ctx, pair.encode_file, encoder)
        consumed = consumed_keys(ctx, pair.decode_file, decoder)
        state["pairs"][pair.name] = {
            "emitted": sorted(emitted),
            "consumed": sorted(consumed),
        }
        for key in sorted(emitted - consumed):
            findings.append(
                Finding(
                    rule="wire-compat",
                    file=pair.encode_file,
                    line=encoder.lineno,
                    message=(
                        f"{pair.name}:{key}: emitted by {pair.encode_func} but never "
                        f"read by {pair.decode_func}"
                    ),
                )
            )
    return state, findings


def update_schemas(ctx: AnalysisContext) -> list[str]:
    """Regenerate every surface snapshot from the current code; returns paths."""
    os.makedirs(ctx.path(SCHEMA_DIR), exist_ok=True)
    written = []
    for surface in SURFACES:
        if not ctx.exists(surface.version_file):
            continue
        state, _findings = _surface_state(ctx, surface)
        with open(ctx.path(surface.snapshot), "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(surface.snapshot)
    return written


@rule("wire-compat", "encoder/decoder field parity and schema-version bumps")
def check_wire_compat(ctx: AnalysisContext) -> list[Finding]:
    findings: list[Finding] = []
    for surface in SURFACES:
        if not ctx.exists(surface.version_file):
            continue  # fixture tree without this surface
        state, surface_findings = _surface_state(ctx, surface)
        findings.extend(surface_findings)
        if not ctx.exists(surface.snapshot):
            findings.append(
                Finding(
                    rule="wire-compat",
                    file=surface.snapshot,
                    line=1,
                    message=(
                        f"missing schema snapshot for surface {surface.name!r} "
                        f"(run --update-schemas)"
                    ),
                )
            )
            continue
        snapshot = json.loads(ctx.text(surface.snapshot))
        if snapshot.get("pairs") != state["pairs"]:
            changed = sorted(
                name
                for name in set(snapshot.get("pairs", {})) | set(state["pairs"])
                if snapshot.get("pairs", {}).get(name) != state["pairs"].get(name)
            )
            if snapshot.get("version") == state["version"]:
                findings.append(
                    Finding(
                        rule="wire-compat",
                        file=surface.version_file,
                        line=1,
                        message=(
                            f"wire fields changed ({', '.join(changed)}) without a "
                            f"{surface.version_const} bump"
                        ),
                    )
                )
            else:
                findings.append(
                    Finding(
                        rule="wire-compat",
                        file=surface.snapshot,
                        line=1,
                        message=(
                            f"schema snapshot is stale for {', '.join(changed)} "
                            f"(run --update-schemas)"
                        ),
                    )
                )
        elif snapshot.get("version") != state["version"]:
            findings.append(
                Finding(
                    rule="wire-compat",
                    file=surface.snapshot,
                    line=1,
                    message=(
                        f"snapshot records version {snapshot.get('version')!r} but the "
                        f"code says {state['version']!r} (run --update-schemas)"
                    ),
                )
            )
    return findings
