"""Unused-export rule: public surface that nothing calls is dead weight.

An *export* is a public (no leading underscore) module-level function,
class or constant, or a public method or property of a module-level class,
defined under ``src/repro/engine`` or ``src/repro/common``.  It is a
finding when nothing under ``src/``, ``benchmarks/`` or ``examples/``
references its name: such a name is tested, documented and kept compatible
for no caller.

Matching is by bare name, which errs towards silence -- ``engine.compact``
keeps every ``compact`` alive -- so a finding is always worth reading.  A
reference is an attribute access, a plain name, a ``from ... import``, an
identifier-shaped string passed as a call argument (``getattr(x, "close")``,
``pool.submit(_worker_call, "flush")``), or any identifier in a shell
script under ``benchmarks/`` (the smokes drive the client from heredocs).
Two things that look like references are not: a re-export (an
``__init__.py`` importing a name or listing it in ``__all__`` makes it
reachable, not used) and a test (a name only tests call is the case the
rule exists for).  A use inside the defining module does count: a class
reached only through another class of its module is not dead.

Intended user API with no in-repo caller goes in the allowlist with its
justification.
"""

from __future__ import annotations

import ast
import os
import re

from repro.analysis.framework import AnalysisContext, Finding, rule

EXPORT_PREFIXES = ("src/repro/engine", "src/repro/common")
REFERENCE_PREFIXES = ("src", "benchmarks", "examples")

_IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")


def module_exports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(bare name, qualified name, line)`` of every public export."""
    exports: list[tuple[str, str, int]] = []

    def public(name: str) -> bool:
        return not name.startswith("_")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not public(node.name):
                continue
            exports.append((node.name, node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if public(item.name):
                            qualified = f"{node.name}.{item.name}"
                            exports.append((item.name, qualified, item.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and public(target.id):
                    exports.append((target.id, target.id, node.lineno))
    return exports


def python_references(tree: ast.Module, is_package_init: bool) -> set[str]:
    """Every name this module references (see the module docstring)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom) and not is_package_init:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if arg.value.isidentifier():
                        names.add(arg.value)
    return names


def _script_references(ctx: AnalysisContext) -> set[str]:
    """Identifiers in the shell scripts directly under ``benchmarks/``."""
    names: set[str] = set()
    base = ctx.path("benchmarks")
    if os.path.isdir(base):
        for name in sorted(os.listdir(base)):
            if name.endswith(".sh"):
                names.update(_IDENTIFIER_RE.findall(ctx.text(f"benchmarks/{name}")))
    return names


@rule("unused-export", "public engine/common names that nothing references")
def check_unused_exports(ctx: AnalysisContext) -> list[Finding]:
    # name -> the files that reference it ("" stands for the shell scripts).
    referenced_in: dict[str, set[str]] = {name: {""} for name in _script_references(ctx)}
    for prefix in REFERENCE_PREFIXES:
        if not ctx.exists(prefix):
            continue
        for relpath in ctx.iter_python(prefix):
            is_init = relpath.endswith("/__init__.py")
            for name in python_references(ctx.tree(relpath), is_init):
                referenced_in.setdefault(name, set()).add(relpath)
    findings: list[Finding] = []
    for prefix in EXPORT_PREFIXES:
        if not ctx.exists(prefix):
            continue
        for relpath in ctx.iter_python(prefix):
            for name, qualified, line in module_exports(ctx.tree(relpath)):
                if referenced_in.get(name):
                    continue
                findings.append(
                    Finding(
                        rule="unused-export",
                        file=relpath,
                        line=line,
                        message=f"{qualified} is public but nothing references it",
                    )
                )
    return findings
