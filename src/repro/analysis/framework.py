"""The analysis framework: findings, rule registry, context, allowlist.

A *rule* is a function ``(ctx: AnalysisContext) -> list[Finding]`` registered
under a stable name with the :func:`rule` decorator.  Rules parse the
repository through the shared :class:`AnalysisContext` (cached sources and
``ast`` trees keyed by repo-relative path), so N rules pay for one parse.

Findings carry a *severity*: ``"error"`` always fails the run, ``"warning"``
fails only under ``--strict`` (the CI mode).  False positives are suppressed
through a checked-in allowlist -- a JSON list of ``{"rule", "match",
"reason"}`` entries where ``match`` is a substring of the finding's stable
:attr:`Finding.key` and ``reason`` is the one-line justification reviewers
see.  Allowlist entries that no longer match anything become warnings
themselves, so the file cannot silently rot.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Repo-relative path of the default allowlist (next to this module).
ALLOWLIST_NAME = "allowlist.json"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule name, a location, and a message."""

    rule: str
    file: str
    line: int
    message: str
    severity: str = "error"

    @property
    def key(self) -> str:
        """Stable identity used for allowlist matching (no line numbers,
        so findings survive unrelated edits above them)."""
        return f"{self.rule}:{self.file}:{self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.severity}: {self.message}"


RuleFunc = Callable[["AnalysisContext"], list[Finding]]


@dataclass(frozen=True)
class Rule:
    name: str
    help: str
    func: RuleFunc


_RULES: dict[str, Rule] = {}


def rule(name: str, help: str = "") -> Callable[[RuleFunc], RuleFunc]:
    """Register a rule function under a stable name."""

    def decorate(func: RuleFunc) -> RuleFunc:
        if name in _RULES:
            raise ValueError(f"rule {name!r} is already registered")
        _RULES[name] = Rule(name, help, func)
        return func

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by name (imports the rule modules)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_RULES[name] for name in sorted(_RULES)]


def get_rule(name: str) -> Rule:
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return _RULES[name]


class AnalysisContext:
    """Cached view of one repository tree for the rules to share.

    ``root`` is the repository root (the directory holding ``src/``).  All
    paths handed out and accepted are repo-relative with ``/`` separators,
    so findings and allowlist entries are stable across machines.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self._sources: dict[str, str] = {}
        self._trees: dict[str, ast.Module] = {}

    # -- files --------------------------------------------------------------

    def path(self, relpath: str) -> str:
        return os.path.join(self.root, *relpath.split("/"))

    def exists(self, relpath: str) -> bool:
        return os.path.exists(self.path(relpath))

    def iter_python(self, prefix: str = "src") -> Iterator[str]:
        """Repo-relative paths of every ``.py`` file under ``prefix``, sorted."""
        base = self.path(prefix)
        found: list[str] = []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    found.append(os.path.relpath(full, self.root).replace(os.sep, "/"))
        return iter(sorted(found))

    def source(self, relpath: str) -> str:
        if relpath not in self._sources:
            with open(self.path(relpath), encoding="utf-8") as handle:
                self._sources[relpath] = handle.read()
        return self._sources[relpath]

    def tree(self, relpath: str) -> ast.Module:
        if relpath not in self._trees:
            self._trees[relpath] = ast.parse(self.source(relpath), filename=relpath)
        return self._trees[relpath]

    def text(self, relpath: str) -> str:
        """Raw text of a non-Python file (docs); same cache as sources."""
        return self.source(relpath)

    @staticmethod
    def module_name(relpath: str) -> str:
        """``src/repro/engine/executor.py`` -> ``repro.engine.executor``."""
        parts = relpath.split("/")
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------


def load_allowlist(path: str) -> list[dict]:
    """Read an allowlist file; every entry needs rule, match and reason."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ValueError(f"{path!r}: the allowlist must be a JSON list")
    for position, entry in enumerate(entries):
        for field_name in ("rule", "match", "reason"):
            if not isinstance(entry.get(field_name), str) or not entry[field_name]:
                raise ValueError(
                    f"{path!r}: entry {position} is missing a non-empty {field_name!r}"
                )
    return entries


def apply_allowlist(
    findings: list[Finding], entries: list[dict]
) -> tuple[list[Finding], list[Finding], list[dict]]:
    """Split findings into (kept, suppressed); also return stale entries."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used = [False] * len(entries)
    for finding in findings:
        match = None
        for position, entry in enumerate(entries):
            if entry["rule"] == finding.rule and entry["match"] in finding.key:
                match = position
                break
        if match is None:
            kept.append(finding)
        else:
            used[match] = True
            suppressed.append(finding)
    stale = [entry for entry, was_used in zip(entries, used) if not was_used]
    return kept, suppressed, stale


# ---------------------------------------------------------------------------
# Size report
# ---------------------------------------------------------------------------

#: The packages whose size every run reports: "smaller" is measured in code
#: lines here, not ``wc -l``.
SIZE_PACKAGES = (
    "src/repro/engine",
    "src/repro/common",
    "src/repro/sets",
    "src/repro/strings",
    "src/repro/hamming",
    "src/repro/graphs",
)


def code_lines(source: str, tree: ast.Module) -> int:
    """Lines of ``source`` that hold code: blank lines, comment-only lines
    and docstrings are excluded; every line of another string literal counts."""
    docstrings: set[int] = set()
    literals: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
        elif isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno != node.lineno:
            literals.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            continue
        text = line.strip()
        if number in literals or (text and not text.startswith("#")):
            count += 1
    return count


#: The packages whose combined size the ROADMAP's size target reads.
CORE_PACKAGES = ("src/repro/engine", "src/repro/common")


def measure_sizes(ctx: AnalysisContext) -> dict:
    """``{package: {"modules": {relpath: code lines}, "total": n}}``, plus the
    :data:`CORE_PACKAGES` total under their names joined by ``" + "``."""
    sizes = {}
    for package in SIZE_PACKAGES:
        modules = {
            relpath: code_lines(ctx.source(relpath), ctx.tree(relpath))
            for relpath in ctx.iter_python(package)
        }
        sizes[package] = {"modules": modules, "total": sum(modules.values())}
    sizes[" + ".join(CORE_PACKAGES)] = {
        "modules": {},
        "total": sum(sizes[package]["total"] for package in CORE_PACKAGES),
    }
    return sizes


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """The outcome of one analysis run over a repository tree."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_allowlist: list[dict] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity != "error"]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and (self.warnings or self.stale_allowlist):
            return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "rules_run": self.rules_run,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stale_allowlist": self.stale_allowlist,
            "sizes": self.sizes,
        }


def run_analysis(
    root: str,
    rules: list[str] | None = None,
    allowlist_path: str | None = None,
) -> Report:
    """Run rules against the tree at ``root`` and apply the allowlist.

    ``allowlist_path`` defaults to the checked-in ``analysis/allowlist.json``
    of the analysed tree itself (so fixture trees bring their own, and the
    repository's allowlist never leaks into fixture runs).
    """
    ctx = AnalysisContext(root)
    selected = all_rules()
    if rules is not None:
        selected = [get_rule(name) for name in rules]
    if allowlist_path is None:
        allowlist_path = ctx.path(f"src/repro/analysis/{ALLOWLIST_NAME}")
    entries = load_allowlist(allowlist_path)
    findings: list[Finding] = []
    for entry in selected:
        findings.extend(entry.func(ctx))
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    kept, suppressed, stale = apply_allowlist(findings, entries)
    return Report(
        findings=kept,
        suppressed=suppressed,
        stale_allowlist=stale,
        rules_run=[entry.name for entry in selected],
        sizes=measure_sizes(ctx),
    )
