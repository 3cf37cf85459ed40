"""Doc-drift rule: the code and the docs must name the same things.

Code -> docs (an undocumented feature is one nobody can discover):

* Every HTTP route the server knows -- the ``_ENDPOINTS`` literal in
  ``src/repro/engine/server.py`` plus any ``path == "/x"`` comparison --
  must appear (backtick-quoted) in ENGINE.md, whose endpoint table is the
  contract clients are written against.
* Every ``--flag`` registered via ``add_argument`` in
  ``src/repro/engine/cli.py`` must appear verbatim in ENGINE.md or
  README.md.
* Every literal series name passed to ``.counter(`` / ``.gauge(`` /
  ``.histogram(`` under ``src/repro/engine`` must appear backtick-quoted in
  ENGINE.md (bare, or with its labels as ``name{label}``): a series with
  no runbook line has no reader.

Docs -> code (a deleted verb, flag or file must not live on in the docs):

* Every ``python -m repro.engine <verb>`` in ENGINE.md or README.md must
  name a subcommand ``cli.py`` registers via ``add_parser``.
* Every ``--flag`` anywhere in those two files must be registered by one of
  the repo's own command lines (``FLAG_SOURCES``) or be listed, with its
  tool, in ``OTHER_TOOLS_FLAGS``.
* Every back-ticked ``benchmarks/``, ``src/``, ``tests/`` or ``examples/``
  path in those two files must exist (``*`` and ``{a,b}`` expand).

Code -> docs, by name (a pointer to a document nobody can open):

* Every root-level document a docstring under ``src/`` names -- capitals
  and underscores before ``.md``, as in ENGINE.md -- must exist.
"""

from __future__ import annotations

import ast
import glob
import re

from repro.analysis.framework import AnalysisContext, Finding, rule

SERVER_FILE = "src/repro/engine/server.py"
CLI_FILE = "src/repro/engine/cli.py"
ENGINE_PACKAGE = "src/repro/engine"
DOC_FILES = ("ENGINE.md", "README.md")
#: Every argparse command line the docs may quote a flag of.
FLAG_SOURCES = (CLI_FILE, "src/repro/analysis/__main__.py", "benchmarks/perf/run.py")
#: Flags of other tools the docs quote, and whose they are.
OTHER_TOOLS_FLAGS = {
    "--benchmark-only": "pytest-benchmark",
    "--benchmark-disable": "pytest-benchmark",
}

_VERB_RE = re.compile(r"python -m repro\.engine\s+([a-z][a-z-]*)")
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_INSTRUMENTS = ("counter", "gauge", "histogram")
_PATH_RE = re.compile(r"`((?:benchmarks|src|tests|examples)/[^`\s]*)`")
_ROOT_DOC_RE = re.compile(r"(?<![\w/.-])([A-Z_]+\.md)\b")


def server_routes(ctx: AnalysisContext) -> list[tuple[str, int]]:
    """Every route path the server dispatches on, with its line."""
    tree = ctx.tree(SERVER_FILE)
    routes: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            is_endpoints = any(
                isinstance(target, ast.Name) and target.id == "_ENDPOINTS"
                for target in node.targets
            )
            if is_endpoints and isinstance(node.value, (ast.Tuple, ast.List)):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        routes.setdefault(element.value, element.lineno)
        elif isinstance(node, ast.Compare):
            candidates = [node.left] + list(node.comparators)
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                for candidate in candidates:
                    if (
                        isinstance(candidate, ast.Constant)
                        and isinstance(candidate.value, str)
                        and candidate.value.startswith("/")
                    ):
                        routes.setdefault(candidate.value, candidate.lineno)
    return sorted(routes.items())


def _string_args(
    ctx: AnalysisContext, relpath: str, methods: tuple[str, ...], first_only: bool = False
) -> list[tuple[str, int]]:
    """String literals passed positionally to ``<anything>.<method>(...)``."""
    found: dict[str, int] = {}
    for node in ast.walk(ctx.tree(relpath)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in methods):
            continue
        for arg in node.args[:1] if first_only else node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                found.setdefault(arg.value, arg.lineno)
    return sorted(found.items())


def cli_flags(ctx: AnalysisContext, relpath: str = CLI_FILE) -> list[tuple[str, int]]:
    """Every ``--flag`` string passed to an ``add_argument`` call."""
    arguments = _string_args(ctx, relpath, ("add_argument",))
    return [(flag, line) for flag, line in arguments if flag.startswith("--")]


def cli_subcommands(ctx: AnalysisContext) -> set[str]:
    """Every subcommand name passed to an ``add_parser`` call."""
    return {name for name, _line in _string_args(ctx, CLI_FILE, ("add_parser",))}


def engine_series(ctx: AnalysisContext) -> list[tuple[str, str, int]]:
    """``(file, name, line)`` of every literal series name the engine registers."""
    return [
        (relpath, name, line)
        for relpath in ctx.iter_python(ENGINE_PACKAGE)
        for name, line in _string_args(ctx, relpath, _INSTRUMENTS, first_only=True)
    ]


def _path_exists(ctx: AnalysisContext, path: str) -> bool:
    head, brace, rest = path.partition("{")
    if brace:
        options, _close, tail = rest.partition("}")
        return all(_path_exists(ctx, head + option + tail) for option in options.split(","))
    return bool(glob.glob(ctx.path(path.rstrip("/"))))


def docstring_documents(ctx: AnalysisContext) -> list[tuple[str, int, str]]:
    """``(file, line, name)`` for every root-level ``.md`` a ``src/`` docstring names."""
    found: list[tuple[str, int, str]] = []
    for relpath in ctx.iter_python("src"):
        if ".md" not in ctx.source(relpath):
            continue
        for node in ast.walk(ctx.tree(relpath)):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if ast.get_docstring(node, clean=False) is None:
                continue
            literal = node.body[0].value
            for match in _ROOT_DOC_RE.finditer(literal.value):
                line = literal.lineno + _line_of(literal.value, match) - 1
                found.append((relpath, line, match.group(1)))
    return found


def _line_of(text: str, match: re.Match) -> int:
    return text.count("\n", 0, match.start()) + 1


@rule("doc-drift", "routes, CLI verbs/flags and paths agree between code and docs")
def check_doc_drift(ctx: AnalysisContext) -> list[Finding]:
    findings: list[Finding] = []

    def drift(file: str, line: int, message: str) -> None:
        findings.append(Finding(rule="doc-drift", file=file, line=line, message=message))

    docs = {name: ctx.text(name) for name in DOC_FILES if ctx.exists(name)}
    if ctx.exists(SERVER_FILE):
        if "ENGINE.md" not in docs:
            drift("ENGINE.md", 1, "server.py exists but ENGINE.md (the endpoint contract) does not")
        else:
            engine_md = docs["ENGINE.md"]
            for route, line in server_routes(ctx):
                if f"`{route}`" not in engine_md:
                    drift(SERVER_FILE, line, f"route {route} is served but missing from ENGINE.md")
    if "ENGINE.md" in docs:
        for relpath, name, line in engine_series(ctx):
            if not re.search(f"`{name}[`{{]", docs["ENGINE.md"]):
                drift(relpath, line, f"series {name} is emitted but ENGINE.md never names it")
    if ctx.exists(CLI_FILE) and docs:
        haystack = "\n".join(docs.values())
        flags = cli_flags(ctx)
        for flag, line in flags:
            if flag not in haystack:
                drift(CLI_FILE, line, f"CLI flag {flag} is undocumented (ENGINE.md / README.md)")
        subcommands = cli_subcommands(ctx)
        for name, text in docs.items():
            for match in _VERB_RE.finditer(text):
                verb = match.group(1)
                if verb not in subcommands:
                    message = f"documents CLI verb {verb}, which cli.py does not register"
                    drift(name, _line_of(text, match), message)
        registered = set(OTHER_TOOLS_FLAGS)
        for source in FLAG_SOURCES:
            if ctx.exists(source):
                registered.update(flag for flag, _line in cli_flags(ctx, source))
        for name, text in docs.items():
            for match in _FLAG_RE.finditer(text):
                if match.group(0) not in registered:
                    message = f"names {match.group(0)}, which no command line registers"
                    drift(name, _line_of(text, match), message)
    for name, text in docs.items():
        for match in _PATH_RE.finditer(text):
            if not _path_exists(ctx, match.group(1)):
                drift(name, _line_of(text, match), f"names {match.group(1)}, which does not exist")
    for relpath, line, document in docstring_documents(ctx):
        if not ctx.exists(document):
            drift(relpath, line, f"a docstring names {document}, which does not exist")
    return findings
