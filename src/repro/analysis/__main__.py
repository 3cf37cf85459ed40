"""``python -m repro.analysis``: run the rule suite against the repository.

Exit status: 0 when clean, 1 on errors (or, under ``--strict``, on
warnings and stale allowlist entries too).  Every run also reports the code
size of the engine and common packages.  ``--json`` prints the full report
as one JSON document; ``--update-schemas`` regenerates the
wire-schema snapshots after a deliberate, version-bumped change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.framework import all_rules, run_analysis
from repro.analysis.rules.wire_compat import update_schemas


def _detect_root(start: str) -> str:
    """Walk up from ``start`` to the directory holding pyproject.toml."""
    current = os.path.abspath(start)
    while True:
        if os.path.exists(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return os.path.abspath(start)
        current = parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="project-specific static analysis (locks, wire compat, drift)",
    )
    parser.add_argument("--root", default=".", help="repository root (default: auto-detect)")
    parser.add_argument(
        "--strict", action="store_true", help="fail on warnings and stale allowlist entries"
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable); default: all",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--update-schemas",
        action="store_true",
        help="regenerate the wire-schema snapshots from the current code",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for entry in all_rules():
            print(f"{entry.name}: {entry.help}")
        return 0
    root = _detect_root(args.root)
    if args.update_schemas:
        from repro.analysis.framework import AnalysisContext

        for path in update_schemas(AnalysisContext(root)):
            print(f"wrote {path}")
        return 0
    report = run_analysis(root, rules=args.rules)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        for entry in report.stale_allowlist:
            print(
                f"allowlist: stale entry [{entry['rule']}] {entry['match']!r} "
                f"matches nothing (reason was: {entry['reason']})"
            )
        for package, size in report.sizes.items():
            print(f"code lines (no blanks, comments or docstrings) under {package}:")
            for relpath, lines in size["modules"].items():
                print(f"  {lines:6d}  {relpath}")
            print(f"  {size['total']:6d}  total")
        errors, warnings = len(report.errors), len(report.warnings)
        print(
            f"{len(report.rules_run)} rules: {errors} error(s), {warnings} warning(s), "
            f"{len(report.suppressed)} suppressed, {len(report.stale_allowlist)} stale "
            f"allowlist entr{'y' if len(report.stale_allowlist) == 1 else 'ies'}"
        )
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
