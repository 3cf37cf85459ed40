"""Framework mechanics: findings, allowlist, exit codes -- and the repo itself.

The last test is the one the CI ``analysis`` job repeats from the command
line: the checked-in tree must be clean under ``--strict``, so any code
change that introduces a lock-order cycle, a wire field nobody reads, an
undocumented flag, a silent ``except`` or a hot-path ``np.append`` fails
the unit suite too, not just the lint job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import run_analysis
from repro.analysis.framework import (
    AnalysisContext,
    Finding,
    Report,
    all_rules,
    apply_allowlist,
    load_allowlist,
)

from .conftest import REPO_ROOT

EXPECTED_RULES = {
    "doc-drift",
    "exception-hygiene",
    "lock-discipline",
    "numpy-hotpath",
    "unused-export",
    "wire-compat",
}


def test_all_rules_registered():
    assert {r.name for r in all_rules()} == EXPECTED_RULES


def test_finding_key_is_line_stable():
    a = Finding("r", "f.py", 10, "msg")
    b = Finding("r", "f.py", 99, "msg")
    assert a.key == b.key
    assert a.render() == "f.py:10: [r] error: msg"


def test_exit_code_semantics():
    error = Finding("r", "f.py", 1, "bad")
    warning = Finding("r", "f.py", 1, "meh", severity="warning")
    assert Report(findings=[error]).exit_code(strict=False) == 1
    assert Report(findings=[warning]).exit_code(strict=False) == 0
    assert Report(findings=[warning]).exit_code(strict=True) == 1
    assert Report(stale_allowlist=[{"rule": "r"}]).exit_code(strict=False) == 0
    assert Report(stale_allowlist=[{"rule": "r"}]).exit_code(strict=True) == 1
    assert Report().exit_code(strict=True) == 0


def test_apply_allowlist_suppresses_and_reports_stale():
    findings = [Finding("r", "f.py", 1, "spurious thing"), Finding("r", "f.py", 2, "real bug")]
    entries = [
        {"rule": "r", "match": "spurious", "reason": "argued"},
        {"rule": "r", "match": "never-matches", "reason": "rotted"},
        {"rule": "other", "match": "real bug", "reason": "wrong rule, must not match"},
    ]
    kept, suppressed, stale = apply_allowlist(findings, entries)
    assert [f.message for f in kept] == ["real bug"]
    assert [f.message for f in suppressed] == ["spurious thing"]
    assert stale == entries[1:]


def test_load_allowlist_rejects_incomplete_entries(tmp_path):
    path = tmp_path / "allowlist.json"
    path.write_text(json.dumps([{"rule": "r", "match": "x"}]))
    with pytest.raises(ValueError, match="reason"):
        load_allowlist(str(path))
    assert load_allowlist(str(tmp_path / "absent.json")) == []


def test_module_name():
    assert AnalysisContext.module_name("src/repro/engine/executor.py") == "repro.engine.executor"
    assert AnalysisContext.module_name("src/repro/analysis/__init__.py") == "repro.analysis"


def test_size_report_counts_code_not_prose(make_tree):
    root = make_tree(
        {
            "src/repro/engine/sized.py": """
            \"\"\"Module docstring,
            two lines.\"\"\"

            # a comment-only line
            BANNER = \"\"\"a literal

            # that keeps its blank and hash lines\"\"\"


            def double(value):
                \"\"\"Docstring.\"\"\"
                return (
                    # explains the next line
                    value * 2  # trailing comments ride on a code line
                )
            """,
            "src/repro/common/empty.py": "",
            "src/repro/sets/ring.py": """
            \"\"\"A domain package counts too.\"\"\"

            class RingSetSearcher:
                \"\"\"Docstring.\"\"\"

                def search(self, query):
                    return query  # one line
            """,
            "src/repro/strings/__init__.py": "from repro.strings.ring import x\n",
            "src/repro/strings/ring.py": "x = 1\n\n\n# trailing comment\n",
            "src/repro/other/ignored.py": "x = 1\n",
        }
    )
    sizes = run_analysis(root, rules=[]).sizes
    # BANNER's three lines, def, return (, value * 2, ).
    assert sizes["src/repro/engine"] == {
        "modules": {"src/repro/engine/sized.py": 7},
        "total": 7,
    }
    assert sizes["src/repro/common"] == {"modules": {"src/repro/common/empty.py": 0}, "total": 0}
    # class, def, return.
    assert sizes["src/repro/sets"] == {"modules": {"src/repro/sets/ring.py": 3}, "total": 3}
    assert sizes["src/repro/strings"] == {
        "modules": {"src/repro/strings/__init__.py": 1, "src/repro/strings/ring.py": 1},
        "total": 2,
    }
    # Packages absent from the tree report nothing; others are never read.
    assert sizes["src/repro/hamming"] == sizes["src/repro/graphs"] == {"modules": {}, "total": 0}
    # The size target's figure: engine and common together.
    assert sizes["src/repro/engine + src/repro/common"] == {"modules": {}, "total": 7}
    assert set(sizes) == {
        "src/repro/engine",
        "src/repro/common",
        "src/repro/sets",
        "src/repro/strings",
        "src/repro/hamming",
        "src/repro/graphs",
        "src/repro/engine + src/repro/common",
    }


def test_repository_is_clean_under_strict():
    report = run_analysis(str(REPO_ROOT))
    assert report.findings == []
    assert report.stale_allowlist == []
    assert report.exit_code(strict=True) == 0
    # The checked-in allowlist must actually be exercised (only argued FPs).
    assert {f.rule for f in report.suppressed} <= {"unused-export", "wire-compat"}


def test_cli_json_output_and_exit_code(make_tree):
    root = make_tree(
        {
            "pyproject.toml": "",  # anchors --root auto-detection at the fixture tree
            "src/repro/broken.py": """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
        }
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", root, "--json",
         "--rule", "exception-hygiene"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["rules_run"] == ["exception-hygiene"]
    assert len(payload["findings"]) == 1
    assert payload["findings"][0]["file"] == "src/repro/broken.py"
    assert payload["sizes"]["src/repro/engine"] == {"modules": {}, "total": 0}
