"""CLI behavior: output formats, exit codes, selection, self-hosting."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.registry import all_rules

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

ALL_RULE_IDS = [rule.id for rule in all_rules()]


def test_json_output_schema(capsys):
    code = main(["--format", "json", str(FIXTURES / "sim" / "wall_clock.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["tool"] == "dyrs-lint"
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["errors"] == []
    assert payload["summary"]["total"] == len(payload["diagnostics"]) == 2
    assert payload["summary"]["by_rule"] == {"SIM101": 2}
    for diag in payload["diagnostics"]:
        assert set(diag) == {
            "path",
            "line",
            "col",
            "rule",
            "rule_name",
            "message",
            "hint",
        }
        assert diag["rule"] == "SIM101"
        assert diag["hint"]


def test_human_output_and_summary_line(capsys):
    code = main([str(FIXTURES / "sim" / "heapq_outside.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "VT402(heapq-outside-engine)" in out
    assert "2 finding(s) in 1 file(s)" in out


def test_clean_file_exits_zero(capsys):
    code = main([str(FIXTURES / "sim" / "suppressed.py")])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 suppressed" in out


def test_select_restricts_rules(capsys):
    code = main(
        ["--select", "SIM103", str(FIXTURES / "sim" / "wall_clock.py")]
    )
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_unknown_rule_is_a_usage_error(capsys):
    assert main(["--select", "NOPE999", str(FIXTURES)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_no_paths_is_a_usage_error(capsys):
    assert main([]) == 2


def test_list_rules_names_the_whole_battery(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_self_hosting_src_repro_is_clean():
    # The acceptance gate: the shipped tree passes its own analysis
    # (intentional exceptions carry justified suppressions).
    report = lint_paths([REPO / "src" / "repro"])
    assert report.errors == []
    assert report.diagnostics == [], "\n".join(
        d.render() for d in report.diagnostics
    )
    assert report.files_checked > 80
    assert report.suppressed >= 4


def test_package_import_registers_every_rule():
    """A fresh interpreter that imports only ``repro.lint`` gets the
    whole battery, so no caller depends on another module having
    imported the rules first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.lint import all_rules; print(*(r.id for r in all_rules()))",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "CFG601",
        "OBS301",
        "OBS302",
        "SIM101",
        "SIM102",
        "SIM103",
        "SIM501",
        "SIM502",
        "SIM503",
        "SM201",
        "SM203",
        "VT401",
        "VT402",
    ]


def test_console_entry_point_runs_as_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint.cli",
            "--format",
            "json",
            str(REPO / "src" / "repro"),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
