"""``dyrs-lint``: the static-analysis command line.

Examples::

    dyrs-lint src/repro                     # human output, exit 1 on findings
    dyrs-lint src/repro --format json       # machine-readable report
    dyrs-lint src/repro --format sarif      # SARIF 2.1.0 for PR annotations
    dyrs-lint src/repro --select SIM101,VT402
    dyrs-lint --list-rules

Exit codes: 0 clean, 1 findings (or unparsable files), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lint.registry import all_rules, get_rule
from repro.lint.runner import lint_paths

__all__ = ["main"]


def _list_rules() -> str:
    lines = ["Registered rules:"]
    for rule in all_rules():
        scope = ", ".join(rule.scopes) if rule.scopes else "all files"
        lines.append(f"  {rule.id}  {rule.name:24s} [{scope}]")
        lines.append(f"         {rule.description}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyrs-lint",
        description=(
            "DYRS-specific static analysis: simulator determinism, the "
            "§III record lattice, observability transparency, and "
            "virtual-time hygiene."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids/slugs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule battery and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        print("dyrs-lint: no paths given (try: dyrs-lint src/repro)", file=sys.stderr)
        return 2

    select = None
    if args.select is not None:
        select = [token.strip() for token in args.select.split(",") if token.strip()]
        unknown = [token for token in select if get_rule(token) is None]
        if unknown:
            print(f"dyrs-lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    report = lint_paths(args.paths, select=select)

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.lint.sarif import to_sarif

        print(json.dumps(to_sarif(report), indent=2, sort_keys=True))
    else:
        for error in report.errors:
            print(f"error: {error}")
        for diag in report.diagnostics:
            print(diag.render())
        summary = (
            f"{len(report.diagnostics)} finding(s) in "
            f"{report.files_checked} file(s)"
        )
        if report.suppressed:
            summary += f", {report.suppressed} suppressed"
        print(summary)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
