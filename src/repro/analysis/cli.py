"""Command-line interface: ``python -m repro.analysis`` / ``repro-lint``.

Exit status: 0 when no error-severity findings remain after ``noqa``
filtering, 1 when errors (or, with ``--strict``, warnings) remain, 2 on
usage errors — an unknown rule id, or a path that is neither a directory
nor an existing ``.py`` file.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.analysis.core import Severity, all_rules
from repro.analysis.engine import (UnknownRuleError, UnlintablePathError,
                                   analyze_paths)
from repro.analysis.report import render_json, render_text


def _parse_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism & observability linter for the "
                    "repro codebase")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--strict", action="store_true",
                        help="warnings also fail the run")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule_obj in all_rules():
        scope = "library" if rule_obj.library_only else "all code"
        lines.append(f"{rule_obj.id} [{rule_obj.severity.value}, {scope}] "
                     f"{rule_obj.name}: {rule_obj.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        findings, _ = analyze_paths(args.paths,
                                    select=_parse_codes(args.select),
                                    ignore=_parse_codes(args.ignore))
    except (UnknownRuleError, UnlintablePathError) as exc:
        parser.error(str(exc))  # exits 2

    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings))

    failing_severities = {Severity.ERROR, Severity.WARNING} if args.strict \
        else {Severity.ERROR}
    failing = [f for f in findings if f.severity in failing_severities]
    return 1 if failing else 0


if __name__ == "__main__":       # pragma: no cover - exercised via __main__
    raise SystemExit(main())
