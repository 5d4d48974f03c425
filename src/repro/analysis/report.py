"""Reporters: render findings for humans (text) or tooling (JSON)."""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from repro.analysis.core import Finding, Severity


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    by_severity = Counter(f.severity for f in findings)
    return {
        "total": len(findings),
        "errors": by_severity.get(Severity.ERROR, 0),
        "warnings": by_severity.get(Severity.WARNING, 0),
    }


def render_text(findings: Sequence[Finding]) -> str:
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1} "
                     f"{finding.rule} {finding.severity.value}: "
                     f"{finding.message}")
    summary = summarize(findings)
    lines.append(
        f"{summary['total']} finding(s): {summary['errors']} error(s), "
        f"{summary['warnings']} warning(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "version": 1,
        "summary": summarize(findings),
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
