"""Reporters: human-readable text and machine-readable JSON.

Both render the same findings and counts, so CI log output and tooling
consumers agree on what a run saw.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.findings import Finding, Severity, sort_findings

__all__ = ["render_json", "render_text"]


def render_text(findings: Sequence[Finding]) -> str:
    """GCC-style ``path:line:col: SEVERITY RULE message`` lines."""
    lines: list[str] = []
    for f in sort_findings(findings):
        lines.append(
            f"{f.location()}: {f.severity.value} {f.rule}: {f.message}"
        )
        if f.snippet:
            lines.append(f"    {f.snippet}")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append(f"{errors} error{'' if errors == 1 else 's'}, "
                     f"{warnings} warning{'' if warnings == 1 else 's'}")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document (findings sorted, keys ordered)."""

    def encode(f: Finding) -> dict[str, object]:
        return {
            "rule": f.rule,
            "severity": f.severity.value,
            "path": f.path,
            "line": f.line,
            "col": f.col,
            "message": f.message,
            "snippet": f.snippet,
        }

    doc = {
        "findings": [encode(f) for f in sort_findings(findings)],
        "counts": {
            "errors": sum(
                1 for f in findings if f.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for f in findings if f.severity is Severity.WARNING
            ),
        },
    }
    return json.dumps(doc, indent=2)
