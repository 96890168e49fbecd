"""The finding/severity model shared by every analysis tier.

A :class:`Finding` is one rule violation at one location.  Findings are
value objects: sortable (report order) and hashable.  The one way to
accept a finding is an inline ``# noqa: RULE`` pragma with a reason
(:meth:`repro.analysis.engine.ModuleContext.suppressed`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break a documented contract (determinism, cache
    validity, plan legality) and fail the lint run; ``WARNING`` findings
    are hygiene issues that still fail CI but signal style-adjacent
    hazards rather than observable misbehavior.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source (or plan) location.

    Attributes
    ----------
    rule:
        Rule identifier (``DET001``, ``PLAN003``, ...).
    severity:
        :class:`Severity` of the rule.
    path:
        File path for code findings; ``<plan:NAME>`` for plan findings.
    line:
        1-based source line, or the plan level for plan findings.
    col:
        0-based column (0 for plan findings).
    message:
        Human-readable description of the violation.
    snippet:
        Stripped text of the offending source line (empty for plan
        findings); the text reporter prints it under the finding.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    snippet: str = field(default="", compare=False)

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Findings in stable report order (path, line, col, rule)."""
    return sorted(findings, key=Finding.sort_key)

