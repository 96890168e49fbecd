"""Rule engine for the AST code linter (Tier A).

A :class:`Rule` owns an identifier, a severity, a one-line description,
and a *scope* — the dotted-module prefixes it applies to (empty scope =
every module).  The engine parses each file once, builds a
:class:`ModuleContext` (module name, source lines, ``noqa`` pragmas)
and hands the same tree to every in-scope rule.

A finding is suppressed by a ``# noqa: RULEID`` comment on the
offending line, with the reason after it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.analysis.findings import Finding, Severity, sort_findings

__all__ = [
    "ALL_RULES",
    "ModuleContext",
    "Rule",
    "register",
    "rule_catalog",
    "run_rules",
]


_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class Rule:
    """One lint rule: metadata plus a checker callable.

    ``check(tree, ctx)`` yields findings; it runs only when ``ctx.module``
    matches ``scope`` (any dotted prefix; empty tuple = everywhere).
    """

    id: str
    severity: Severity
    summary: str
    scope: tuple[str, ...]
    check: Callable[[ast.Module, "ModuleContext"], Iterable[Finding]]

    def applies_to(self, module: str) -> bool:
        if not self.scope:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )


#: Registry of every known rule, in registration (catalog) order.
ALL_RULES: list[Rule] = []


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the global registry (duplicate ids rejected)."""
    if any(r.id == rule.id for r in ALL_RULES):
        raise ValueError(f"duplicate rule id {rule.id!r}")
    ALL_RULES.append(rule)
    return rule


def rule_catalog() -> list[Rule]:
    """All registered rules (importing the rules module on demand)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return list(ALL_RULES)


class ModuleContext:
    """Per-file state shared by every rule checking that file."""

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines: list[str] = source.splitlines()

    # ------------------------------------------------------------------

    def snippet(self, line: int) -> str:
        """Stripped text of 1-based source line (empty if out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether the line carries a ``# noqa`` pragma covering the rule."""
        text = self.lines[line - 1] if 1 <= line <= len(self.lines) else ""
        m = _NOQA_RE.search(text)
        if not m:
            return False
        codes = m.group("codes")
        if codes is None:
            return True  # blanket noqa
        return rule_id.upper() in {c.strip().upper() for c in codes.split(",")}

    def finding(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
    ) -> Finding | None:
        """Build a finding at ``node``, honoring inline suppression."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressed(line, rule.id):
            return None
        return Finding(
            rule=rule.id,
            severity=rule.severity,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
        )


def module_name_for(path: Path) -> str:
    """Dotted module name, anchored at the ``repro`` package when present.

    Files outside a ``repro`` package tree lint under their stem (all
    unscoped rules still apply; scoped rules skip them unless the caller
    supplies an explicit module name).
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.stem]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def run_rules(
    source: str,
    path: str,
    module: str,
    rules: Sequence[Rule],
) -> list[Finding]:
    """Lint one unit of source text with every in-scope rule."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="SYNTAX",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                snippet="",
            )
        ]
    ctx = ModuleContext(path=path, module=module, source=source)
    findings: list[Finding] = []
    for rule in rules:
        if rule.applies_to(module):
            findings.extend(rule.check(tree, ctx))
    return sort_findings(findings)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into sorted ``.py`` file paths.

    Raises :class:`FileNotFoundError` for a path that is neither a
    directory nor a ``.py`` file, so a mistyped target fails instead of
    linting nothing.
    """
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py" and path.is_file():
            yield path
        else:
            raise FileNotFoundError(
                f"not a directory or .py file: {path}"
            )
