"""Tier-A orchestration: lint files and trees.

The CLI and CI entry points live here; rule logic lives in
:mod:`repro.analysis.rules`, file mechanics in
:mod:`repro.analysis.engine`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.engine import (
    Rule,
    iter_python_files,
    module_name_for,
    rule_catalog,
    run_rules,
)
from repro.analysis.findings import Finding, sort_findings

__all__ = ["default_lint_root", "lint_paths", "lint_source"]


def default_lint_root() -> Path:
    """The installed ``repro`` package tree (what ``repro lint`` checks
    when no path is given)."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str = "repro._snippet",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one source string (the test-fixture entry point).

    ``module`` controls rule scoping — pass e.g. ``"repro.mining.x"`` to
    exercise hot-path rules on a snippet.
    """
    return run_rules(source, path, module, rules or rule_catalog())


def lint_paths(
    paths: Iterable[Path | str],
    *,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Paths are reported relative to the current working directory when
    possible.
    """
    rules = list(rules or rule_catalog())
    cwd = Path.cwd()
    findings: list[Finding] = []
    for file in iter_python_files(Path(p) for p in paths):
        resolved = file.resolve()
        try:
            display = resolved.relative_to(cwd).as_posix()
        except ValueError:
            display = resolved.as_posix()
        source = resolved.read_text(encoding="utf-8")
        findings.extend(
            run_rules(source, display, module_name_for(resolved), rules)
        )
    return sort_findings(findings)
