"""Tier C — whole-program dataflow analysis (``repro lint-flow``).

Tier A (:mod:`repro.analysis.rules`) is per-file and syntactic; it
cannot see facts that flow *across* module boundaries — a mutable
global written by a function that only *transitively* runs inside a
pool worker, or a dtype conversion two calls away from a set-op
kernel.  Tier C closes that gap:

1. :mod:`~repro.analysis.dataflow.callgraph` parses every module into
   one :class:`ProjectModel` and builds a conservative project-wide
   call graph (name/alias resolution, ``self`` dispatch through the
   class hierarchy, duck-typed method-name matching for unknown
   receivers);
2. :mod:`~repro.analysis.dataflow.facts` propagates context facts over
   that graph — *runs-in-worker* and *hot-path*;
3. :mod:`~repro.analysis.dataflow.flowrules` reports the
   interprocedural rules — RACE001/RACE002 (shared mutable state on
   worker paths) and DTYPE001 (dtype churn feeding the set-op kernels).

Findings reuse the Tier-A value model (:mod:`repro.analysis.findings`),
so ``repro lint-flow`` supports ``# noqa`` and the same text/JSON
reporters.  The runtime counterpart — the determinism sanitizer that
validates these static verdicts dynamically — lives in
:mod:`repro.sanitize`.

docs/ANALYSIS.md documents the rule catalog, the call-graph
construction, and the known soundness limits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.analysis.dataflow.callgraph import (
    FunctionInfo,
    ProjectModel,
    build_project,
)
from repro.analysis.dataflow.facts import ProjectFacts, compute_facts
from repro.analysis.dataflow.flowrules import (
    FLOW_RULES,
    FlowRule,
    flow_rule_catalog,
)
from repro.analysis.engine import iter_python_files, module_name_for
from repro.analysis.findings import Finding, sort_findings

__all__ = [
    "FLOW_RULES",
    "FlowRule",
    "FunctionInfo",
    "ProjectFacts",
    "ProjectModel",
    "analyze_project",
    "analyze_sources",
    "build_project",
    "compute_facts",
    "default_flow_root",
    "flow_rule_catalog",
    "lint_flow_paths",
]


def default_flow_root() -> Path:
    """The installed ``repro`` package tree (the default analysis
    target of ``repro lint-flow``)."""
    import repro

    return Path(repro.__file__).resolve().parent


def analyze_project(
    model: ProjectModel,
    *,
    rules: Sequence[FlowRule] | None = None,
) -> list[Finding]:
    """Run every flow rule over an already-built project model."""
    facts = compute_facts(model)
    findings: list[Finding] = []
    for rule in rules if rules is not None else flow_rule_catalog():
        findings.extend(rule.check(model, facts))
    return sort_findings(findings)


def analyze_sources(
    sources: Mapping[str, str],
    *,
    rules: Sequence[FlowRule] | None = None,
) -> list[Finding]:
    """Analyze in-memory sources (the test-fixture entry point).

    ``sources`` maps dotted module names (``"repro.hw.fake"``) to source
    text; finding paths render as ``<module>`` pseudo-paths.
    """
    model = build_project(
        {name: (f"<{name}>", text) for name, text in sources.items()}
    )
    return analyze_project(model, rules=rules)


def lint_flow_paths(
    paths: Iterable[Path | str],
    *,
    rules: Sequence[FlowRule] | None = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` as one program.

    Unlike Tier A's per-file :func:`repro.analysis.codelint.lint_paths`,
    all files are loaded into a single :class:`ProjectModel` first —
    the rules need the whole call graph.  Paths are reported relative
    to the current working directory when possible.
    """
    cwd = Path.cwd()
    modules: dict[str, tuple[str, str]] = {}
    for file in iter_python_files(Path(p) for p in paths):
        resolved = file.resolve()
        try:
            display = resolved.relative_to(cwd).as_posix()
        except ValueError:
            display = resolved.as_posix()
        module = module_name_for(resolved)
        modules[module] = (display, resolved.read_text(encoding="utf-8"))
    return analyze_project(build_project(modules), rules=rules)
