"""Static analysis for the reproduction's correctness contracts.

Two tiers, one finding model (see docs/ANALYSIS.md for the rule
catalog):

* **Tier A — code linter** (:mod:`repro.analysis.codelint`): per-file
  AST rules that mechanically enforce the determinism/parallel-safety
  contract of docs/PARALLELISM.md — unseeded randomness (DET001),
  wall-clock reads in simulation paths (DET002), iteration over
  unordered sets in hot paths (DET003), unpicklable worker dispatch
  (PAR001), dtype conversions fed to the set-op kernels (DTYPE001),
  plus mutable default arguments (HYG001) and the rest of the catalog.
* **Tier B — plan verifier** (:mod:`repro.analysis.planlint`): static
  legality checks over compiled :class:`~repro.pattern.plan.ExecutionPlan`
  IR — state def-before-use, level coverage, restriction partial order
  and automorphism consistency, set-op datapath legality, ordering
  connectivity (PLAN001-PLAN006).

Both are exposed through ``python -m repro lint`` and
``python -m repro lint-plan`` and run in CI; an intentional finding
carries an inline ``# noqa: RULE`` pragma with the reason beside it.
Writes on the pool-worker paths are checked by running them, not by
lint: ``tests/parallel/test_worker_globals.py`` (docs/ANALYSIS.md,
"Worker-path state").
"""

from repro.analysis.codelint import lint_paths, lint_source
from repro.analysis.engine import ALL_RULES, Rule, rule_catalog
from repro.analysis.findings import Finding, Severity
from repro.analysis.planlint import verify_all_builtin, verify_plan
from repro.analysis.report import render_json, render_text

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "Severity",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "rule_catalog",
    "verify_all_builtin",
    "verify_plan",
]
