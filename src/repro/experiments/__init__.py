"""Experiment orchestration: declarative sweeps, a provenance-carrying
result store, and regression-checked reports.

This package turns "run the benchmarks and eyeball the text files" into
a closed loop (docs/BENCHMARKS.md):

1. **Describe** a sweep declaratively — patterns × graphs × backends ×
   config variants × schedules × jobs — in
   TOML/JSON/dict form, validated by :func:`load_spec` into a
   deterministic run matrix.
2. **Execute** it resumably with :func:`run_sweep`: every cell goes
   through the same cached-runner path as the paper figures, cells
   already in the store are skipped by cache identity, and each row
   records wall time, dispatch counters, and full provenance (git hash,
   config signature, host, versions, timestamp).
3. **Report** with :func:`write_report` (markdown + HTML) and **guard**
   with :func:`diff_runs`, which compares a run against a named
   baseline and yields a nonzero exit code on regression.

CLI surface: ``repro exp run/report/diff/list`` and
``make bench-sweep``.  Typical library use::

    from repro.experiments import ResultStore, load_spec, run_sweep

    spec = load_spec({"sweep": {"name": "smoke", "patterns": ["tc"],
                                "graphs": ["As"],
                                "backends": ["functional", "fingers"]}})
    outcome = run_sweep(spec, store=ResultStore())
    print(outcome.executed, outcome.resumed)
"""

from repro.experiments.executor import SweepOutcome, run_sweep
from repro.experiments.regress import DiffReport, Finding, diff_runs
from repro.experiments.report import (
    render_html,
    render_markdown,
    render_text,
    write_report,
)
from repro.experiments.spec import (
    Cell,
    SpecError,
    SweepSpec,
    load_spec,
    load_spec_file,
)
from repro.experiments.store import (
    STORE_SCHEMA_VERSION,
    ResultRow,
    ResultStore,
)

__all__ = [
    "Cell",
    "DiffReport",
    "Finding",
    "ResultRow",
    "ResultStore",
    "SpecError",
    "SweepOutcome",
    "SweepSpec",
    "diff_runs",
    "load_spec",
    "load_spec_file",
    "render_html",
    "render_markdown",
    "render_text",
    "run_sweep",
    "write_report",
]
