"""Run a paper experiment's sweep specs and look up its rows.

Every simulator-backed ``repro bench`` experiment is one or more
:func:`repro.experiments.load_spec` dicts kept beside its renderer,
which renders from the rows of the store run ``paper-<name>`` alone.
A warm rerun resumes every cell (no simulator call, no new row);
``--no-cache`` (``configure(disk_cache=False)``) replaces the run; a
failing cell raises :class:`repro.errors.CellFailed` naming it, and a
cell whose latest row is a failure is retried.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.bench.runner import disk_cache_enabled
from repro.experiments.spec import DEFAULT_POLICY, Cell, load_spec
from repro.experiments.store import ResultRow, ResultStore

__all__ = ["run_paper", "speedup", "sweep_spec"]


def run_paper(name: str, *specs: Mapping) -> Callable[..., ResultRow]:
    """Run ``specs`` into the results store's run ``paper-<name>`` and
    return ``row(pattern, graph, backend, policy="default",
    schedule="dynamic")``, the latest row of one of their cells."""
    # Imported here: the executor imports this package's runner.
    from repro.experiments.executor import run_sweep

    store = ResultStore()
    run = f"paper-{name}"
    fresh = not disk_cache_enabled()
    if fresh:
        store.delete(run)
    # The run file is read once; each sweep's new rows are appended to
    # it and to ``rows`` alike, so a cell that several specs share is
    # written once, fresh run or not.
    rows = [] if fresh else store.load(run, missing_ok=True)
    keys: dict[Cell, str] = {}
    for data in specs:
        outcome = run_sweep(
            load_spec(data), store=store, run=run, isolate=False,
            retry_failed=True, prior_rows=rows,
        )
        keys.update(outcome.keys)
        rows.extend(outcome.rows)
    latest = {row.cell_key: row for row in rows}

    def row(pattern, graph, backend, policy=DEFAULT_POLICY,
            schedule="dynamic") -> ResultRow:
        cell = Cell(pattern, graph, backend, policy, schedule=schedule)
        return latest[keys[cell]]

    return row


def speedup(ours: ResultRow, baseline: ResultRow) -> float:
    """``baseline.cycles / ours.cycles``, refusing rows whose functional
    results differ (the check of :meth:`RunResult.speedup_over`)."""
    if tuple(ours.counts) != tuple(baseline.counts):
        raise ValueError(
            "refusing to compare runs with different functional results: "
            f"{baseline.counts} vs {ours.counts}"
        )
    return baseline.cycles / ours.cycles


def sweep_spec(name, patterns, graphs, configs, **sweep) -> dict:
    """The :func:`load_spec` dict of one sweep into ``paper-<name>``:
    ``configs`` maps each swept backend to its config entry (one table
    or a list of named tables); ``sweep`` adds ``[sweep]`` keys."""
    return {
        "sweep": {
            "name": f"paper-{name}",
            "patterns": list(patterns),
            "graphs": list(graphs),
            "backends": list(configs),
            **sweep,
        },
        "configs": configs,
    }
