"""Resumable sweep executor.

Drives every cell of an expanded sweep through the registry's cached
runner (:func:`repro.bench.runner.run_backend_cached`) — the exact same
code path as ``repro bench`` and the single-run CLI — and
appends one :class:`~repro.experiments.store.ResultRow` per executed
cell.  Resumption is keyed on :meth:`Backend.cache_key` plus the
cell's ``jobs`` (:attr:`ResultRow.cell_id`): a cell whose full cache
identity (graph contents, config signature, schedule, roots, execution
model) and worker count already have a row in the target run is skipped
without touching the simulator, so re-running a finished sweep performs
zero recomputation.  The worker count is not part of the result key:
cells that differ only in ``jobs`` each get a row, and the later ones
are memo or disk hits of the first.

Each row records two layers of observability alongside the result:
wall time plus the run-cache hit/miss deltas for the cell, and — for
functional cells — the set-op kernel dispatch-counter deltas
(docs/KERNELS.md).  This module sits outside the simulation packages,
so reading the host clock here is deliberate and lint-clean; modelled
``cycles`` never depend on it.

Failure isolation (docs/RESILIENCE.md): by default a cell that raises
does not abort the sweep — the exception becomes a structured
``status="failed"`` row (type, message, traceback digest, attempt
count, provenance) and the remaining cells keep running.
``retry_failed=True`` (CLI: ``repro exp run --retry-failed``) resumes a
run by re-executing only the cells whose *latest* row is a failure;
everything that succeeded stays resumed.  Sanitizer divergence
(:class:`repro.sanitize.SanitizerError`) is never isolated — a
determinism violation poisons the whole run, not one cell.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable, Mapping, Sequence

from repro import sanitize as _sanitize
from repro.bench.runner import default_jobs, run_backend_cached, runner_stats
from repro.bench.workloads import roots_for
from repro.core.backend import Backend, config_signature, get_backend
from repro.core.provenance import environment_provenance
from repro.errors import CellFailed
from repro.experiments.spec import Cell, SweepSpec
from repro.experiments.store import ResultRow, ResultStore
from repro.graph.datasets import load_dataset
from repro.parallel import pool as _pool
from repro.resilience import faults
from repro.setops.kernels import kernel_counters

__all__ = ["SweepOutcome", "run_sweep", "sanitized_cell_check"]


@dataclass(frozen=True)
class SweepOutcome:
    """What one :func:`run_sweep` call did.

    ``executed`` counts successful cell measurements; ``failed`` counts
    cells isolated into failure rows (both appear in ``rows``).
    ``keys`` maps every cell of the spec, as expanded, to the cache
    identity it ran (or resumed) under: the ``cell_key`` of its row.
    """

    run: str
    executed: int
    resumed: int
    rows: tuple[ResultRow, ...]
    failed: int = 0
    keys: Mapping[Cell, str] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.executed + self.resumed + self.failed


def _counter_delta(before: Mapping[str, int], after: Mapping[str, int]):
    delta = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }
    return delta


def sanitized_cell_check(
    backend: Backend,
    graph: object,
    cell: Cell,
    config: object,
    roots,
    memory=None,
) -> None:
    """Run one cell twice with sanitizer probes armed and compare.

    Both executions call ``backend.run`` directly — deliberately
    *bypassing* the memo/disk caches: a cached second run would record
    zero kernel events and trivially "match".  Raises
    :class:`repro.sanitize.SanitizerError` on any trace divergence or
    result mismatch.
    """
    traces: list[_sanitize.Trace] = []
    results = []
    for _ in range(2):
        with _sanitize.capture() as trace:
            results.append(
                backend.run(
                    graph, cell.pattern, config, memory=memory,
                    roots=roots, schedule=cell.schedule, jobs=cell.jobs,
                )
            )
        traces.append(trace)
    problems = _sanitize.compare_traces(traces[0], traces[1])
    first, second = results
    if (
        first.count != second.count
        or tuple(first.counts) != tuple(second.counts)
        or first.cycles != second.cycles
    ):
        problems.append(
            "results differ: count {} vs {}, cycles {} vs {}".format(
                first.count, second.count, first.cycles, second.cycles
            )
        )
    if problems:
        raise _sanitize.SanitizerError(
            "sanitized double-run of cell ({}, {}, {}) diverged:\n  ".format(
                cell.pattern, cell.graph, cell.backend
            )
            + "\n  ".join(problems)
        )


def _stamped(provenance: Mapping) -> dict:
    """``provenance`` plus the UTC timestamp of this row."""
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {**provenance, "timestamp": now}


def _error_record(exc: BaseException, attempt: int) -> dict:
    """The structured ``error`` column of a failure row.

    The full traceback is reduced to a digest: enough to tell two
    distinct failures apart (and to match a known one) without writing
    machine-specific paths into a store that is diffed in git.
    """
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return {
        "type": type(exc).__name__,
        "message": str(exc)[:500],
        "traceback_digest": hashlib.sha256(tb.encode("utf-8")).hexdigest()[
            :16
        ],
        "attempt": attempt,
    }


@_pool.pool_scope()
def run_sweep(
    spec: SweepSpec,
    *,
    store: ResultStore | None = None,
    run: str | None = None,
    resume: bool = True,
    disk: bool | None = None,
    graphs: Mapping[str, object] | None = None,
    progress: Callable[[Cell, str], None] | None = None,
    sanitize: bool | None = None,
    isolate: bool = True,
    retry_failed: bool = False,
    prior_rows: Sequence[ResultRow] | None = None,
) -> SweepOutcome:
    """Execute every cell of ``spec`` into ``store`` under run ``run``
    (default: the spec's name).

    ``resume=True`` (the default) skips cells whose cache identity and
    ``jobs`` are already in the run.  ``disk`` is forwarded to the
    cached runner (``None`` = the process-wide
    :func:`repro.bench.runner.configure` setting).  ``graphs`` maps
    graph names to preloaded/synthetic
    :class:`~repro.graph.csr.CSRGraph` objects, bypassing the dataset
    catalog — used by tests and library callers.  ``progress`` receives
    ``(cell, "run" | "resume" | "fail")`` per cell.

    ``sanitize`` arms the runtime determinism sanitizer
    (:mod:`repro.sanitize`): every *executed* cell is first run twice,
    uncached, and the two probe traces must be bit-identical.  ``None``
    defers to the ``REPRO_SANITIZE`` environment variable.  Resumed
    cells are not re-checked.

    ``isolate=True`` (the default) converts a failing cell into a
    structured failure row instead of aborting the sweep;
    ``isolate=False`` raises :class:`repro.errors.CellFailed` at the
    first failing cell.  ``retry_failed=True`` narrows resumption: only
    cells whose latest row is ``"failed"`` are re-executed (successful
    cells stay resumed).  A sanitizer divergence always propagates —
    isolation is for execution failures, not determinism violations.

    ``prior_rows`` are the run's rows when the caller has read them
    already; by default a resuming sweep reads the run once.

    Every sharded cell runs on one worker pool
    (:func:`repro.parallel.pool.pool_scope`), shut down when the sweep
    returns or raises.
    """
    store = store if store is not None else ResultStore()
    sanitizing = sanitize if sanitize is not None else _sanitize.env_enabled()
    run_name = run or spec.name
    cells = spec.expand()
    seen: set[tuple[str, int | None]] = set()
    prior_failures: dict[tuple[str, int | None], int] = {}
    if resume:
        if prior_rows is None:
            prior_rows = store.load(run_name, missing_ok=True)
        statuses = store.statuses(run_name, prior_rows)
        if retry_failed:
            seen = {k for k, s in statuses.items() if s == "ok"}
        else:
            seen = set(statuses)
        prior_failures = store.failure_counts(run_name, prior_rows)
    shared_provenance = environment_provenance()

    loaded: dict[str, object] = dict(graphs or {})
    executed = 0
    resumed = 0
    failed = 0
    rows: list[ResultRow] = []
    keys: dict[Cell, str] = {}
    for spec_cell in cells:
        # jobs=0 in a spec runs the process default model (configure's
        # jobs), so resolve it: the row and its key name what runs.
        cell = spec_cell
        if cell.jobs is None and default_jobs() is not None:
            cell = replace(cell, jobs=default_jobs())
        if cell.graph not in loaded:
            loaded[cell.graph] = load_dataset(cell.graph)
        graph = loaded[cell.graph]
        backend = get_backend(cell.backend)
        config = spec.config_for(cell)
        memory = spec.memory_for(cell)
        signature = config_signature(config)
        if memory is not None:
            signature += " + " + config_signature(memory)
        roots = roots_for(cell.graph, graph)
        cell_key = backend.cache_key(
            graph, cell.pattern, config,
            memory=memory, roots=roots, schedule=cell.schedule,
            jobs=cell.jobs,
        )
        keys[spec_cell] = cell_key
        identity = dict(
            run=run_name, cell_key=cell_key, pattern=cell.pattern,
            graph=cell.graph, backend=cell.backend, policy=cell.policy,
            jobs=cell.jobs, schedule=cell.schedule, config_signature=signature,
        )
        # Cells differing only in ``jobs`` share a sharded key but are
        # distinct cells: resume on the row's cell_id, not the key.
        cell_id = (cell_key, cell.jobs)
        if cell_id in seen:
            resumed += 1
            if progress is not None:
                progress(cell, "resume")
            continue

        # Prior failed rows drive the fault attempt counter, so an
        # injected transient:cell fault clears on a later
        # --retry-failed pass while fail:cell stays permanent.
        attempt = prior_failures.get(cell_id, 0)
        stats_before = runner_stats()
        kernels_before = kernel_counters()
        retry_before = _pool.retry_stats()
        # Presence-only probe: a clock read *inside* a sanitized capture
        # means measurement code leaked onto a simulated path.
        _sanitize.emit_clock("experiments.executor.run_sweep")
        start = time.perf_counter()
        try:
            if faults.plan_active():
                faults.inject("cell", cell_key, attempt)
            if sanitizing:
                sanitized_cell_check(
                    backend, graph, cell, config, roots, memory=memory
                )
            result = run_backend_cached(
                backend, graph, cell.graph, cell.pattern, config,
                memory=memory, roots=roots, schedule=cell.schedule,
                jobs=cell.jobs, disk=disk,
            )
        except _sanitize.SanitizerError:
            # Determinism violations poison the run; never isolate.
            raise
        except Exception as exc:
            if not isolate:
                raise CellFailed(cell.label, attempts=attempt + 1) from exc
            row = ResultRow(
                **identity,
                wall_time_s=time.perf_counter() - start,
                status="failed",
                error=_error_record(exc, attempt + 1),
                provenance=_stamped(shared_provenance),
            )
            prior_failures[cell_id] = attempt + 1
            failed += 1
        else:
            wall_time = time.perf_counter() - start
            stats_after = runner_stats()
            retry_delta = _pool.retry_stats().delta(retry_before)
            row = ResultRow(
                **identity,
                workload=result.workload,
                count=result.count,
                counts=tuple(int(c) for c in result.counts),
                cycles=float(result.cycles),
                wall_time_s=wall_time,
                extras=backend.extras(result, config),
                retry=retry_delta.as_dict() if retry_delta.recovered else {},
                dispatch=_counter_delta(kernels_before, kernel_counters()),
                cache={
                    name: getattr(stats_after, name) - getattr(stats_before, name)
                    for name in ("memo_hits", "disk_hits", "simulate_calls")
                },
                provenance=_stamped(shared_provenance),
            )
            executed += 1
        store.append(row)
        seen.add(cell_id)
        rows.append(row)
        if progress is not None:
            progress(cell, "run" if row.ok else "fail")
    return SweepOutcome(
        run=run_name, executed=executed, resumed=resumed, rows=tuple(rows),
        failed=failed, keys=keys,
    )
