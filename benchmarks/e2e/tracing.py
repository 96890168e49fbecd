"""Outside-in tracing of the ``repro`` layers, from the benchmark's files.

:func:`traced` wraps the public functions of each layer at runtime —
wherever a module looks the name up — and restores every original on
exit, so nothing under ``src/`` changes.  Layer entry points (listed
with ``span=True`` in :data:`TARGETS`) record one span each; hot leaf
calls are aggregated per job as a call count, total time and child
time.  Self time is a call's duration minus the time covered by the
wrapped calls nested inside it.

Only the process that installed the wrappers is traced.  Pool workers
forked during a traced run inherit the wrappers, which step aside in a
forked child, so the tracing process sees a sharded call as one span that
includes the wait for its workers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

_MARK = "__e2e_original__"

#: Set in a child forked from this process; wrappers then call straight
#: through, since nothing a child records would reach the tracer.
_forked = False


def _mark_forked() -> None:
    global _forked
    _forked = True


os.register_at_fork(after_in_child=_mark_forked)


class Tracer:
    """In-memory spans and per-job aggregates.

    Every wrapped call opens a frame.  On exit its duration is charged
    to its parent frame's child time, so ``total - child`` is the
    call's self time.  ``outer`` sums durations of calls not nested in
    another call of the same group, which keeps inclusive time exact
    for recursive layers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.job = "setup"
        self.spans: list[dict[str, Any]] = []
        self.totals: dict[tuple[str, str], list[float]] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self._stack: list[list[Any]] = []
        self._open: dict[str, int] = {}

    def enter(self, group: str, span: bool) -> list[Any]:
        parent = next(
            (f[3] for f in reversed(self._stack) if f[3] is not None), None
        )
        span_id = len(self.spans) if span else None
        if span:
            self.spans.append({})  # reserve the id; filled on exit
        outermost = self._open.get(group, 0) == 0
        self._open[group] = self._open.get(group, 0) + 1
        frame = [group, self.clock(), 0.0, span_id, parent, outermost]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list[Any]) -> None:
        end = self.clock()
        group, start, child, span_id, parent, outermost = frame
        popped = self._stack.pop()
        assert popped is frame, "unbalanced trace frames"
        self._open[group] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        acc = self.totals.setdefault((self.job, group), [0, 0.0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += duration
        acc[2] += child
        if outermost:
            acc[3] += duration
        if span_id is not None:
            self.spans[span_id] = {
                "id": span_id, "parent": parent, "name": group,
                "job": self.job, "start": start, "end": end,
                "self": duration - child,
            }

    def count(self, name: str, n: float = 1) -> None:
        key = (self.job, name)
        self.counters[key] = self.counters.get(key, 0) + n

    @contextlib.contextmanager
    def job_span(self, job_id: str) -> Iterator[None]:
        """One span per job sample; everything inside carries its id."""
        previous = self.job
        self.job = job_id
        frame = self.enter("job", True)
        try:
            yield
        finally:
            self.exit(frame)
            self.job = previous

    # -- views ----------------------------------------------------------

    def calls(self, group: str, jobs: set[str]) -> float:
        return sum(v[0] for (j, g), v in self.totals.items()
                   if g == group and j in jobs)

    def self_s(self, group: str, jobs: set[str]) -> float:
        return sum(v[1] - v[2] for (j, g), v in self.totals.items()
                   if g == group and j in jobs)

    def inclusive_s(self, group: str, jobs: set[str]) -> float:
        return sum(v[3] for (j, g), v in self.totals.items()
                   if g == group and j in jobs)

    def counter(self, name: str, jobs: set[str]) -> float:
        return sum(v for (j, c), v in self.counters.items()
                   if c == name and j in jobs)

    def self_time_excess(self) -> dict[str, float]:
        """Per job: summed self time of everything inside it minus the
        job span's duration (positive only if the arithmetic is wrong)."""
        inside: dict[str, float] = {}
        for (job, group), v in self.totals.items():
            if group != "job":
                inside[job] = inside.get(job, 0.0) + v[1] - v[2]
        return {
            s["job"]: inside.get(s["job"], 0.0) - (s["end"] - s["start"])
            for s in self.spans if s.get("name") == "job"
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "aggregates": [
                {"job": j, "name": g, "calls": v[0], "total_s": v[1],
                 "child_s": v[2]}
                for (j, g), v in sorted(self.totals.items())
            ],
            "counters": [
                {"job": j, "name": c, "value": v}
                for (j, c), v in sorted(self.counters.items())
            ],
        }


# ----------------------------------------------------------------------
# What to wrap
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` may be ``Class.method``.

    ``after(tracer, args, kwargs, result, before)`` adds counters;
    ``before(args, kwargs)`` captures state ahead of the call for it.
    """

    module: str
    attr: str
    group: str
    span: bool = False
    after: Callable[..., None] | None = None
    before: Callable[..., Any] | None = None


def _apply_op_elements(t, args, kwargs, out, _):
    source = args[2]
    t.count("setops.apply_op_elements",
            (source.size if source is not None else 0) + args[3].size)


def _segmented_values(t, args, kwargs, out, _):
    t.count("setops.segmented.values_in", args[0].total)
    t.count("setops.segmented.values_out", out.total)


def _iu_items(t, args, kwargs, out, _):
    t.count("hw.iu_work_items", out.num_items)


def _cache_hit(t, args, kwargs, out, _):
    t.count("hw.cache_hits", int(out))


def _shards(t, args, kwargs, out, _):
    t.count("parallel.shards", len(args[2]))


def _disk_hit(t, args, kwargs, out, _):
    t.count("cache.hits" if out[0] else "cache.misses")


def _write_failures_before(args, kwargs):
    return args[0].counters.write_failures


def _write_failures(t, args, kwargs, out, before):
    t.count("cache.write_failures",
            args[0].counters.write_failures - before)


_SEG = "repro.setops.segmented"
_GEN = "repro.graph.generators"

TARGETS = (
    # inputs
    Target(_GEN, "erdos_renyi", "graph.build", True),
    Target(_GEN, "barabasi_albert", "graph.build", True),
    Target(_GEN, "rmat", "graph.build", True),
    Target(_GEN, "planted_cliques", "graph.build", True),
    Target("repro.graph.builders", "from_edges", "graph.build", True),
    Target("repro.graph.builders", "relabel_by_degree", "graph.build", True),
    # functional counting
    Target("repro.mining.engine", "count_embeddings", "mining.count", True),
    Target("repro.mining.engine", "count_multi", "mining.count", True),
    Target("repro.mining.api", "motif_census", "mining.count", True),
    Target(_SEG, "gather_neighbors", "setops.segmented.gather"),
    Target(_SEG, "intersect_neighbors", "setops.segmented.intersect",
           after=_segmented_values),
    Target(_SEG, "subtract_neighbors", "setops.segmented.subtract",
           after=_segmented_values),
    Target(_SEG, "neighbor_membership", "setops.segmented.membership"),
    Target(_SEG, "compress", "setops.segmented.compress"),
    Target("repro.pattern.compiler", "compile_plan", "pattern.compile", True),
    Target("repro.pattern.multipattern", "compile_multi_plan",
           "pattern.compile", True),
    # cycle models
    Target("repro.core.backend", "Backend.run", "core.run", True),
    Target("repro.core.result", "merge_run_results", "core.merge", True),
    Target("repro.hw.chip", "run_chip", "hw.chip", True),
    Target("repro.hw.pe", "FingersPE.step", "hw.pe_step.fingers"),
    Target("repro.hw.flexminer", "FlexMinerPE.step", "hw.pe_step.flexminer"),
    Target("repro.hw.iu", "time_task_ops", "hw.iu", after=_iu_items),
    Target("repro.hw.cache", "SectoredLRUCache.access", "hw.cache_access",
           after=_cache_hit),
    Target("repro.hw.memory", "DRAMModel.access", "hw.dram"),
    Target("repro.hw.noc", "NoCModel.transfer", "hw.noc"),
    Target("repro.setops.kernels", "KernelContext.apply_op",
           "setops.apply_op", after=_apply_op_elements),
    Target("repro.mining.engine", "filtered_candidates",
           "mining.filtered_candidates"),
    # sweeps, shards, caches, store
    Target("repro.parallel.pool", "run_shards", "parallel.run_shards", True,
           after=_shards),
    Target("repro.cache", "DiskCache.get", "cache.get", True,
           after=_disk_hit),
    Target("repro.cache", "DiskCache.put", "cache.put", True,
           after=_write_failures, before=_write_failures_before),
    Target("repro.bench.runner", "run_backend_cached", "bench.run_cached",
           True),
    Target("repro.core.backend", "Backend.cache_key",
           "experiments.cache_key"),
    Target("repro.experiments.executor", "run_sweep",
           "experiments.run_sweep", True),
    Target("repro.experiments.store", "ResultStore.append",
           "experiments.store_append", True),
    Target("repro.experiments.store", "ResultStore.statuses",
           "experiments.store_read", True),
    Target("repro.experiments.store", "ResultStore.failure_counts",
           "experiments.store_read", True),
    Target("repro.core.provenance", "environment_provenance",
           "experiments.provenance", True),
)

#: Modules that bind a target name by ``from ... import``; imported up
#: front so none of them first binds a wrapper while tracing is on.
_BINDERS = (
    "repro", "repro.mining", "repro.pattern", "repro.hw", "repro.hw.api",
    "repro.core", "repro.core.backends", "repro.core.sharded",
    "repro.core.workload", "repro.bench.runner", "repro.experiments",
    "repro.parallel",
)


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    group, span, after, before = (
        target.group, target.span, target.after, target.before
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _forked:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        frame = tracer.enter(group, span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, kwargs, out, state)
        return out

    setattr(wrapper, _MARK, fn)
    return wrapper


def _repro_modules() -> list[Any]:
    return [m for name, m in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m]


def installed_wrappers() -> list[str]:
    """Every ``module.name`` or ``module.Class.name`` still bound to a
    wrapper (empty once :func:`traced` has exited)."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if hasattr(member, _MARK):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every :data:`TARGETS` wrapper; restore them all on exit."""
    for name in _BINDERS + tuple(t.module for t in TARGETS):
        importlib.import_module(name)
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            module = sys.modules[target.module]
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, target, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, target, original)
            # Patch the name wherever it is looked up, including
            # ``from ... import`` copies in other repro modules.
            for other in _repro_modules():
                if vars(other).get(attr) is original:
                    undo.append((other, attr, original))
                    setattr(other, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
