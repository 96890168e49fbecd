"""Workload normalization shared by every backend.

A *workload* names the functional job: a benchmark pattern name
(including the multi-pattern ``"3mc"`` census, and ``"<name>:edge"`` for
a pattern's edge-induced plan, e.g. ``"tt:edge"``), a :class:`Pattern`, a
pre-compiled :class:`ExecutionPlan`, or a :class:`MultiPlan`.  Backends
only ever see the normalized ``(name, plans, per-plan names)`` triple,
so every execution path — chip, software, functional — interprets
workload specs identically.
"""

from __future__ import annotations

from typing import Union

from repro.pattern.compiler import compile_plan
from repro.pattern.multipattern import MultiPlan, compile_multi_plan, motif_patterns
from repro.pattern.pattern import Pattern, named_pattern
from repro.pattern.plan import ExecutionPlan

__all__ = ["Workload", "resolve_workload"]

Workload = Union[str, Pattern, ExecutionPlan, MultiPlan]


def resolve_workload(
    workload: Workload,
) -> tuple[str, list[ExecutionPlan], tuple[str, ...]]:
    """Normalize any workload spec to (name, plans, per-plan names)."""
    if isinstance(workload, MultiPlan):
        return "+".join(workload.names), list(workload.plans), workload.names
    if isinstance(workload, ExecutionPlan):
        name = f"plan(k={workload.num_levels})"
        return name, [workload], (name,)
    if isinstance(workload, Pattern):
        name = f"pattern(k={workload.num_vertices})"
        return name, [compile_plan(workload)], (name,)
    if isinstance(workload, str):
        if workload == "3mc":
            patterns, names = motif_patterns(3)
            multi = compile_multi_plan(patterns, names=names)
            return "3mc", list(multi.plans), tuple(names)
        base, _, mode = workload.partition(":")
        if mode == "edge":
            plan = compile_plan(named_pattern(base), vertex_induced=False)
            return workload, [plan], (workload,)
        return workload, [compile_plan(named_pattern(workload))], (workload,)
    raise TypeError(f"cannot interpret workload {workload!r}")
