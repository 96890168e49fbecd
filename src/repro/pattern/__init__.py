"""Patterns and execution plans for pattern-aware graph mining.

A :class:`~repro.pattern.pattern.Pattern` is a small connected undirected
graph (the thing the user wants to mine).  The
:func:`~repro.pattern.compiler.compile_plan` compiler turns it into an
:class:`~repro.pattern.plan.ExecutionPlan`: a vertex ordering, per-level
set-operation schedules with common-subexpression sharing, and
symmetry-breaking restrictions derived from the pattern's automorphism
group — the generic plan format of section 2.1 of the paper, which both the
reference mining engine and the hardware simulators execute.
"""

from repro.pattern.pattern import (
    Pattern,
    all_named_patterns,
    named_pattern,
    PATTERN_NAMES,
)
from repro.pattern.automorphism import automorphisms, automorphism_count, orbits
from repro.pattern.symmetry import symmetry_restrictions, Restriction
from repro.pattern.plan import ExecutionPlan, LevelSchedule, SetOp, OpKind
from repro.pattern.compiler import compile_plan, choose_vertex_order
from repro.pattern.multipattern import MultiPlan, compile_multi_plan, motif_patterns

__all__ = [
    "Pattern",
    "all_named_patterns",
    "named_pattern",
    "PATTERN_NAMES",
    "automorphisms",
    "automorphism_count",
    "orbits",
    "symmetry_restrictions",
    "Restriction",
    "ExecutionPlan",
    "LevelSchedule",
    "SetOp",
    "OpKind",
    "compile_plan",
    "choose_vertex_order",
    "MultiPlan",
    "compile_multi_plan",
    "motif_patterns",
]
