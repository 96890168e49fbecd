"""Tuner candidate generation: vertex orders for one plan.

A candidate is one vertex order the measured trials can time: a
connectivity-preserving order for the plan's pattern, run under the
caller's base :class:`~repro.setops.kernels.KernelPolicy`.  Candidates
are the top-N orders of :func:`repro.pattern.ordering.rank_vertex_orders`
under the target graph's cost model, restricted to orders whose level-0
pattern vertex sits in the same automorphism orbit as the reference
plan's — the necessary condition for per-root attribution to survive the
reorder (trials verify the sufficient one; docs/TUNING.md, "Candidate
grid").

The reference candidate — the caller's own plan — is always first:
trials compare everything against it, and the tuner can therefore never
select a configuration worse than no tuning (modulo measurement noise,
which the persistent store freezes fleet-wide).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.csr import CSRGraph
from repro.pattern.automorphism import orbits
from repro.pattern.ordering import OrderCostModel, rank_vertex_orders
from repro.pattern.pattern import Pattern
from repro.pattern.plan import ExecutionPlan

__all__ = ["TunerCandidate", "generate_candidates", "original_pattern"]

#: Orders considered per pattern (the rank_vertex_orders top-N).
TOP_ORDERS = 4


@dataclass(frozen=True)
class TunerCandidate:
    """One trial configuration: a labeled vertex order."""

    label: str
    order: tuple[int, ...]


def original_pattern(plan: ExecutionPlan) -> Pattern:
    """Undo the compile-time relabeling: the pattern the caller named.

    ``plan.pattern`` is relabeled so levels are 0..k-1; inverting the
    plan's ``vertex_order`` recovers the original vertex names, which is
    what candidate orders must be expressed in.
    """
    k = plan.pattern.num_vertices
    inv = [0] * k
    for level, vertex in enumerate(plan.vertex_order):
        inv[vertex] = level
    return plan.pattern.relabel(inv)


def generate_candidates(
    graph: CSRGraph, plan: ExecutionPlan
) -> list[TunerCandidate]:
    """The trial pool for one (plan, graph) cell; reference first."""
    pattern = original_pattern(plan)
    reference_order = tuple(plan.vertex_order)
    root_vertex = reference_order[0]
    root_orbit = next(
        (orbit for orbit in orbits(pattern) if root_vertex in orbit),
        frozenset({root_vertex}),
    )
    orders = rank_vertex_orders(
        pattern,
        model=OrderCostModel.from_graph(graph),
        top_n=TOP_ORDERS,
        vertex_induced=plan.vertex_induced,
        first_vertices=frozenset(root_orbit),
    )
    candidates = [TunerCandidate(label="reference", order=reference_order)]
    others = [order for order in orders if order != reference_order]
    for rank, order in enumerate(others):
        candidates.append(TunerCandidate(label=f"o{rank + 1}", order=order))
    return candidates
