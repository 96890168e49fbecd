"""Tuner candidate generation: vertex orders × kernel-policy grid.

A candidate is one *complete* execution configuration the measured
trials can time: a connectivity-preserving vertex order for the plan's
pattern plus one concrete :class:`~repro.setops.kernels.KernelPolicy`.
Candidates come from two crossed axes (docs/TUNING.md, "Candidate
grid"):

* **Orders** — the top-N orders of
  :func:`repro.pattern.ordering.rank_vertex_orders` under the target
  graph's cost model, restricted to orders whose level-0 pattern vertex
  sits in the same automorphism orbit as the reference plan's — the
  necessary condition for per-root attribution to survive the reorder
  (trials verify the sufficient one).
* **Policies** — a small grid seeded from the caller's base policy: the
  base itself, the flipped engine, and a raised segment-bitmap budget
  when the graph signature says the dense adjacency bitmap *almost*
  fits.

The reference candidate — the caller's own plan and base policy — is
always first: trials compare everything against it, and the tuner can
therefore never select a configuration worse than no tuning (modulo
measurement noise, which the persistent store freezes fleet-wide).

The full cross product stays small on purpose (≤ 11): the best two
orders cross the whole policy grid, the remaining orders ride the base
policy only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.graph.csr import CSRGraph
from repro.pattern.automorphism import orbits
from repro.pattern.ordering import OrderCostModel, rank_vertex_orders
from repro.pattern.pattern import Pattern
from repro.pattern.plan import ExecutionPlan
from repro.setops.kernels import KernelPolicy
from repro.tuning.signature import GraphSignature, graph_signature

__all__ = ["TunerCandidate", "generate_candidates", "original_pattern",
           "policy_grid"]

#: Orders considered per pattern (the rank_vertex_orders top-N).
TOP_ORDERS = 4

#: How many of the best orders cross the full policy grid; the rest
#: ride the base policy only, bounding the candidate count.
CROSSED_ORDERS = 2


@dataclass(frozen=True)
class TunerCandidate:
    """One trial configuration: a vertex order plus a concrete policy."""

    label: str
    order: tuple[int, ...]
    policy: KernelPolicy

    def __post_init__(self) -> None:
        if self.policy.tuned:
            raise ValueError("trial candidates must carry concrete "
                             "(tuned=False) policies")


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


def policy_grid(
    base: KernelPolicy, signature: GraphSignature
) -> list[tuple[str, KernelPolicy]]:
    """The labeled policy variants seeded from ``base`` (concrete)."""
    base = replace(base, tuned=False)
    grid: list[tuple[str, KernelPolicy]] = [("base", base)]
    flipped = "recursive" if base.engine == "frontier" else "frontier"
    grid.append((flipped, replace(base, engine=flipped)))
    if (
        base.force_segment_kernel is None
        and signature.bitmap_fit_bytes > base.segment_bitmap_bytes
        and signature.bitmap_fit_bytes <= 4 * base.segment_bitmap_bytes
    ):
        grid.append((
            "bitmap-budget",
            replace(base, segment_bitmap_bytes=signature.bitmap_fit_bytes),
        ))
    return grid


def generate_candidates(
    graph: CSRGraph,
    plan: ExecutionPlan,
    base_policy: KernelPolicy,
) -> list[TunerCandidate]:
    """The trial pool for one (plan, graph) cell; reference first."""
    pattern = original_pattern(plan)
    reference_order = tuple(plan.vertex_order)
    root_vertex = reference_order[0]
    root_orbit = next(
        (orbit for orbit in orbits(pattern) if root_vertex in orbit),
        frozenset({root_vertex}),
    )
    signature = graph_signature(graph)
    model = OrderCostModel.from_graph(graph)
    orders = rank_vertex_orders(
        pattern,
        model=model,
        top_n=TOP_ORDERS,
        vertex_induced=plan.vertex_induced,
        first_vertices=frozenset(root_orbit),
    )
    if reference_order in orders:
        orders.remove(reference_order)
    grid = policy_grid(base_policy, signature)
    base = grid[0][1]

    candidates = [
        TunerCandidate(label="reference", order=reference_order, policy=base)
    ]
    seen = {(reference_order, base)}

    def add(label: str, order: tuple[int, ...], policy: KernelPolicy) -> None:
        if (order, policy) in seen:
            return
        seen.add((order, policy))
        candidates.append(TunerCandidate(label=label, order=order,
                                         policy=policy))

    # The reference order itself crosses the policy grid too — policy
    # wins must be reachable without an order change.
    for policy_label, policy in grid[1:]:
        add(f"ref×{policy_label}", reference_order, policy)
    for rank, order in enumerate(orders):
        add(f"o{rank + 1}", order, base)
        if rank < CROSSED_ORDERS:
            for policy_label, policy in grid[1:]:
                add(f"o{rank + 1}×{policy_label}", order, policy)
    return candidates
