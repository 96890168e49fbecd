"""Cost-model-driven vertex-order search.

"How to compile an optimized execution plan is an extensively studied
topic" (paper section 2.1, citing AutoMine, GraphZero, GraphPi); the
greedy connectivity heuristic in :mod:`repro.pattern.compiler` is the
baseline.  This module adds the studied alternative: enumerate the
connectivity-preserving orders (exhaustive for small patterns, a greedy
beam for ``k >= 7`` where ``k!`` explodes) and rank them with a symbolic
cost model parameterized by the target graph's degree statistics.

The cost model estimates, level by level:

* the expected candidate-set size — an intersection with a neighbor
  list keeps a ``d / n`` fraction of a set, a subtraction keeps
  ``1 - d / n``, an init produces ``d`` elements — damped by the
  symmetry-breaking restrictions (an orbit of ``m`` earlier-constrained
  levels keeps ``1 / m!`` of the tuples);
* the expected number of search-tree nodes per level (the running
  product of candidate sizes);
* per-node set-operation work (sum of expected input sizes).

Degree skew matters: a vertex reached over an edge is degree-biased, so
on hub-heavy graphs the operand entering each set op is much larger
than the mean.  The model therefore carries the p90/p99 degree and the
hub mass (share of edge endpoints landing on the top-degree vertices)
and blends them into the per-op operand estimate — a skew-blind model
cannot discriminate orders on power-law graphs at all.

The total expected work ranks orders; ties break toward the greedy
heuristic's order.  Orders only change *performance*: the engine result
is identical for every valid order, which the test suite verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pattern.compiler import choose_vertex_order, compile_plan
from repro.pattern.pattern import Pattern
from repro.pattern.plan import ExecutionPlan, OpKind

__all__ = ["OrderCostModel", "estimate_plan_cost", "search_vertex_order",
           "compile_plan_searched"]

#: Exhaustive enumeration bound: patterns with ``k >= _BEAM_THRESHOLD``
#: vertices (``k! > 720``) rank orders through the greedy beam instead.
_BEAM_THRESHOLD = 7

#: Beam width for the k >= 7 fallback: enough diversity to keep every
#: plausible prefix alive while bounding work to ``O(k^2 * width)``.
_BEAM_WIDTH = 32


@dataclass(frozen=True)
class OrderCostModel:
    """Degree statistics of the target graph driving the estimates.

    ``p90_degree``/``p99_degree``/``hub_mass`` refine the skew picture;
    zero values (the pre-skew default) fall back to ``avg_degree`` so a
    bare ``OrderCostModel(n, d)`` still behaves like the original
    two-parameter model.
    """

    num_vertices: int
    avg_degree: float
    p90_degree: float = 0.0
    p99_degree: float = 0.0
    hub_mass: float = 0.0

    @classmethod
    def from_graph(cls, graph: CSRGraph) -> "OrderCostModel":
        n = max(1, graph.num_vertices)
        degrees = graph.degrees()
        if degrees.size == 0 or graph.num_edges == 0:
            return cls(num_vertices=n, avg_degree=1.0)
        p90 = float(np.percentile(degrees, 90))
        p99 = float(np.percentile(degrees, 99))
        # Hub mass: the share of edge endpoints landing on the top-1%
        # highest-degree vertices (at least one) — the probability that
        # a vertex reached *over an edge* is a hub.
        num_hubs = max(1, n // 100)
        top = np.sort(degrees)[-num_hubs:]
        mass = float(top.sum()) / float(degrees.sum())
        return cls(
            num_vertices=n,
            avg_degree=max(1.0, graph.avg_degree()),
            p90_degree=max(1.0, p90),
            p99_degree=max(1.0, p99),
            hub_mass=round(mass, 6),
        )

    @classmethod
    def default(cls) -> "OrderCostModel":
        """A generic sparse-graph assumption when no graph is given."""
        return cls(
            num_vertices=100_000, avg_degree=16.0,
            p90_degree=48.0, p99_degree=256.0, hub_mass=0.1,
        )

    @property
    def density(self) -> float:
        return min(1.0, self.avg_degree / self.num_vertices)

    @property
    def edge_degree(self) -> float:
        """Expected neighbor-list length of a vertex reached over an
        edge: the mean blended toward the tail by the hub mass."""
        tail = self.p99_degree if self.p99_degree > 0 else self.avg_degree
        return (1.0 - self.hub_mass) * self.avg_degree + self.hub_mass * tail

    @property
    def init_degree(self) -> float:
        """Expected size of a freshly-initialized candidate set (a copy
        of a bound vertex's neighbor list)."""
        bulk = self.p90_degree if self.p90_degree > 0 else self.avg_degree
        return (1.0 - self.hub_mass) * self.avg_degree + self.hub_mass * bulk


def estimate_plan_cost(plan: ExecutionPlan, model: OrderCostModel) -> float:
    """Expected total set-operation work of one compiled plan."""
    n = model.num_vertices
    d_init = model.init_degree
    d_edge = model.edge_degree
    p = model.density
    # Expected size of each symbolic state.
    size: dict[int, float] = {}
    # Expected number of tree nodes entering each level.
    nodes = float(n)
    # Restriction damping: each level with r lower-bound constraints keeps
    # roughly 1/(r+1) of its candidates.
    total = 0.0
    for sched in plan.levels:
        level_work = 0.0
        for op in sched.ops:
            if op.kind is OpKind.INIT_COPY:
                size[op.result_state] = d_init
                level_work += d_init
            else:
                src = size.get(op.source_state, d_init)
                if op.kind is OpKind.INTERSECT:
                    size[op.result_state] = src * p
                else:
                    size[op.result_state] = src * (1.0 - p)
                level_work += src + d_edge
        total += nodes * level_work
        cand = size.get(sched.extend_state, d_init)
        nxt = sched.level + 1
        damping = 1.0 + len(plan.lower_bound_levels(nxt))
        nodes *= max(cand / damping, 1e-9)
    return total


def _candidate_orders(
    pattern: Pattern, model: OrderCostModel
) -> list[tuple[int, ...]]:
    """Every order worth costing exactly: exhaustive below the cap,
    the greedy beam's survivors at and above it."""
    k = pattern.num_vertices
    if k < _BEAM_THRESHOLD:
        return [
            perm
            for perm in permutations(range(k))
            if _connectivity_preserving(pattern, perm)
        ]
    return _beam_orders(pattern, model)


def _beam_orders(
    pattern: Pattern,
    model: OrderCostModel,
    *,
    width: int = _BEAM_WIDTH,
) -> list[tuple[int, ...]]:
    """Greedy beam over order prefixes for large patterns.

    Scores a prefix with the same size recurrence the exact model uses,
    minus restriction damping (restrictions depend on the completed
    order) — cheap enough to avoid compiling ``k!`` plans while keeping
    every plausible prefix alive.  :func:`search_vertex_order` adds the
    greedy heuristic's order to the beam's survivors.
    """
    k = pattern.num_vertices
    d_init = model.init_degree
    d_edge = model.edge_degree
    p = model.density
    # (cost, nodes, cand, order, placed) — candidate-set size carries
    # across extensions exactly like the exact model's running product.
    beam = [(0.0, float(model.num_vertices), d_init, (v,), 1 << v)
            for v in range(k)]
    for _ in range(k - 1):
        extended = []
        for cost, nodes, cand, order, placed in beam:
            for v in range(k):
                if placed & (1 << v):
                    continue
                back = sum(
                    1 for u in order if pattern.has_edge(u, v)
                )
                if back == 0:
                    continue
                # One init + (back - 1) intersections against earlier
                # neighbor lists, each shrinking the running set by the
                # density; non-adjacent earlier vertices subtract under
                # vertex-induced semantics without first-order work.
                work = d_init
                size = d_init
                for _ in range(back - 1):
                    work += size + d_edge
                    size *= p
                extended.append((
                    cost + nodes * work,
                    nodes * max(size, 1e-9),
                    size,
                    order + (v,),
                    placed | (1 << v),
                ))
        extended.sort(key=lambda s: (s[0], s[3]))
        beam = extended[:width]
    return [state[3] for state in beam]


def search_vertex_order(
    pattern: Pattern,
    *,
    model: OrderCostModel | None = None,
    vertex_induced: bool = True,
) -> tuple[int, ...]:
    """Best connectivity-preserving order under the cost model.

    Candidates come from exhaustive enumeration for ``k < 7`` and from
    the greedy beam above that (:data:`_BEAM_THRESHOLD`); each order
    is compiled and costed exactly.  The greedy heuristic's order is
    always a candidate and wins ties, so the search never regresses
    below the baseline model-wise.
    """
    model = model or OrderCostModel.default()
    k = pattern.num_vertices
    if k == 1:
        return (0,)
    if not pattern.is_connected():
        raise ValueError("pattern-aware mining requires a connected pattern")
    greedy = tuple(choose_vertex_order(pattern))
    candidates = _candidate_orders(pattern, model)
    if greedy not in candidates:
        candidates.append(greedy)
    scored = []
    for order in candidates:
        plan = compile_plan(pattern, order=order, vertex_induced=vertex_induced)
        cost = estimate_plan_cost(plan, model)
        scored.append((cost, order != greedy, order))
    return min(scored)[2]


def compile_plan_searched(
    pattern: Pattern,
    *,
    graph: CSRGraph | None = None,
    vertex_induced: bool = True,
) -> ExecutionPlan:
    """Compile with the searched (cost-model-optimal) vertex order."""
    model = (
        OrderCostModel.from_graph(graph) if graph is not None
        else OrderCostModel.default()
    )
    order = search_vertex_order(
        pattern, model=model, vertex_induced=vertex_induced
    )
    return compile_plan(pattern, order=order, vertex_induced=vertex_induced)


def _connectivity_preserving(pattern: Pattern, order: tuple[int, ...]) -> bool:
    placed: set[int] = set()
    for i, v in enumerate(order):
        if i > 0 and not any(pattern.has_edge(u, v) for u in placed):
            return False
        placed.add(v)
    return True
