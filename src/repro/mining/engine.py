"""Plan executors — the functional reference for all simulators.

Counting runs on one of two execution models, selected by
``KernelPolicy(engine=...)`` (docs/KERNELS.md, "Frontier engine"):

``"frontier"`` (default)
    Breadth-batched: every level's partial embeddings are materialized
    as one struct-of-arrays frontier and the level's schedule runs as
    segmented batch set ops (:mod:`repro.mining.frontier`).  Memory is
    bounded by the module's spill budget.
``"recursive"``
    The oracle path, following paper Figure 2 exactly: nested loops over
    candidate sets, with the set-operation schedules materialized
    incrementally and reused across the subtree.

Both engines count identically — the agreement suite drives all 11
patterns × both semantics × every policy against each other.  Listing
jobs always use the recursive enumerator (they materialize every
embedding regardless, so breadth batching buys nothing).

The recursive engine is deliberately plain: every set op goes through
the merge primitives of :mod:`repro.setops.merge` (counted by
:class:`repro.setops.kernels.KernelContext`) and every level recurses
per child, so it shares no batching or eligibility analysis with the
frontier engine it checks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mining.frontier import FrontierEngine
from repro.pattern.multipattern import MultiPlan
from repro.pattern.plan import ExecutionPlan, SetOp
from repro.setops.kernels import DEFAULT_POLICY, KernelContext, KernelPolicy
from repro.setops.merge import exclude_values, lower_bound_filter

__all__ = [
    "count_embeddings",
    "list_embeddings",
    "count_multi",
    "per_root_counts",
    "filtered_candidates",
]


def filtered_candidates(
    plan: ExecutionPlan,
    level: int,
    candidates: np.ndarray,
    embedding: Sequence[int],
) -> np.ndarray:
    """Apply symmetry-breaking and injectivity filters for ``level``.

    All synthesized restrictions are lower bounds, so symmetry breaking is
    one binary search; injectivity only needs to drop ancestors that are
    non-adjacent to ``level`` in the pattern (adjacent ones can never
    appear in their own neighbor list).
    """
    bounds = plan.lower_bound_levels(level)
    if bounds:
        candidates = lower_bound_filter(
            candidates, max(embedding[b] for b in bounds)
        )
    excludes = [
        embedding[d] for d in plan.exclude_levels(level) if d < len(embedding)
    ]
    if excludes:
        candidates = exclude_values(candidates, excludes)
    return candidates


def _iter_roots(graph: CSRGraph, roots: Iterable[int] | None) -> Iterable[int]:
    if roots is None:
        return range(graph.num_vertices)
    return graph.check_roots(roots)


class _RecursiveRunner:
    """The per-embedding oracle executor, reusable across roots.

    One instance holds the mutable embedding/state scratch, so
    multi-pattern counting can drive many roots and inject precomputed
    level-0 trunk states.
    """

    def __init__(
        self, graph: CSRGraph, plan: ExecutionPlan, ctx: KernelContext
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.ctx = ctx
        self.k = plan.num_levels
        self.states: dict[int, np.ndarray] = {}
        self.embedding: list[int] = []
        self._preset: Mapping[int, np.ndarray] | None = None

    def count_root(
        self,
        root: int,
        preset: Mapping[int, np.ndarray] | None = None,
    ) -> int:
        """Embedding count of one search tree.

        ``preset`` maps level-0 result-state ids to already-computed
        values for this root (the multi-pattern shared trunk); matching
        level-0 ops are skipped instead of re-executed.
        """
        if self.k == 1:
            return 1
        self._preset = preset
        self.embedding.append(int(root))
        try:
            return self._explore(0)
        finally:
            self.embedding.pop()
            self._preset = None

    def _explore(self, level: int) -> int:
        # ``u_level`` was just appended to ``embedding``; run the level's
        # schedule and extend (or count) the next level.
        plan = self.plan
        states = self.states
        embedding = self.embedding
        sched = plan.levels[level]
        preset = self._preset if level == 0 else None
        for op in sched.ops:
            if preset is not None and op.result_state in preset:
                states[op.result_state] = preset[op.result_state]
                continue
            operand = self.graph.neighbors(embedding[op.operand_level])
            source = (
                states[op.source_state] if op.source_state is not None else None
            )
            states[op.result_state] = self.ctx.apply_op(op.kind, source, operand)
        nxt = level + 1
        cand = filtered_candidates(
            plan, nxt, states[sched.extend_state], embedding
        )
        if nxt == self.k - 1:
            return int(cand.size)
        subtotal = 0
        for v in cand:
            embedding.append(int(v))
            subtotal += self._explore(nxt)
            embedding.pop()
        return subtotal


def count_embeddings(
    graph: CSRGraph,
    plan: ExecutionPlan,
    *,
    roots: Iterable[int] | None = None,
    jobs: int | None = None,
    kernels: KernelPolicy | None = None,
) -> int:
    """Number of embeddings of the plan's pattern in ``graph``.

    With the plan's symmetry-breaking restrictions each automorphism class
    is counted exactly once, i.e. the result is the number of distinct
    pattern *instances* (for a triangle plan: the triangle count).

    ``roots`` limits the search to trees rooted at the given level-0
    vertices (used for sampled simulation); default is every vertex.

    ``jobs`` shards the roots across that many worker processes
    (``repro.parallel``); the total is identical for every value since
    per-root counts merge by addition.

    ``kernels`` selects the execution engine and tunes the frontier
    engine for this run (docs/KERNELS.md); every policy returns the
    identical count.  The policy is forwarded to sharded workers.
    """
    total = 0
    for root, sub in per_root_counts(
        graph, plan, roots=roots, jobs=jobs, kernels=kernels
    ):
        total += sub
    return total


def per_root_counts(
    graph: CSRGraph,
    plan: ExecutionPlan,
    *,
    roots: Iterable[int] | None = None,
    jobs: int | None = None,
    kernels: KernelPolicy | None = None,
) -> Iterator[tuple[int, int]]:
    """Yield ``(root, count)`` per search tree — the unit of coarse-grained
    parallelism the accelerators schedule across PEs.

    The frontier engine (the default policy) batches the whole root list
    through one breadth-first frontier and yields the per-root vector;
    ``KernelPolicy(engine="recursive")`` walks one root at a time.  Both
    yield identical pairs in identical order.

    With ``jobs`` the pairs are computed on worker processes — each
    worker batches its whole contiguous root chunk through one frontier
    — and yielded in the same serial root order.

    ``KernelPolicy(tuned=True)`` resolves the plan and policy through
    the auto-tuner here, *before* the sharded fan-out — workers receive
    already-concrete arguments.  The resolved configuration is verified
    bit-identical (per-root sequences included) at trial time, so the
    yielded pairs match the untuned run exactly (docs/TUNING.md).
    """
    if kernels is not None and kernels.tuned:
        from repro.tuning import resolve_run

        plan, kernels = resolve_run(graph, plan, kernels)
    if jobs is not None and jobs > 1:
        from repro.core.sharded import per_root_counts_parallel

        yield from per_root_counts_parallel(
            graph, plan, roots, jobs, kernels=kernels
        )
        return
    k = plan.num_levels
    if k == 1:
        for root in _iter_roots(graph, roots):
            yield int(root), 1
        return
    policy = kernels if kernels is not None else DEFAULT_POLICY
    root_list = [int(r) for r in _iter_roots(graph, roots)]
    if policy.engine == "frontier":
        counts = FrontierEngine(graph, plan).per_root_counts(root_list)
        for root, count in zip(root_list, counts):
            yield root, int(count)
        return
    runner = _RecursiveRunner(graph, plan, KernelContext())
    for root in root_list:
        yield root, runner.count_root(root)


def list_embeddings(
    graph: CSRGraph,
    plan: ExecutionPlan,
    *,
    roots: Iterable[int] | None = None,
    limit: int | None = None,
    jobs: int | None = None,
    kernels: KernelPolicy | None = None,
) -> list[tuple[int, ...]]:
    """All embeddings as level-ordered vertex tuples (one per class).

    ``limit`` truncates the enumeration once that many embeddings were
    produced (useful on dense graphs).

    ``jobs`` shards the roots across worker processes; chunks are
    contiguous in root order, so the merged list (and ``limit``
    truncation applied after the merge) equals the serial list exactly.

    Listing materializes every embedding, so the frontier engine stands
    aside — enumeration always recurses through the merge primitives,
    whatever the policy.  ``tuned=True`` policies fall back to their
    base fields here: embeddings are level-ordered tuples, so a tuned
    plan swap would reorder every tuple.
    """
    if kernels is not None and kernels.tuned:
        from dataclasses import replace as _replace

        kernels = _replace(kernels, tuned=False)
    if jobs is not None and jobs > 1:
        from repro.core.sharded import list_embeddings_parallel

        return list_embeddings_parallel(
            graph, plan, roots, limit, jobs, kernels=kernels
        )
    k = plan.num_levels
    out: list[tuple[int, ...]] = []
    if k == 1:
        for root in _iter_roots(graph, roots):
            out.append((int(root),))
            if limit is not None and len(out) >= limit:
                break
        return out
    ctx = KernelContext()
    states: dict[int, np.ndarray] = {}
    embedding: list[int] = []

    def explore(level: int) -> bool:
        sched = plan.levels[level]
        for op in sched.ops:
            operand = graph.neighbors(embedding[op.operand_level])
            source = (
                states[op.source_state] if op.source_state is not None else None
            )
            states[op.result_state] = ctx.apply_op(op.kind, source, operand)
        nxt = level + 1
        cand = filtered_candidates(
            plan, nxt, states[sched.extend_state], embedding
        )
        if nxt == k - 1:
            for v in cand:
                out.append(tuple(embedding) + (int(v),))
                if limit is not None and len(out) >= limit:
                    return True
            return False
        for v in cand:
            embedding.append(int(v))
            stop = explore(nxt)
            embedding.pop()
            if stop:
                return True
        return False

    for root in _iter_roots(graph, roots):
        embedding.append(int(root))
        stop = explore(0)
        embedding.pop()
        if stop:
            break
    return out


def _shared_level0_ops(plans: Sequence[ExecutionPlan]) -> list[SetOp]:
    """The deduplicated level-0 trunk of a multi-plan, in dependency
    order: each unified result state's op appears once, the first time
    any plan schedules it (identical state ids have identical op
    histories, so first-wins is exact)."""
    seen: set[int] = set()
    trunk: list[SetOp] = []
    for plan in plans:
        if plan.num_levels < 2:
            continue
        for op in plan.levels[0].ops:
            if op.result_state not in seen:
                seen.add(op.result_state)
                trunk.append(op)
    return trunk


def count_multi(
    graph: CSRGraph,
    multi: MultiPlan,
    *,
    roots: Iterable[int] | None = None,
    jobs: int | None = None,
    kernels: KernelPolicy | None = None,
) -> dict[str, int]:
    """Counts for every pattern of a multi-pattern plan in one pass.

    Plans share the root's level-0 states via the unified state
    namespace (the merged trunk of paper section 4):
    :func:`repro.pattern.multipattern.compile_multi_plan` gives ops with
    identical histories identical state ids, so each distinct level-0
    result is computed **once per root** (recursive engine) or **once
    per root frontier** (frontier engine) and reused by every plan that
    schedules it.  ``jobs`` shards the roots — each worker runs this
    shared-trunk path on its chunk; ``kernels`` selects the engine and
    its frontier knobs.  Totals are bit-identical to counting each plan
    independently.
    """
    if kernels is not None and kernels.tuned:
        # Multi-pattern trunks share level-0 states across plans; a
        # per-plan order swap would break the merge, so tuning does not
        # apply here — run with the concrete base policy instead.
        from dataclasses import replace as _replace

        kernels = _replace(kernels, tuned=False)
    if jobs is not None and jobs > 1:
        from repro.core.sharded import count_multi_parallel

        return count_multi_parallel(graph, multi, roots, jobs, kernels=kernels)
    root_list = [int(r) for r in _iter_roots(graph, roots)]
    policy = kernels if kernels is not None else DEFAULT_POLICY
    totals = {name: 0 for name in multi.names}
    if policy.engine == "frontier":
        shared: dict[int, object] = {}
        for name, plan in zip(multi.names, multi.plans):
            if plan.num_levels == 1:
                totals[name] += len(root_list)
                continue
            engine = FrontierEngine(graph, plan)
            counts = engine.per_root_counts(root_list, shared_level0=shared)
            totals[name] += int(counts.sum())
        return totals
    ctx = KernelContext()
    runners = {
        name: _RecursiveRunner(graph, plan, ctx)
        for name, plan in zip(multi.names, multi.plans)
        if plan.num_levels >= 2
    }
    for name, plan in zip(multi.names, multi.plans):
        if plan.num_levels == 1:
            totals[name] += len(root_list)
    trunk = _shared_level0_ops(multi.plans)
    for root in root_list:
        preset: dict[int, np.ndarray] = {}
        operand = graph.neighbors(root)
        for op in trunk:
            source = (
                preset[op.source_state]
                if op.source_state is not None
                else None
            )
            preset[op.result_state] = ctx.apply_op(op.kind, source, operand)
        for name, runner in runners.items():
            totals[name] += runner.count_root(root, preset)
    return totals
