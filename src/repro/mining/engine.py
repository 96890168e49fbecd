"""Plan executors — the functional reference for all simulators.

Counting runs on one of two execution models, selected by
``KernelPolicy(engine=...)`` (docs/KERNELS.md, "Frontier engine"):

``"frontier"`` (default)
    Breadth-batched: every level's partial embeddings are materialized
    as one struct-of-arrays frontier and the level's schedule runs as
    segmented batch set ops (:mod:`repro.mining.frontier`), depth-first
    over cache-sized blocks of the frontier.
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


def _apply_ops(
    graph: CSRGraph,
    ctx: KernelContext,
    ops: Iterable[SetOp],
    embedding: Sequence[int],
    states: dict[int, np.ndarray],
    preset: Mapping[int, np.ndarray] | None = None,
) -> None:
    """Run plan ops one at a time for ``embedding``, storing each result
    in ``states``; an op whose result state is in ``preset`` takes the
    precomputed value instead of re-executing."""
    for op in ops:
        if preset is not None and op.result_state in preset:
            states[op.result_state] = preset[op.result_state]
            continue
        operand = graph.neighbors(embedding[op.operand_level])
        source = (
            states[op.source_state] if op.source_state is not None else None
        )
        states[op.result_state] = ctx.apply_op(op.kind, source, operand)


class _RecursiveRunner:
    """The per-embedding oracle executor, reusable across roots.

    One instance holds the mutable embedding/state scratch, so
    multi-pattern counting can drive many roots and inject precomputed
    level-0 trunk states, and listing can walk the same search tree.
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
            return self._count(0)
        finally:
            self.embedding.pop()
            self._preset = None

    def list_root(
        self, root: int, out: list[tuple[int, ...]], limit: int | None
    ) -> bool:
        """Append the embeddings of one search tree to ``out``; ``True``
        once ``out`` holds ``limit`` of them."""
        self.embedding.append(int(root))
        try:
            if self.k == 1:
                out.append((int(root),))
                return limit is not None and len(out) >= limit
            return self._list(0, out, limit)
        finally:
            self.embedding.pop()

    def _candidates(self, level: int) -> np.ndarray:
        # ``u_level`` was just appended to ``embedding``; run the level's
        # schedule and filter the next level's candidates.
        sched = self.plan.levels[level]
        _apply_ops(
            self.graph, self.ctx, sched.ops, self.embedding, self.states,
            self._preset if level == 0 else None,
        )
        return filtered_candidates(
            self.plan, level + 1, self.states[sched.extend_state],
            self.embedding,
        )

    def _count(self, level: int) -> int:
        cand = self._candidates(level)
        if level + 2 == self.k:
            return int(cand.size)
        subtotal = 0
        for v in cand:
            self.embedding.append(int(v))
            subtotal += self._count(level + 1)
            self.embedding.pop()
        return subtotal

    def _list(
        self, level: int, out: list[tuple[int, ...]], limit: int | None
    ) -> bool:
        cand = self._candidates(level)
        leaf = level + 2 == self.k
        for v in cand:
            self.embedding.append(int(v))
            if leaf:
                out.append(tuple(self.embedding))
                stop = limit is not None and len(out) >= limit
            else:
                stop = self._list(level + 1, out, limit)
            self.embedding.pop()
            if stop:
                return True
        return False


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

    ``kernels`` selects the execution engine for this run
    (docs/KERNELS.md); every policy returns the identical count.  The
    policy is forwarded to sharded workers.
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
    """
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
) -> list[tuple[int, ...]]:
    """All embeddings as level-ordered vertex tuples (one per class).

    ``limit`` truncates the enumeration once that many embeddings were
    produced (useful on dense graphs).

    ``jobs`` shards the roots across worker processes; chunks are
    contiguous in root order, so the merged list (and ``limit``
    truncation applied after the merge) equals the serial list exactly.

    Listing materializes every embedding, so it always walks the
    recursive oracle's search tree in the given plan's vertex order —
    no engine choice applies here.
    """
    if jobs is not None and jobs > 1:
        from repro.core.sharded import list_embeddings_parallel

        return list_embeddings_parallel(graph, plan, roots, limit, jobs)
    runner = _RecursiveRunner(graph, plan, KernelContext())
    out: list[tuple[int, ...]] = []
    for root in _iter_roots(graph, roots):
        if runner.list_root(root, out, limit):
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
        _apply_ops(graph, ctx, trunk, [root], preset)
        for name, runner in runners.items():
            totals[name] += runner.count_root(root, preset)
    return totals
