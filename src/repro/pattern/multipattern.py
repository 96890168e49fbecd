"""Multi-pattern mining plans (the ``3mc`` benchmark).

The paper supports mining several patterns in one pass by merging their
search trees: "the first few tree levels are common, until the point where
different patterns diverge to separate tree trunks" (section 4).  We model
this by compiling all patterns in a *shared symbolic-state namespace*, so
set ops with identical histories get identical state ids across plans.  An
executor processes each root once, computes the shared level-0 states a
single time, and then explores each pattern's trunk; any op whose result
state is already materialized on the current path is skipped.

``motif_patterns(k)`` enumerates all connected non-isomorphic k-vertex
patterns, so ``compile_multi_plan(motif_patterns(3))`` is exactly the
paper's 3-motif-counting job (triangle + wedge).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import Pattern
from repro.pattern.plan import ExecutionPlan, OpKind

__all__ = ["MultiPlan", "compile_multi_plan", "motif_patterns"]


@dataclass(frozen=True)
class MultiPlan:
    """A bundle of plans compiled in one shared state namespace.

    ``shared_prefix`` is the number of leading levels whose schedules are
    byte-identical across all plans (the merged trunk depth).  For 3-motif
    it is 1: both plans compute ``S_1 = N(u_0)`` as the same state and
    diverge when filtering level-1 candidates.
    """

    plans: tuple[ExecutionPlan, ...]
    names: tuple[str, ...]
    shared_prefix: int
    num_states: int

    @property
    def num_patterns(self) -> int:
        return len(self.plans)


def compile_multi_plan(
    patterns: Sequence[Pattern],
    *,
    names: Sequence[str] | None = None,
    vertex_induced: bool = True,
) -> MultiPlan:
    """Compile ``patterns`` with cross-plan sharing of identical set ops.

    Sharing is achieved by re-compiling each plan and then unifying state
    ids whose defining op histories are identical (same kind, operand
    level, and unified source).  Plans keep their own schedules; executors
    dedupe at run time via the unified ids.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    compiled = [
        compile_plan(p, vertex_induced=vertex_induced) for p in patterns
    ]
    unified, num_states = _unify_states(compiled)
    prefix = _shared_prefix_depth(unified)
    if names is None:
        names = tuple(f"p{i}" for i in range(len(unified)))
    return MultiPlan(
        plans=tuple(unified),
        names=tuple(names),
        shared_prefix=prefix,
        num_states=num_states,
    )


def _unify_states(
    plans: list[ExecutionPlan],
) -> tuple[list[ExecutionPlan], int]:
    """Rewrite each plan's state ids into one shared namespace."""
    memo: dict[tuple[int | None, OpKind, int], int] = {}
    counter = 0
    out: list[ExecutionPlan] = []
    for plan in plans:
        remap: dict[int, int] = {}
        new_levels = []
        for sched in plan.levels:
            new_ops = []
            for op in sched.ops:
                src = remap[op.source_state] if op.source_state is not None else None
                key = (src, op.kind, op.operand_level)
                if key in memo:
                    new_id = memo[key]
                else:
                    new_id = counter
                    counter += 1
                    memo[key] = new_id
                remap[op.result_state] = new_id
                new_ops.append(
                    type(op)(
                        kind=op.kind,
                        operand_level=op.operand_level,
                        source_state=src,
                        result_state=new_id,
                        serves=op.serves,
                        final_for=op.final_for,
                    )
                )
            new_levels.append(
                type(sched)(
                    level=sched.level,
                    ops=tuple(new_ops),
                    extend_state=remap[sched.extend_state]
                    if sched.extend_state is not None
                    else None,
                )
            )
        out.append(
            type(plan)(
                pattern=plan.pattern,
                vertex_order=plan.vertex_order,
                levels=tuple(new_levels),
                restrictions=plan.restrictions,
                vertex_induced=plan.vertex_induced,
                num_states=counter,
            )
        )
    return out, counter


def _shared_prefix_depth(plans: list[ExecutionPlan]) -> int:
    """Number of leading levels identical (ops + extend state) in all plans."""
    depth = 0
    max_depth = min(p.num_levels - 1 for p in plans)
    for level in range(max_depth):
        first = plans[0].levels[level]
        sig = ({(o.kind, o.operand_level, o.source_state, o.result_state)
                for o in first.ops}, first.extend_state)
        same = all(
            (
                {(o.kind, o.operand_level, o.source_state, o.result_state)
                 for o in p.levels[level].ops},
                p.levels[level].extend_state,
            )
            == sig
            for p in plans[1:]
        )
        if not same:
            break
        depth += 1
    return depth


def motif_patterns(k: int) -> tuple[list[Pattern], list[str]]:
    """All connected non-isomorphic patterns on ``k`` vertices.

    Returns ``(patterns, names)``; names are ``{k}motif-{index}`` except
    for a few well-known shapes that get their conventional names.  Only
    practical for ``k <= 5`` (enumeration over all labeled graphs).
    """
    if k < 2 or k > 5:
        raise ValueError("motif enumeration supported for 2 <= k <= 5")
    all_pairs = list(combinations(range(k), 2))
    seen: set[tuple[int, ...]] = set()
    patterns: list[Pattern] = []
    for bits in range(1 << len(all_pairs)):
        edges = [all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1]
        pat = Pattern(k, edges)
        if not pat.is_connected():
            continue
        canon = _canonical_form(pat)
        if canon in seen:
            continue
        seen.add(canon)
        patterns.append(pat)
    # Sort densest-last for stable naming.
    patterns.sort(key=lambda p: (p.num_edges, _canonical_form(p)))
    names = [_motif_name(p) for p in patterns]
    return patterns, names


def _canonical_form(pattern: Pattern) -> tuple[int, ...]:
    """Lexicographically minimal adjacency-mask tuple over relabellings."""
    k = pattern.num_vertices
    best: tuple[int, ...] | None = None
    for perm in permutations(range(k)):
        relabelled = pattern.relabel(list(perm))
        masks = tuple(relabelled.adj_mask(v) for v in range(k))
        if best is None or masks < best:
            best = masks
    assert best is not None
    return best


@lru_cache(maxsize=1)
def _known_shapes() -> dict[tuple[int, ...], str]:
    """Canonical form -> name of every named pattern (read-only)."""
    from repro.pattern.pattern import _NAMED  # local import to avoid cycle

    return {_canonical_form(pat): name for name, pat in _NAMED.items()}


def _motif_name(pattern: Pattern) -> str:
    canon = _canonical_form(pattern)
    known = _known_shapes()
    if canon in known:
        return known[canon]
    tag = hash(canon) & 0xFFFF
    return f"{pattern.num_vertices}motif-e{pattern.num_edges}-{tag:04x}"
