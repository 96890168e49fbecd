"""Tier-B static verifier for compiled :class:`ExecutionPlan` IR.

Every plan the compiler emits is executed by four independent backends
(reference engine, FINGERS model, FlexMiner model, software miner), so a
malformed plan corrupts *all* results at once.  This module checks plan
legality **without running the plan**, the same plan/codegen concern
IntersectX's stream-instruction verifier and G2Miner's pattern-aware
code generation handle with dedicated checks:

=========  ===========================================================
PLAN001    state/operand def-before-use at each level (SSA discipline)
PLAN002    schedule covers all ``k`` levels; finality bookkeeping
PLAN003    restrictions form a strict partial order consistent with
           the pattern's automorphism group
PLAN004    set-op datapath legality (Equation-1 kinds match pattern
           edges; anti-subtraction only in the postponed-init chain,
           the ``A − B = A − (A ∩ B)`` single-datapath rewrite)
PLAN005    vertex ordering is a connectivity-preserving permutation
PLAN006    serves/final bookkeeping and state-count consistency
=========  ===========================================================

Findings reuse the Tier-A model with ``path="<plan:NAME>"`` and
``line = level``.  ``verify_plan`` returns them.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity, sort_findings
from repro.pattern.automorphism import automorphisms
from repro.pattern.plan import ExecutionPlan, OpKind

__all__ = [
    "PLAN_RULE_IDS",
    "verify_all_builtin",
    "verify_plan",
]

PLAN_RULE_IDS = (
    "PLAN001", "PLAN002", "PLAN003", "PLAN004", "PLAN005", "PLAN006",
)


def _finding(name: str, rule: str, level: int, message: str) -> Finding:
    return Finding(
        rule=rule,
        severity=Severity.ERROR,
        path=f"<plan:{name}>",
        line=level,
        col=0,
        message=message,
        snippet="",
    )


def verify_plan(plan: ExecutionPlan, name: str = "plan") -> list[Finding]:
    """All static legality violations of ``plan`` (empty list = valid)."""
    out: list[Finding] = []
    k = plan.num_levels

    out.extend(_check_ordering(plan, name))        # PLAN005
    out.extend(_check_level_coverage(plan, name))  # PLAN002
    out.extend(_check_states(plan, name))          # PLAN001 + PLAN006
    out.extend(_check_datapath(plan, name))        # PLAN004
    out.extend(_check_restrictions(plan, name, k))  # PLAN003
    return sort_findings(out)


# ----------------------------------------------------------------------
# PLAN005 — vertex ordering
# ----------------------------------------------------------------------


def _check_ordering(plan: ExecutionPlan, name: str) -> list[Finding]:
    out: list[Finding] = []
    k = plan.num_levels
    order = plan.vertex_order
    if sorted(order) != list(range(k)):
        out.append(_finding(
            name, "PLAN005", 0,
            f"vertex_order {list(order)} is not a permutation of 0..{k - 1}",
        ))
        return out  # connectivity checks are meaningless past this
    if not plan.pattern.is_connected():
        out.append(_finding(
            name, "PLAN005", 0, "plan pattern is not connected"
        ))
    for j in range(1, k):
        if not any(plan.pattern.has_edge(i, j) for i in range(j)):
            out.append(_finding(
                name, "PLAN005", j,
                f"level {j} has no earlier pattern neighbor: the mining "
                "order is not connectivity-preserving",
            ))
    return out


# ----------------------------------------------------------------------
# PLAN002 — level coverage
# ----------------------------------------------------------------------


def _check_level_coverage(plan: ExecutionPlan, name: str) -> list[Finding]:
    out: list[Finding] = []
    k = plan.num_levels
    if len(plan.levels) != max(0, k - 1):
        out.append(_finding(
            name, "PLAN002", 0,
            f"plan has {len(plan.levels)} level schedules for a k={k} "
            f"pattern; expected {max(0, k - 1)} (levels 0..{k - 2})",
        ))
    for idx, sched in enumerate(plan.levels):
        if sched.level != idx:
            out.append(_finding(
                name, "PLAN002", idx,
                f"schedule at position {idx} is labelled level "
                f"{sched.level}; levels must be 0..k-2 in order",
            ))
        if sched.extend_state is None:
            out.append(_finding(
                name, "PLAN002", idx,
                f"level {idx} has no extend_state: level {idx + 1} "
                "candidates are never materialized",
            ))
    return out


# ----------------------------------------------------------------------
# PLAN001 — def-before-use; PLAN006 — serves/final bookkeeping
# ----------------------------------------------------------------------


def _check_states(plan: ExecutionPlan, name: str) -> list[Finding]:
    out: list[Finding] = []
    k = plan.num_levels
    defined: set[int] = set()
    finals_seen: dict[int, int] = {}  # final_for level -> defining level
    for sched in plan.levels:
        level = sched.level
        for op in sched.ops:
            # operand must already be bound to an embedding position
            if not 0 <= op.operand_level <= level:
                out.append(_finding(
                    name, "PLAN001", level,
                    f"op producing S#{op.result_state} reads "
                    f"N(u{op.operand_level}) at level {level}: the operand "
                    "vertex is not yet bound (operand_level must be <= "
                    "the executing level)",
                ))
            if op.kind is OpKind.INIT_COPY:
                if op.source_state is not None:
                    out.append(_finding(
                        name, "PLAN001", level,
                        f"INIT_COPY producing S#{op.result_state} has a "
                        "source state; the first materialization reads "
                        "only N(u_i)",
                    ))
            else:
                if op.source_state is None:
                    out.append(_finding(
                        name, "PLAN001", level,
                        f"{op.kind.name} producing S#{op.result_state} "
                        "has no source state",
                    ))
                elif op.source_state not in defined:
                    out.append(_finding(
                        name, "PLAN001", level,
                        f"{op.kind.name} producing S#{op.result_state} "
                        f"consumes undefined state S#{op.source_state}",
                    ))
            if op.result_state in defined:
                out.append(_finding(
                    name, "PLAN001", level,
                    f"state S#{op.result_state} is defined twice; states "
                    "are single-assignment",
                ))
            defined.add(op.result_state)

            # ---- PLAN006 bookkeeping ----
            if not op.serves:
                out.append(_finding(
                    name, "PLAN006", level,
                    f"op producing S#{op.result_state} serves no future "
                    "level (dead op)",
                ))
            bad = [j for j in op.serves if not level < j < k]
            if bad:
                out.append(_finding(
                    name, "PLAN006", level,
                    f"op producing S#{op.result_state} serves levels "
                    f"{bad}; served levels must lie strictly between the "
                    f"executing level and k={k}",
                ))
            if op.final_for is not None:
                if op.final_for != level + 1:
                    out.append(_finding(
                        name, "PLAN006", level,
                        f"op producing S#{op.result_state} claims finality "
                        f"for level {op.final_for} at level {level}; a set "
                        "is final exactly when its level is extended next "
                        f"(expected {level + 1})",
                    ))
                if op.final_for in finals_seen:
                    out.append(_finding(
                        name, "PLAN006", level,
                        f"level {op.final_for} has two final ops (first at "
                        f"level {finals_seen[op.final_for]})",
                    ))
                finals_seen.setdefault(op.final_for, level)
        if sched.extend_state is not None and sched.extend_state not in defined:
            out.append(_finding(
                name, "PLAN001", level,
                f"extend_state S#{sched.extend_state} of level {level} is "
                "never produced by any op",
            ))
    if plan.num_states != len(defined):
        out.append(_finding(
            name, "PLAN006", 0,
            f"plan declares num_states={plan.num_states} but its levels "
            f"define {len(defined)} states",
        ))
    return out


# ----------------------------------------------------------------------
# PLAN004 — datapath legality of each op kind
# ----------------------------------------------------------------------


def _check_datapath(plan: ExecutionPlan, name: str) -> list[Finding]:
    out: list[Finding] = []
    pattern = plan.pattern
    producer: dict[int, OpKind] = {}
    for sched in plan.levels:
        level = sched.level
        for op in sched.ops:
            producer[op.result_state] = op.kind
            if not plan.vertex_induced and op.kind in (
                OpKind.SUBTRACT, OpKind.ANTI_SUBTRACT
            ):
                out.append(_finding(
                    name, "PLAN004", level,
                    f"{op.kind.name} compiled into an edge-induced plan; "
                    "subtraction ops exist only under vertex-induced "
                    "semantics",
                ))
            if op.kind in (OpKind.INIT_COPY, OpKind.INTERSECT, OpKind.SUBTRACT):
                if op.operand_level != level:
                    out.append(_finding(
                        name, "PLAN004", level,
                        f"{op.kind.name} at level {level} reads "
                        f"N(u{op.operand_level}); only ANTI_SUBTRACT may "
                        "reach back to an earlier ancestor",
                    ))
            edges_required = op.kind in (OpKind.INIT_COPY, OpKind.INTERSECT)
            for j in op.serves:
                if not 0 <= op.operand_level < pattern.num_vertices:
                    continue  # reported by PLAN001 already
                if j >= pattern.num_vertices or j < 0:
                    continue  # reported by PLAN006 already
                has_edge = pattern.has_edge(op.operand_level, j)
                if edges_required and not has_edge:
                    out.append(_finding(
                        name, "PLAN004", level,
                        f"{op.kind.name} with operand N(u{op.operand_level}) "
                        f"serves level {j}, but the pattern has no edge "
                        f"({op.operand_level}, {j}): candidates for "
                        f"u{j} must not be constrained to that "
                        "neighborhood",
                    ))
                if not edges_required and has_edge:
                    out.append(_finding(
                        name, "PLAN004", level,
                        f"{op.kind.name} with operand N(u{op.operand_level}) "
                        f"serves level {j}, but pattern edge "
                        f"({op.operand_level}, {j}) exists: subtracting a "
                        "required neighborhood empties the candidate set",
                    ))
            if op.kind is OpKind.ANTI_SUBTRACT:
                if op.operand_level >= level:
                    out.append(_finding(
                        name, "PLAN004", level,
                        "ANTI_SUBTRACT operand must be an *earlier* "
                        f"disconnected ancestor; got u{op.operand_level} "
                        f"at level {level}",
                    ))
                src_kind = (
                    producer.get(op.source_state)
                    if op.source_state is not None
                    else None
                )
                if src_kind not in (OpKind.INIT_COPY, OpKind.ANTI_SUBTRACT):
                    out.append(_finding(
                        name, "PLAN004", level,
                        "ANTI_SUBTRACT must directly extend the postponed "
                        "init chain (source produced by INIT_COPY or "
                        "ANTI_SUBTRACT) — the A − B = A − (A ∩ B) rewrite "
                        "applies only before regular ops refine the set; "
                        f"source was produced by "
                        f"{src_kind.name if src_kind else 'nothing'}",
                    ))
    return out


# ----------------------------------------------------------------------
# PLAN003 — restriction partial order + automorphism consistency
# ----------------------------------------------------------------------


def _check_restrictions(
    plan: ExecutionPlan, name: str, k: int
) -> list[Finding]:
    out: list[Finding] = []
    succ: dict[int, set[int]] = {}
    for r in plan.restrictions:
        if not (0 <= r.smaller < k and 0 <= r.larger < k):
            out.append(_finding(
                name, "PLAN003", 0,
                f"restriction {r} references a level outside 0..{k - 1}",
            ))
            continue
        if r.smaller == r.larger:
            out.append(_finding(
                name, "PLAN003", r.applies_at(),
                f"restriction {r} is irreflexive-violating (v < v)",
            ))
            continue
        succ.setdefault(r.smaller, set()).add(r.larger)

    # Strict partial order = the < relation's digraph must be acyclic
    # (v0 < v1 plus v1 < v0 is unsatisfiable and silently yields zero
    # counts).
    state: dict[int, int] = {}  # 0 visiting, 1 done

    def has_cycle(v: int) -> bool:
        state[v] = 0
        for w in sorted(succ.get(v, ())):
            if state.get(w) == 0:
                return True
            if w not in state and has_cycle(w):
                return True
        state[v] = 1
        return False

    if any(v not in state and has_cycle(v) for v in sorted(succ)):
        out.append(_finding(
            name, "PLAN003", 0,
            "restrictions contain a cycle: the induced < relation is not "
            "a strict partial order, so no embedding can satisfy them",
        ))

    autos = automorphisms(plan.pattern)
    for r in plan.restrictions:
        if not (0 <= r.smaller < k and 0 <= r.larger < k):
            continue
        if not any(perm[r.smaller] == r.larger for perm in autos):
            out.append(_finding(
                name, "PLAN003", r.applies_at(),
                f"restriction {r} relates levels in different automorphism "
                "orbits: it prunes genuinely distinct embeddings instead "
                "of deduplicating symmetric ones",
            ))
    if len(autos) > 1 and not plan.restrictions:
        out.append(_finding(
            name, "PLAN003", 0,
            f"pattern has |Aut| = {len(autos)} > 1 but the plan carries no "
            "symmetry-breaking restrictions: every embedding would be "
            f"counted {len(autos)} times",
        ))
    return out


# ----------------------------------------------------------------------
# Built-in sweep (CLI --all and CI)
# ----------------------------------------------------------------------


def verify_all_builtin() -> dict[str, list[Finding]]:
    """Verify every built-in named pattern, both semantics.

    Returns ``{job_label: findings}`` for each ``(pattern, semantics)``
    combination, in sorted label order; all-empty values mean the whole
    compiler output is statically valid.
    """
    from repro.pattern.compiler import compile_plan
    from repro.pattern.pattern import all_named_patterns

    results: dict[str, list[Finding]] = {}
    for pname, pattern in sorted(all_named_patterns().items()):
        for vertex_induced in (True, False):
            label = f"{pname}/{'vertex' if vertex_induced else 'edge'}-induced"
            plan = compile_plan(pattern, vertex_induced=vertex_induced)
            results[label] = verify_plan(plan, name=label)
    return results
