"""Tier-B plan verifier: every built-in plan passes; every deliberately
corrupted plan is rejected with the right rule ID."""

import dataclasses

import pytest

from repro.analysis import verify_all_builtin, verify_plan
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import named_pattern
from repro.pattern.plan import LevelSchedule, OpKind, SetOp
from repro.pattern.symmetry import Restriction


def plan_for(name="tt", vertex_induced=True):
    return compile_plan(named_pattern(name), vertex_induced=vertex_induced)


def rules_of(findings):
    return {f.rule for f in findings}


def replace_op(plan, level, op_idx, **changes):
    """Copy ``plan`` with one op rewritten (frozen dataclasses)."""
    sched = plan.levels[level]
    ops = list(sched.ops)
    ops[op_idx] = dataclasses.replace(ops[op_idx], **changes)
    levels = list(plan.levels)
    levels[level] = dataclasses.replace(sched, ops=tuple(ops))
    return dataclasses.replace(plan, levels=tuple(levels))


# ----------------------------------------------------------------------
# valid plans
# ----------------------------------------------------------------------


def test_every_builtin_plan_is_statically_valid():
    results = verify_all_builtin()
    assert results, "sweep must cover the built-in patterns"
    bad = {label: f for label, f in results.items() if f}
    assert bad == {}


# ----------------------------------------------------------------------
# PLAN001 — def-before-use
# ----------------------------------------------------------------------


def test_plan001_undefined_source_state():
    plan = plan_for("4cl")
    # Find an op that consumes a source and point it at a bogus state.
    for level, sched in enumerate(plan.levels):
        for i, op in enumerate(sched.ops):
            if op.source_state is not None:
                broken = replace_op(plan, level, i, source_state=987)
                assert "PLAN001" in rules_of(verify_plan(broken))
                return
    pytest.fail("no consuming op found")


def test_plan001_operand_not_yet_bound():
    plan = plan_for("tc")
    broken = replace_op(plan, 0, 0, operand_level=2)
    assert "PLAN001" in rules_of(verify_plan(broken))


def test_plan001_duplicate_state_definition():
    plan = plan_for("4cl")
    second = plan.levels[1]
    assert second.ops, "4cl must schedule ops at level 1"
    first_state = plan.levels[0].ops[0].result_state
    broken = replace_op(plan, 1, 0, result_state=first_state)
    assert "PLAN001" in rules_of(verify_plan(broken))


# ----------------------------------------------------------------------
# PLAN002 — level coverage
# ----------------------------------------------------------------------


def test_plan002_missing_level_schedule():
    plan = plan_for("4cl")
    broken = dataclasses.replace(plan, levels=plan.levels[:-1])
    assert "PLAN002" in rules_of(verify_plan(broken))


def test_plan002_mislabelled_level():
    plan = plan_for("tt")
    levels = list(plan.levels)
    levels[1] = dataclasses.replace(levels[1], level=5)
    broken = dataclasses.replace(plan, levels=tuple(levels))
    assert "PLAN002" in rules_of(verify_plan(broken))


def test_plan002_missing_extend_state():
    plan = plan_for("tc")
    levels = list(plan.levels)
    levels[0] = dataclasses.replace(levels[0], extend_state=None)
    broken = dataclasses.replace(plan, levels=tuple(levels))
    assert "PLAN002" in rules_of(verify_plan(broken))


# ----------------------------------------------------------------------
# PLAN003 — restriction partial order / automorphism consistency
# ----------------------------------------------------------------------


def test_plan003_cyclic_restrictions():
    plan = plan_for("tc")
    broken = dataclasses.replace(
        plan,
        restrictions=(
            Restriction(smaller=0, larger=1),
            Restriction(smaller=1, larger=0),
        ),
    )
    assert "PLAN003" in rules_of(verify_plan(broken))


def test_plan003_restriction_outside_levels():
    plan = plan_for("tc")
    broken = dataclasses.replace(
        plan, restrictions=(Restriction(smaller=0, larger=9),)
    )
    assert "PLAN003" in rules_of(verify_plan(broken))


def test_plan003_dropped_restrictions_on_symmetric_pattern():
    plan = plan_for("5cl")  # |Aut| = 120: restrictions are mandatory
    broken = dataclasses.replace(plan, restrictions=())
    assert "PLAN003" in rules_of(verify_plan(broken))


def test_plan003_cross_orbit_restriction():
    plan = plan_for("tt")  # tail vertex is in its own orbit
    order = plan.vertex_order
    # The tailed triangle's only symmetry swaps the two non-anchor
    # triangle vertices; a restriction pairing the tail with a triangle
    # vertex relates different orbits.
    tail_level = order.index(3)
    anchor_level = order.index(0)
    lo, hi = sorted((tail_level, anchor_level))
    broken = dataclasses.replace(
        plan, restrictions=(Restriction(smaller=lo, larger=hi),)
    )
    assert "PLAN003" in rules_of(verify_plan(broken))


# ----------------------------------------------------------------------
# PLAN004 — datapath legality
# ----------------------------------------------------------------------


def test_plan004_intersect_without_pattern_edge():
    plan = plan_for("cyc")  # 4-cycle: has non-edges across the diagonal
    # Turn a SUBTRACT into an INTERSECT: now a non-edge is intersected.
    for level, sched in enumerate(plan.levels):
        for i, op in enumerate(sched.ops):
            if op.kind is OpKind.SUBTRACT:
                broken = replace_op(plan, level, i, kind=OpKind.INTERSECT)
                assert "PLAN004" in rules_of(verify_plan(broken))
                return
    pytest.fail("cyc plan should contain a SUBTRACT op")


def test_plan004_subtract_of_required_edge():
    plan = plan_for("tc")
    # tc is a clique: every operand serves an edge, so SUBTRACT is illegal.
    for level, sched in enumerate(plan.levels):
        for i, op in enumerate(sched.ops):
            if op.kind is OpKind.INTERSECT:
                broken = replace_op(plan, level, i, kind=OpKind.SUBTRACT)
                assert "PLAN004" in rules_of(verify_plan(broken))
                return
    pytest.fail("tc plan should contain an INTERSECT op")


def test_plan004_subtraction_in_edge_induced_plan():
    plan = plan_for("cyc", vertex_induced=True)
    broken = dataclasses.replace(plan, vertex_induced=False)
    assert "PLAN004" in rules_of(verify_plan(broken))


def test_plan004_anti_subtract_reaching_forward():
    # The 4-cycle's vertex-induced plan postpones the (0, 2) non-edge,
    # so it is guaranteed to contain an ANTI_SUBTRACT.
    plan = plan_for("cyc")
    for level, sched in enumerate(plan.levels):
        for i, op in enumerate(sched.ops):
            if op.kind is OpKind.ANTI_SUBTRACT:
                broken = replace_op(plan, level, i, operand_level=level)
                assert "PLAN004" in rules_of(verify_plan(broken))
                return
    pytest.fail("cyc plan should contain an ANTI_SUBTRACT op")


# ----------------------------------------------------------------------
# PLAN005 — ordering / connectivity
# ----------------------------------------------------------------------


def test_plan005_vertex_order_not_a_permutation():
    plan = plan_for("tc")
    broken = dataclasses.replace(plan, vertex_order=(0, 0, 2))
    assert "PLAN005" in rules_of(verify_plan(broken))


def test_plan005_disconnected_ordering():
    plan = plan_for("3path")
    # Relabel the pattern so level 1 has no earlier neighbor: pattern
    # edges (0,1)(1,2)(2,3) under identity order are fine, but order
    # (0,3,...) breaks connectivity.  Build the broken pattern directly.
    broken_pattern = named_pattern("3path").relabel((0, 2, 1, 3))
    broken = dataclasses.replace(plan, pattern=broken_pattern)
    assert "PLAN005" in rules_of(verify_plan(broken))


# ----------------------------------------------------------------------
# PLAN006 — serves/final bookkeeping
# ----------------------------------------------------------------------


def test_plan006_dead_op():
    plan = plan_for("tc")
    broken = replace_op(plan, 0, 0, serves=())
    assert "PLAN006" in rules_of(verify_plan(broken))


def test_plan006_served_level_out_of_range():
    plan = plan_for("tc")
    broken = replace_op(plan, 0, 0, serves=(9,))
    assert "PLAN006" in rules_of(verify_plan(broken))


def test_plan006_wrong_final_level():
    plan = plan_for("4cl")
    for level, sched in enumerate(plan.levels):
        for i, op in enumerate(sched.ops):
            if op.final_for is not None:
                broken = replace_op(plan, level, i, final_for=op.final_for + 1)
                assert "PLAN006" in rules_of(verify_plan(broken))
                return
    pytest.fail("no final op found")


def test_plan006_state_count_mismatch():
    plan = plan_for("tc")
    broken = dataclasses.replace(plan, num_states=plan.num_states + 3)
    assert "PLAN006" in rules_of(verify_plan(broken))
