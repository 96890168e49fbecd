"""Candidate generation: the ranked vertex orders and their invariants."""

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import all_named_patterns, named_pattern
from repro.tuning import generate_candidates, original_pattern
from repro.tuning.candidates import TOP_ORDERS

ER = erdos_renyi(90, 0.15, seed=7)
BA = barabasi_albert(110, 5, seed=3)


@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_original_pattern_round_trips(pattern):
    """Inverting the plan's relabeling recovers an isomorphic copy of
    the caller's pattern: recompiling it with the plan's own order
    reproduces the plan's internal pattern."""
    plan = compile_plan(named_pattern(pattern))
    original = original_pattern(plan)
    recompiled = compile_plan(original, order=tuple(plan.vertex_order))
    assert recompiled.pattern == plan.pattern


@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_reference_candidate_is_first_and_unchanged(pattern):
    plan = compile_plan(named_pattern(pattern))
    candidates = generate_candidates(ER, plan)
    ref = candidates[0]
    assert ref.label == "reference"
    assert ref.order == tuple(plan.vertex_order)


def test_candidates_are_unique_and_bounded():
    plan = compile_plan(named_pattern("house"))
    candidates = generate_candidates(ER, plan)
    assert len({c.order for c in candidates}) == len(candidates)
    assert 1 <= len(candidates) <= TOP_ORDERS + 1


@pytest.mark.parametrize("graph", [ER, BA], ids=["er", "ba"])
@pytest.mark.parametrize("pattern", ["tt", "cyc", "house", "5cl"])
def test_candidates_are_distinct_orders_reference_first(pattern, graph):
    """The pool is the reference order, then the ranked orders that
    differ from it, each once and labeled by rank."""
    plan = compile_plan(named_pattern(pattern))
    candidates = generate_candidates(graph, plan)
    orders = [c.order for c in candidates]
    assert orders[0] == tuple(plan.vertex_order)
    assert len(set(orders)) == len(orders)
    assert [c.label for c in candidates] == ["reference"] + [
        f"o{rank}" for rank in range(1, len(candidates))
    ]


def test_candidate_orders_share_the_root_orbit():
    """Every candidate's level-0 vertex sits in the automorphism orbit
    of the reference root — the necessary condition for per-root
    attribution to survive the reorder."""
    from repro.pattern.automorphism import orbits

    plan = compile_plan(named_pattern("cyc"))
    pattern = original_pattern(plan)
    root = tuple(plan.vertex_order)[0]
    orbit = next(o for o in orbits(pattern) if root in o)
    for candidate in generate_candidates(ER, plan):
        assert candidate.order[0] in orbit, candidate.label
