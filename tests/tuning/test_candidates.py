"""Candidate generation: the order × policy grid and its invariants."""

from dataclasses import replace

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import all_named_patterns, named_pattern
from repro.setops.kernels import KernelPolicy
from repro.tuning import generate_candidates, original_pattern, policy_grid
from repro.tuning.candidates import TunerCandidate
from repro.tuning.signature import graph_signature

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
    candidates = generate_candidates(ER, plan, KernelPolicy())
    ref = candidates[0]
    assert ref.label == "reference"
    assert ref.order == tuple(plan.vertex_order)
    assert ref.policy == KernelPolicy()


def test_candidates_are_unique_and_bounded():
    plan = compile_plan(named_pattern("house"))
    candidates = generate_candidates(ER, plan, KernelPolicy())
    seen = {(c.order, c.policy) for c in candidates}
    assert len(seen) == len(candidates)
    assert 1 <= len(candidates) <= 24


def test_candidate_orders_share_the_root_orbit():
    """Every candidate's level-0 vertex sits in the automorphism orbit
    of the reference root — the necessary condition for per-root
    attribution to survive the reorder."""
    from repro.pattern.automorphism import orbits

    plan = compile_plan(named_pattern("cyc"))
    pattern = original_pattern(plan)
    root = tuple(plan.vertex_order)[0]
    orbit = next(o for o in orbits(pattern) if root in o)
    for candidate in generate_candidates(ER, plan, KernelPolicy()):
        assert candidate.order[0] in orbit, candidate.label


def test_candidates_reject_tuned_policies():
    with pytest.raises(ValueError, match="concrete"):
        TunerCandidate(
            label="bad", order=(0, 1, 2), policy=KernelPolicy(tuned=True)
        )


def test_policy_grid_contains_base_and_flipped_engine():
    grid = dict(policy_grid(KernelPolicy(), graph_signature(ER)))
    assert grid["base"] == KernelPolicy()
    assert grid["recursive"].engine == "recursive"


def test_policy_grid_strips_the_tuned_flag():
    grid = policy_grid(KernelPolicy(tuned=True), graph_signature(ER))
    assert all(not policy.tuned for _, policy in grid)


def test_policy_grid_gates_hub_variant_on_hub_mass():
    """No grid entry is gated on hub mass any more: a hub-heavy graph
    gets no hub variant, and zeroing its hub mass leaves the grid as is."""
    sig = graph_signature(BA)
    assert sig.hub_mass >= 0.05
    labels_hubby = [n for n, _ in policy_grid(KernelPolicy(), sig)]
    assert "hubs-eager" not in labels_hubby
    labels_flat = [
        n for n, _ in policy_grid(KernelPolicy(), replace(sig, hub_mass=0.0))
    ]
    assert labels_hubby == labels_flat


def test_policy_grid_respects_forced_kernels():
    """A forced segment kernel pins the membership kernel, so the grid
    offers no bitmap-budget variant even where the adjacency bitmap
    would fit a raised budget."""
    base = KernelPolicy()
    sig = replace(
        graph_signature(ER),
        bitmap_fit_bytes=2 * base.segment_bitmap_bytes,
    )
    assert "bitmap-budget" in {n for n, _ in policy_grid(base, sig)}
    labels = {
        n for n, _ in policy_grid(
            replace(base, force_segment_kernel="bisect"), sig
        )
    }
    assert "bitmap-budget" not in labels
    assert "gallop-eager" not in labels


def test_policy_grid_spans_only_surviving_knobs():
    """The default grid varies only knobs the engines still read."""
    for graph in (ER, BA):
        labels = {
            n for n, _ in policy_grid(KernelPolicy(), graph_signature(graph))
        }
        assert labels <= {"base", "recursive", "bitmap-budget"}
