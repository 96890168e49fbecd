"""Agreement sweep: every kernel policy and engine counts identically.

The policy contract (docs/KERNELS.md) is that the execution engine
(frontier vs recursive), the frontier's spill budget and its membership
kernel (bitmap or edge-key) are *functional-only*: for all 11 built-in
patterns, both induced semantics, and any policy the counts — and the
per-root count sequences — are bit-identical to the recursive
merge-based oracle.
"""

import pytest

from repro.graph.datasets import load_dataset
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.mining.engine import (
    count_embeddings,
    list_embeddings,
    per_root_counts,
)
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import all_named_patterns, named_pattern
from repro.setops import segmented
from repro.setops.kernels import (
    KernelPolicy,
    kernel_counters,
    reset_kernel_counters,
)

#: The plan-level oracle: sort-based merges, per-child recursion at
#: every level (paper Figure 2).
ORACLE = KernelPolicy(engine="recursive")

#: name -> (policy, bitmap budget).  A budget of 0 patches the
#: membership dispatch so every probe takes the edge-key kernel; ``None``
#: keeps the module default (these test graphs all get the bitmap).
POLICIES = {
    "default": (None, None),
    "recursive": (ORACLE, None),
    "frontier": (KernelPolicy(engine="frontier"), None),
    "frontier-tiny-spill": (
        KernelPolicy(engine="frontier", frontier_budget_bytes=1), None
    ),
    "frontier-edgekey": (KernelPolicy(engine="frontier"), 0),
}


def _across_policies(run):
    """``(name, run(policy))`` for every entry of :data:`POLICIES`, each
    run under its bitmap budget."""
    results = []
    for name, (policy, budget) in POLICIES.items():
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(segmented, "BITMAP_BUDGET_BYTES", budget)
            results.append((name, run(policy)))
    return results


GRAPHS = {
    "er": erdos_renyi(90, 0.15, seed=7),
    "ba": barabasi_albert(110, 5, seed=3),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("vertex_induced", [True, False])
@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_counts_identical_across_policies(pattern, vertex_induced, graph_name):
    graph = GRAPHS[graph_name]
    plan = compile_plan(
        named_pattern(pattern), vertex_induced=vertex_induced
    )
    reference = count_embeddings(graph, plan, kernels=ORACLE)
    for name, got in _across_policies(
        lambda policy: count_embeddings(graph, plan, kernels=policy)
    ):
        assert got == reference, (
            f"{pattern} vertex_induced={vertex_induced} on {graph_name}: "
            f"policy {name} counted {got}, oracle counted {reference}"
        )


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_per_root_sequences_identical_across_engines(pattern, graph_name):
    """Both engines yield identical (root, count) pairs in identical
    order — the sharded merge and the PE schedulers rely on this."""
    graph = GRAPHS[graph_name]
    plan = compile_plan(named_pattern(pattern))
    reference = list(per_root_counts(graph, plan, kernels=ORACLE))
    for name, got in _across_policies(
        lambda policy: list(per_root_counts(graph, plan, kernels=policy))
    ):
        assert got == reference, f"policy {name} per-root sequence differs"


@pytest.mark.parametrize("pattern", ["tc", "4cl", "tt", "house"])
def test_listing_identical_across_policies(pattern):
    graph = GRAPHS["ba"]
    plan = compile_plan(named_pattern(pattern))
    reference = list_embeddings(graph, plan, kernels=ORACLE)
    for name, got in _across_policies(
        lambda policy: list_embeddings(graph, plan, kernels=policy)
    ):
        assert got == reference, f"policy {name} listed differently"


def test_default_policy_equals_explicit_none():
    graph = GRAPHS["er"]
    plan = compile_plan(named_pattern("tt"))
    assert count_embeddings(graph, plan) == count_embeddings(
        graph, plan, kernels=KernelPolicy()
    )


def test_sharded_counts_match_kernel_policies():
    """Workers inherit the caller's policy; totals must match serial runs
    of every engine."""
    graph = GRAPHS["ba"]
    plan = compile_plan(named_pattern("4cl"))
    serial = count_embeddings(graph, plan, kernels=ORACLE)
    assert count_embeddings(graph, plan, jobs=2) == serial
    assert count_embeddings(graph, plan, jobs=2, kernels=ORACLE) == serial
    assert (
        count_embeddings(
            graph, plan, jobs=2, kernels=KernelPolicy(engine="frontier")
        )
        == serial
    )


def test_batcher_respects_roots_subset():
    """The frontier's fused terminal level honours a roots subset."""
    graph = GRAPHS["er"]
    plan = compile_plan(named_pattern("tc"))
    roots = [0, 5, 9, 44]
    assert count_embeddings(graph, plan, roots=roots) == count_embeddings(
        graph, plan, roots=roots, kernels=ORACLE
    )


@pytest.mark.parametrize("vertex_induced", [True, False])
@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_searched_order_counts_identical(pattern, vertex_induced):
    """A cost-model-searched vertex order never changes totals — on
    either engine (the order swap the auto-tuner builds on)."""
    from repro.pattern.ordering import compile_plan_searched

    graph = GRAPHS["er"]
    reference = count_embeddings(
        graph,
        compile_plan(named_pattern(pattern), vertex_induced=vertex_induced),
        kernels=ORACLE,
    )
    searched = compile_plan_searched(
        named_pattern(pattern), graph=graph, vertex_induced=vertex_induced
    )
    for engine in ("frontier", "recursive"):
        got = count_embeddings(
            graph, searched, kernels=KernelPolicy(engine=engine)
        )
        assert got == reference, (
            f"{pattern} searched order {searched.vertex_order} on "
            f"{engine}: counted {got}, oracle counted {reference}"
        )


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_every_tuner_candidate_counts_identical(pattern, graph_name):
    """Every candidate the tuner could trial — each ranked order —
    produces the reference total.

    The tuner additionally rejects candidates whose *per-root* pairs
    diverge (re-rooted attribution); totals must agree even for those.
    """
    from repro.pattern.compiler import compile_plan as _compile
    from repro.tuning import generate_candidates, original_pattern

    graph = GRAPHS[graph_name]
    plan = compile_plan(named_pattern(pattern))
    reference = count_embeddings(graph, plan, kernels=ORACLE)
    candidates = generate_candidates(graph, plan)
    assert candidates[0].label == "reference"
    for candidate in candidates:
        cand_plan = _compile(
            original_pattern(plan),
            order=candidate.order,
            vertex_induced=plan.vertex_induced,
        )
        got = count_embeddings(graph, cand_plan)
        assert got == reference, (
            f"{pattern} on {graph_name}: candidate {candidate.label} "
            f"(order {candidate.order}) counted {got}, oracle "
            f"counted {reference}"
        )


@pytest.mark.parametrize("engine", ["frontier", "recursive"])
@pytest.mark.parametrize("pattern", ["tc", "tt", "cyc", "house"])
def test_tuned_policy_counts_and_roots_identical(pattern, engine):
    """KernelPolicy(tuned=True) resolves to a plan whose totals
    AND per-root sequences match the untuned run on either base engine."""
    graph = GRAPHS["er"]
    plan = compile_plan(named_pattern(pattern))
    tuned = KernelPolicy(engine=engine, tuned=True)
    reference = count_embeddings(graph, plan, kernels=ORACLE)
    assert count_embeddings(graph, plan, kernels=tuned) == reference
    assert list(per_root_counts(graph, plan, kernels=tuned)) == list(
        per_root_counts(graph, plan, kernels=ORACLE)
    )


def test_tuned_listing_matches_untuned():
    """Listing strips the tuned flag: embeddings come back in the
    reference plan's order, not the tuned plan's."""
    graph = GRAPHS["ba"]
    plan = compile_plan(named_pattern("tt"))
    assert list_embeddings(
        graph, plan, kernels=KernelPolicy(tuned=True)
    ) == list_embeddings(graph, plan, kernels=ORACLE)


@pytest.mark.parametrize("pattern", ["tt", "house"])
def test_over_budget_analog_counts_on_edgekey(pattern):
    """The Yo analog's adjacency bitmap is over the dispatch budget, so
    the frontier engine counts it through the edge-key kernel alone —
    and still matches the oracle on a strided root sample."""
    graph = load_dataset("Yo")
    assert graph.adjacency_bitmap_bytes() > segmented.BITMAP_BUDGET_BYTES
    plan = compile_plan(named_pattern(pattern))
    roots = range(0, graph.num_vertices, 16)
    reset_kernel_counters()
    got = count_embeddings(graph, plan, roots=roots)
    kernels = {
        key.split("/")[1] for key in kernel_counters()
        if key.startswith("seg_")
    }
    assert kernels == {"edgekey"}
    assert got == count_embeddings(graph, plan, roots=roots, kernels=ORACLE)
