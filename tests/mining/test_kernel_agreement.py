"""Agreement sweep: every kernel policy and engine counts identically.

The policy contract (docs/KERNELS.md) is that the execution engine
(frontier vs recursive), the frontier's spill budget and its membership
kernel (bitmap or edge-key) are *functional-only*: for all 11 built-in
patterns, both induced semantics, and any policy the counts — and the
per-root count sequences — are bit-identical to the recursive
merge-based oracle.
"""

from itertools import permutations

import pytest

from repro.graph.datasets import load_dataset
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.mining import frontier
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

FRONTIER = KernelPolicy(engine="frontier")

#: name -> (policy, module constants to patch).  A 1-byte spill budget
#: makes the frontier spill every row; a bitmap budget of 0 sends every
#: membership probe to the edge-key kernel.  Unpatched constants keep
#: the module defaults (these test graphs all get the bitmap).
POLICIES = {
    "default": (None, {}),
    "recursive": (ORACLE, {}),
    "frontier": (FRONTIER, {}),
    "frontier-tiny-spill": (FRONTIER, {(frontier, "FRONTIER_BUDGET_BYTES"): 1}),
    "frontier-edgekey": (FRONTIER, {(segmented, "BITMAP_BUDGET_BYTES"): 0}),
}


def _across_policies(run):
    """``(name, run(policy))`` for every entry of :data:`POLICIES`, each
    run with its constants patched."""
    results = []
    for name, (policy, patches) in POLICIES.items():
        with pytest.MonkeyPatch.context() as mp:
            for (module, attr), value in patches.items():
                mp.setattr(module, attr, value)
            results.append((name, run(policy)))
    return results


GRAPHS = {
    "er": erdos_renyi(90, 0.15, seed=7),
    "ba": barabasi_albert(110, 5, seed=3),
    # Small enough for the recursive engine to walk every vertex order
    # of every named pattern, dense enough to hold a 5-clique.
    "dense": erdos_renyi(12, 0.5, seed=7),
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
    """Listing takes no policy; what it lists is exactly what every
    policy counts."""
    graph = GRAPHS["ba"]
    plan = compile_plan(named_pattern(pattern))
    listed = list_embeddings(graph, plan)
    assert len(set(listed)) == len(listed)
    for name, got in _across_policies(
        lambda policy: count_embeddings(graph, plan, kernels=policy)
    ):
        assert got == len(listed), f"policy {name} counted differently"


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


def _connectivity_preserving_orders(pattern):
    """Every vertex order in which each vertex after the first is
    adjacent to an earlier one."""
    k = pattern.num_vertices
    return [
        order
        for order in permutations(range(k))
        if all(
            any(pattern.has_edge(u, order[i]) for u in order[:i])
            for i in range(1, k)
        )
    ]


@pytest.mark.parametrize("graph_name", ["ba", "er"])
@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_every_tuner_candidate_counts_identical(pattern, graph_name):
    """Every order swap that keeps per-root attribution possible — each
    connectivity-preserving order whose level-0 vertex shares the
    reference root's automorphism orbit — produces the reference total
    on the default engine.

    Per-root pairs may still diverge under such a swap (re-rooted
    attribution); totals must agree even then.
    """
    from repro.pattern.automorphism import orbits

    graph = GRAPHS[graph_name]
    named = named_pattern(pattern)
    plan = compile_plan(named)
    reference = count_embeddings(graph, plan, kernels=ORACLE)
    root_orbit = next(
        orbit for orbit in orbits(named) if plan.vertex_order[0] in orbit
    )
    orders = [
        order for order in _connectivity_preserving_orders(named)
        if order[0] in root_orbit
    ]
    assert tuple(plan.vertex_order) in orders
    for order in orders:
        got = count_embeddings(graph, compile_plan(named, order=order))
        assert got == reference, (
            f"{pattern} on {graph_name}: order {order} counted {got}, "
            f"oracle counted {reference}"
        )


@pytest.mark.parametrize("vertex_induced", [True, False])
@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_searched_order_counts_identical(pattern, vertex_induced):
    """No vertex order changes totals, on either engine: every
    connectivity-preserving order counts what the compiler's order
    counts (on the ``dense`` graph)."""
    named = named_pattern(pattern)
    graph = GRAPHS["dense"]
    reference = count_embeddings(
        graph, compile_plan(named, vertex_induced=vertex_induced),
        kernels=ORACLE,
    )
    for order in _connectivity_preserving_orders(named):
        plan = compile_plan(named, order=order, vertex_induced=vertex_induced)
        for engine in ("frontier", "recursive"):
            got = count_embeddings(
                graph, plan, kernels=KernelPolicy(engine=engine)
            )
            assert got == reference, (
                f"{pattern} order {plan.vertex_order} on dense, "
                f"{engine}: counted {got}, oracle counted {reference}"
            )


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
