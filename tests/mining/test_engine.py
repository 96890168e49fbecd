"""Golden tests: the plan executor vs the brute-force oracle.

This is the correctness core of the repository: for every benchmark
pattern and a battery of structured and random graphs, the pattern-aware
engine (compiler + restrictions + incremental set ops) must agree with an
independent backtracking matcher.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edges,
    path_graph,
    star_graph,
)
from repro.mining import (
    count,
    count_instances_bruteforce,
    embeddings,
    motif_census,
)
from repro.mining.engine import count_embeddings, list_embeddings, per_root_counts
from repro.mining.api import plan_for
from repro.pattern import named_pattern, compile_plan, Pattern

BENCH_PATTERNS = ["tc", "4cl", "5cl", "tt", "cyc", "dia", "wedge", "3path", "star3"]


class TestKnownCounts:
    def test_k5_cliques(self, k5):
        assert count(k5, "tc") == 10
        assert count(k5, "4cl") == 5
        assert count(k5, "5cl") == 1

    def test_k5_has_no_induced_sparse_patterns(self, k5):
        # Vertex-induced: K5 contains no induced wedge/path/cycle.
        assert count(k5, "wedge") == 0
        assert count(k5, "cyc") == 0
        assert count(k5, "tt") == 0

    def test_c6_counts(self, c6):
        assert count(c6, "tc") == 0
        assert count(c6, "wedge") == 6
        assert count(c6, "3path") == 6
        assert count(c6, "cyc") == 0  # no induced 4-cycle in C6

    def test_c4_cycle(self):
        assert count(cycle_graph(4), "cyc") == 1

    def test_star_wedges(self, star10):
        assert count(star10, "wedge") == 45  # C(10, 2)
        assert count(star10, "tc") == 0
        assert count(star10, "star3") == 120  # C(10, 3)

    def test_path_graph(self, p4):
        assert count(p4, "3path") == 1
        assert count(p4, "wedge") == 2

    def test_paper_graph_tailed_triangles(self, paper_graph):
        got = count(paper_graph, "tt")
        oracle = count_instances_bruteforce(paper_graph, named_pattern("tt"))
        assert got == oracle


class TestAgainstOracle:
    @pytest.mark.parametrize("name", BENCH_PATTERNS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_vertex_induced(self, name, seed):
        g = erdos_renyi(18, 0.35, seed=seed)
        pattern = named_pattern(name)
        assert count(g, name) == count_instances_bruteforce(g, pattern)

    @pytest.mark.parametrize("name", ["tc", "tt", "cyc", "dia", "wedge"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_graphs_edge_induced(self, name, seed):
        g = erdos_renyi(16, 0.3, seed=seed)
        pattern = named_pattern(name)
        got = count(g, name, vertex_induced=False)
        oracle = count_instances_bruteforce(g, pattern, vertex_induced=False)
        assert got == oracle

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_triangles_on_larger_random_graphs(self, seed):
        g = erdos_renyi(80, 0.15, seed=seed)
        assert count(g, "tc") == count_instances_bruteforce(
            g, named_pattern("tc")
        )

    @pytest.mark.parametrize("name", ["house"])
    def test_five_vertex_pattern(self, name):
        g = erdos_renyi(14, 0.4, seed=9)
        assert count(g, name) == count_instances_bruteforce(
            g, named_pattern(name)
        )

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_triangles(self, seed):
        g = erdos_renyi(15, 0.4, seed=seed)
        assert count(g, "tc") == count_instances_bruteforce(
            g, named_pattern("tc")
        )

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_random_cyc(self, seed):
        g = erdos_renyi(14, 0.35, seed=seed)
        assert count(g, "cyc") == count_instances_bruteforce(
            g, named_pattern("cyc")
        )


class TestEmbeddings:
    def test_k4_triangle_embeddings(self):
        embs = embeddings(complete_graph(4), "tc")
        assert len(embs) == 4
        # Symmetry breaking: tuples ascending.
        assert all(a < b < c for a, b, c in embs)

    def test_embeddings_are_actual_matches(self, small_random):
        pattern = named_pattern("tt")
        plan = plan_for("tt")
        for emb in embeddings(small_random, "tt"):
            relabelled = plan.pattern
            for i in range(4):
                for j in range(i + 1, 4):
                    has = small_random.has_edge(emb[i], emb[j])
                    assert has == relabelled.has_edge(i, j)

    def test_limit(self, k5):
        embs = embeddings(complete_graph(6), "tc", limit=3)
        assert len(embs) == 3

    def test_count_matches_listing(self, small_random):
        for name in ["tc", "tt", "cyc", "dia"]:
            assert count(small_random, name) == len(embeddings(small_random, name))

    def test_embeddings_unique(self, small_random):
        embs = embeddings(small_random, "dia")
        assert len(embs) == len(set(embs))


class TestRootsAndPerRoot:
    def test_per_root_sums_to_total(self, small_random):
        plan = plan_for("tc")
        total = sum(c for _, c in per_root_counts(small_random, plan))
        assert total == count(small_random, "tc")

    def test_roots_subset(self, k5):
        plan = plan_for("tc")
        assert count_embeddings(k5, plan, roots=[0]) == 6  # C(4,2) pairs above 0
        assert count_embeddings(k5, plan, roots=[4]) == 0  # nothing above 4

    def test_single_vertex_pattern(self):
        plan = compile_plan(Pattern(1, []))
        g = erdos_renyi(7, 0.5, seed=0)
        assert count_embeddings(g, plan) == 7

    def test_two_vertex_pattern(self, k5):
        plan = compile_plan(named_pattern("edge"))
        assert count_embeddings(k5, plan) == 10


class TestMotifCensus:
    def test_3mc_on_k5(self, k5):
        census = motif_census(k5, 3)
        assert census["tc"] == 10
        assert census["wedge"] == 0

    def test_3mc_matches_individual_counts(self, small_random):
        census = motif_census(small_random, 3)
        assert census["tc"] == count(small_random, "tc")
        assert census["wedge"] == count(small_random, "wedge")

    def test_4motif_census_total(self, small_random):
        """Every induced connected 4-set is counted in exactly one motif."""
        census = motif_census(small_random, 4)
        from itertools import combinations
        from repro.graph import induced_subgraph

        total_connected = 0
        for quad in combinations(range(small_random.num_vertices), 4):
            sub, _ = induced_subgraph(small_random, list(quad))
            from repro.pattern import Pattern as P

            pat = P(4, list(sub.edges()))
            if pat.is_connected():
                total_connected += 1
        assert sum(census.values()) == total_connected
