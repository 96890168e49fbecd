"""Engine edge cases and list/count consistency properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import complete_graph, erdos_renyi, from_edges
from repro.mining import count, embeddings
from repro.mining.api import plan_for
from repro.mining.engine import (
    count_embeddings,
    count_multi,
    filtered_candidates,
    list_embeddings,
    per_root_counts,
)
from repro.pattern import Pattern, compile_plan, named_pattern
from repro.pattern.multipattern import compile_multi_plan, motif_patterns


class TestFilteredCandidates:
    def test_lower_bound_applied(self):
        plan = plan_for("tc")
        cand = np.asarray([1, 5, 9], dtype=np.int32)
        out = filtered_candidates(plan, 1, cand, [5])
        assert list(out) == [9]

    def test_exclusions_applied(self):
        plan = plan_for("cyc")
        level = 2
        excl = plan.exclude_levels(level)
        assert excl  # cyc has a non-adjacent ancestor at level 2
        cand = np.asarray([0, 3, 7], dtype=np.int32)
        emb = [3, 5]
        out = filtered_candidates(plan, level, cand, emb)
        assert 3 not in out

    def test_no_filters_identity(self):
        plan = plan_for("edge")  # single edge: no restrictions at level 1?
        cand = np.asarray([2, 4], dtype=np.int32)
        out = filtered_candidates(plan, 1, cand, [0])
        # edge pattern has Aut order 2 -> one restriction v0 < v1.
        assert list(out) == [2, 4]


class TestListCountConsistency:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_count_equals_len_list(self, seed):
        g = erdos_renyi(22, 0.35, seed=seed)
        for name in ("tc", "tt", "cyc"):
            plan = plan_for(name)
            assert count_embeddings(g, plan) == len(list_embeddings(g, plan))

    @given(st.integers(0, 500), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_limit_truncates(self, seed, limit):
        g = erdos_renyi(20, 0.4, seed=seed)
        plan = plan_for("tc")
        full = len(list_embeddings(g, plan))
        limited = list_embeddings(g, plan, limit=limit)
        assert len(limited) == min(limit, full)

    def test_limit_zero_quirk(self):
        # limit smaller than the first batch still truncates promptly.
        g = complete_graph(8)
        plan = plan_for("tc")
        assert len(list_embeddings(g, plan, limit=1)) == 1


class TestPerRoot:
    def test_yields_every_root(self, k5):
        plan = plan_for("tc")
        roots = [r for r, _ in per_root_counts(k5, plan)]
        assert roots == list(range(5))

    def test_restricted_roots(self, k5):
        plan = plan_for("tc")
        pairs = dict(per_root_counts(k5, plan, roots=[1, 3]))
        assert set(pairs) == {1, 3}

    def test_single_vertex_plan(self):
        plan = compile_plan(Pattern(1, []))
        g = from_edges([(0, 1)])
        assert dict(per_root_counts(g, plan)) == {0: 1, 1: 1}


class TestDegenerateGraphs:
    def test_empty_graph_zero_counts(self):
        g = from_edges([], num_vertices=5)
        for name in ("tc", "tt", "cyc", "dia"):
            assert count(g, name) == 0

    def test_single_edge_graph(self):
        g = from_edges([(0, 1)])
        assert count(g, "edge") == 1
        assert count(g, "tc") == 0

    def test_pattern_larger_than_graph(self):
        g = complete_graph(3)
        assert count(g, "5cl") == 0
        assert embeddings(g, "4cl") == []

    def test_self_loop_free_by_construction(self):
        # Builders drop self loops; patterns reject them: counting is
        # always over simple graphs.
        g = from_edges([(0, 0), (0, 1), (1, 2), (0, 2)])
        assert count(g, "tc") == 1


class TestRootValidation:
    """Out-of-range roots are refused by name at every counting front
    door, serial or sharded, instead of failing deep in an engine or
    (negative ids) silently reading the last adjacency row."""

    GRAPH = erdos_renyi(30, 0.2, seed=1)

    def _calls(self):
        g = self.GRAPH
        tc = compile_plan(named_pattern("tc"))
        patterns, names = motif_patterns(3)
        multi = compile_multi_plan(patterns, names=names)
        return {
            "count": lambda r, **kw: count_embeddings(g, tc, roots=r, **kw),
            "per_root": lambda r, **kw: list(
                per_root_counts(g, tc, roots=r, **kw)
            ),
            "multi": lambda r, **kw: count_multi(g, multi, roots=r, **kw),
            "list": lambda r, **kw: list_embeddings(g, tc, roots=r, **kw),
        }

    @pytest.mark.parametrize("door", ["count", "per_root", "multi", "list"])
    @pytest.mark.parametrize("root", [-1, 30, 1000])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_out_of_range_root_names_root_and_size(self, door, root, jobs):
        call = self._calls()[door]
        with pytest.raises(ValueError, match=rf"root {root} .*\|V\| = 30"):
            call([0, root], jobs=jobs)

    def test_every_vertex_is_a_valid_root(self):
        g = self.GRAPH
        tc = compile_plan(named_pattern("tc"))
        assert count_embeddings(g, tc, roots=[0, 29]) == (
            count_embeddings(g, tc, roots=[0]) + count_embeddings(g, tc, roots=[29])
        )
