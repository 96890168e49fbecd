"""Property-based tests of the CSR invariants under random edge lists."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges, relabel_by_degree

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=120
)


class TestBuilderProperties:
    @given(edge_lists)
    @settings(max_examples=150)
    def test_invariants_always_hold(self, edges):
        g = from_edges(edges)
        # Sorted strictly increasing rows.
        for v in range(g.num_vertices):
            nbrs = g.neighbors(v)
            assert all(nbrs[i] < nbrs[i + 1] for i in range(len(nbrs) - 1))
            assert v not in nbrs
        # Symmetry.
        for u, v in g.edges():
            assert g.has_edge(v, u)

    @given(edge_lists)
    @settings(max_examples=100)
    def test_edge_count_matches_cleaned_input(self, edges):
        g = from_edges(edges)
        cleaned = {frozenset(e) for e in edges if e[0] != e[1]}
        assert g.num_edges == len(cleaned)

    @given(edge_lists)
    @settings(max_examples=100)
    def test_degree_sum_is_twice_edges(self, edges):
        g = from_edges(edges)
        assert int(g.degrees().sum()) == 2 * g.num_edges

    @given(edge_lists)
    @settings(max_examples=60)
    def test_rebuild_is_identity(self, edges):
        g = from_edges(edges)
        rebuilt = from_edges(list(g.edges()), num_vertices=g.num_vertices)
        assert rebuilt == g

    @given(edge_lists)
    @settings(max_examples=60)
    def test_has_edge_consistent_with_edges(self, edges):
        g = from_edges(edges)
        listed = set(g.edges())
        for u in range(g.num_vertices):
            for v in range(u + 1, g.num_vertices):
                assert g.has_edge(u, v) == ((u, v) in listed)


#: Edge lists with self loops and with duplicate and reversed pairs.
messy_edge_lists = edge_lists.map(
    lambda es: es + [(v, u) for u, v in es[::3]] + es[::4] + [(u, u) for u, _ in es[::5]]
)


def _reference(edges, n):
    """Dict-of-sets adjacency of the simple undirected graph on ``n``
    vertices that ``edges`` describes."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


class TestAgainstReference:
    @given(messy_edge_lists, st.integers(0, 4), st.booleans())
    @settings(max_examples=150)
    def test_from_edges_and_edges_match_dict_of_sets(self, edges, extra, as_array):
        n = max((max(e) for e in edges), default=-1) + 1 + extra
        arg = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
        g = from_edges(arg, num_vertices=n)
        adj = _reference(edges, n)
        assert g.num_vertices == n
        for v in range(n):
            assert g.neighbors(v).tolist() == sorted(adj[v])
        expected = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
        listed = list(g.edges())
        assert listed == expected
        assert all(type(x) is int for edge in listed for x in edge)
        assert g.edge_array().tolist() == [list(e) for e in expected]

    @given(messy_edge_lists, st.booleans())
    @settings(max_examples=100)
    def test_relabel_by_degree_matches_dict_of_sets(self, edges, descending):
        g = from_edges(edges)
        n = g.num_vertices
        adj = _reference(edges, n)
        # Stable: ties keep ascending old ids.
        order = sorted(
            range(n), key=lambda v: -len(adj[v]) if descending else len(adj[v])
        )
        new_id = {old: new for new, old in enumerate(order)}
        relabelled = relabel_by_degree(g, descending=descending)
        assert relabelled.num_vertices == n
        for old in range(n):
            assert relabelled.neighbors(new_id[old]).tolist() == sorted(
                new_id[w] for w in adj[old]
            )
