"""Tests for the synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edges,
    path_graph,
    planted_cliques,
    powerlaw_configuration,
    rmat,
    star_graph,
)
from repro.mining import count


class TestErdosRenyi:
    def test_determinism(self):
        assert erdos_renyi(100, 0.1, seed=3) == erdos_renyi(100, 0.1, seed=3)

    def test_different_seeds_differ(self):
        assert erdos_renyi(100, 0.1, seed=1) != erdos_renyi(100, 0.1, seed=2)

    def test_p_zero_empty(self):
        assert erdos_renyi(50, 0.0, seed=0).num_edges == 0

    @pytest.mark.parametrize("p", [5e-324, 2.2e-309, 1e-300])
    def test_subnormal_p_skips_past_every_pair(self, p):
        # The geometric gap overflows to inf; it must end the walk.
        assert erdos_renyi(63, p, seed=0).num_edges == 0

    def test_p_one_complete(self):
        g = erdos_renyi(10, 1.0, seed=0)
        assert g.num_edges == 45

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.1
        g = erdos_renyi(n, p, seed=42)
        expected = p * n * (n - 1) / 2
        assert 0.8 * expected < g.num_edges < 1.2 * expected

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)


def _scalar_erdos_renyi(n, p, seed):
    """The one-draw-per-skip geometric walk: the reference the batched
    :func:`erdos_renyi` must reproduce edge for edge."""
    rng = np.random.default_rng(seed)
    edges = []
    if p > 0.0 and n > 1:
        total = n * (n - 1) // 2
        idx = -1
        log1mp = np.log1p(-p) if p < 1.0 else None
        with np.errstate(over="ignore"):
            while True:
                if p >= 1.0:
                    idx += 1
                else:
                    gap = np.floor(np.log1p(-rng.random()) / log1mp)
                    if gap >= total - idx - 1:
                        break
                    idx += 1 + int(gap)
                if idx >= total:
                    break
                u = int((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * idx)) // 2)
                v = u + 1 + (idx - u * (2 * n - u - 1) // 2)
                edges.append((u, int(v)))
    return from_edges(edges, num_vertices=n)


class TestErdosRenyiBatchedDraws:
    @given(
        st.integers(0, 80),
        st.one_of(
            st.sampled_from([0.0, 1e-12, 1.0]),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_one_draw_per_skip(self, n, p, seed):
        assert erdos_renyi(n, p, seed=seed) == _scalar_erdos_renyi(n, p, seed)


class TestBarabasiAlbert:
    def test_determinism(self):
        assert barabasi_albert(200, 3, seed=5) == barabasi_albert(200, 3, seed=5)

    def test_average_degree_about_2m(self):
        g = barabasi_albert(500, 4, seed=1)
        assert 6 < g.avg_degree() < 9

    def test_heavy_tail(self):
        g = barabasi_albert(1000, 5, seed=2)
        assert g.max_degree() > 4 * g.avg_degree()

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)
        with pytest.raises(ValueError):
            barabasi_albert(10, 10)


class TestPowerlawConfiguration:
    def test_determinism(self):
        a = powerlaw_configuration(300, exponent=2.5, seed=9)
        b = powerlaw_configuration(300, exponent=2.5, seed=9)
        assert a == b

    def test_max_degree_cap_roughly_respected(self):
        g = powerlaw_configuration(
            2000, exponent=2.2, min_degree=2, max_degree=50, seed=4
        )
        # Erased configuration model can only lose edges, never gain.
        assert g.max_degree() <= 50

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            powerlaw_configuration(0)
        with pytest.raises(ValueError):
            powerlaw_configuration(10, min_degree=0)


class TestPlantedCliques:
    def test_cliques_present(self):
        g = planted_cliques(100, num_cliques=5, clique_size=5, seed=0)
        assert count(g, "5cl") >= 5 - 2  # overlaps may merge cliques

    def test_background_only(self):
        g = planted_cliques(50, num_cliques=0, clique_size=3, background_p=0.2, seed=1)
        assert g.num_edges > 0

    def test_clique_too_large(self):
        with pytest.raises(ValueError):
            planted_cliques(4, num_cliques=1, clique_size=5)


class TestRmat:
    def test_size(self):
        g = rmat(8, 4, seed=0)
        assert g.num_vertices == 256

    def test_determinism(self):
        assert rmat(8, 4, seed=7) == rmat(8, 4, seed=7)

    def test_skew(self):
        g = rmat(10, 8, seed=1)
        assert g.max_degree() > 3 * g.avg_degree()

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            rmat(4, 2, a=0.5, b=0.3, c=0.3)


class TestFixedShapes:
    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15

    def test_star(self):
        g = star_graph(7)
        assert g.num_vertices == 8
        assert g.degree(0) == 7
        assert g.max_degree() == 7

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2
