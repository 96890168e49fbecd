"""Integration tests for the PE models and the multi-PE chip.

The central invariant: every design, at every configuration, must produce
the same embedding counts as the reference engine — the timing model never
changes functional behaviour.
"""

import pytest

from repro.graph import complete_graph, erdos_renyi, load_dataset, star_graph
from repro.hw.api import simulate, FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.chip import run_chip
from repro.hw.pe import auto_group_size
from repro.mining import count, motif_census
from repro.mining.api import plan_for


SMALL = erdos_renyi(60, 0.2, seed=11)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("name", ["tc", "4cl", "tt", "cyc", "dia"])
    def test_fingers_matches_engine(self, name):
        result = simulate(SMALL, name, FingersConfig(num_pes=3))
        assert result.count == count(SMALL, name)

    @pytest.mark.parametrize("name", ["tc", "tt", "cyc"])
    def test_flexminer_matches_engine(self, name):
        result = simulate(SMALL, name, FlexMinerConfig(num_pes=5))
        assert result.count == count(SMALL, name)

    @pytest.mark.parametrize("num_pes", [1, 2, 7])
    def test_pe_count_never_changes_counts(self, num_pes):
        result = simulate(SMALL, "tt", FingersConfig(num_pes=num_pes))
        assert result.count == count(SMALL, "tt")

    @pytest.mark.parametrize("num_ius,seg", [(1, 384), (8, 48), (48, 8)])
    def test_iu_config_never_changes_counts(self, num_ius, seg):
        cfg = FingersConfig(num_pes=2, num_ius=num_ius, long_segment_len=seg)
        assert simulate(SMALL, "cyc", cfg).count == count(SMALL, "cyc")

    def test_group_size_never_changes_counts(self):
        for group in [1, 4, None]:
            cfg = FingersConfig(num_pes=2, task_group_size=group)
            assert simulate(SMALL, "tt", cfg).count == count(SMALL, "tt")

    def test_3mc_multipattern(self):
        result = simulate(SMALL, "3mc", FingersConfig(num_pes=2))
        census = motif_census(SMALL, 3)
        assert sorted(result.counts) == sorted(census.values())

    def test_roots_subset(self):
        roots = list(range(0, SMALL.num_vertices, 3))
        f = simulate(SMALL, "tc", FingersConfig(num_pes=2), roots=roots)
        b = simulate(SMALL, "tc", FlexMinerConfig(num_pes=2), roots=roots)
        assert f.count == b.count
        plan = plan_for("tc")
        from repro.mining.engine import count_embeddings

        assert f.count == count_embeddings(SMALL, plan, roots=roots)


class TestTimingSanity:
    def test_fingers_beats_flexminer_single_pe(self):
        g = load_dataset("As")
        f = simulate(g, "tc", FingersConfig(num_pes=1))
        b = simulate(g, "tc", FlexMinerConfig(num_pes=1))
        assert f.speedup_over(b) > 1.5

    def test_more_pes_help(self):
        one = simulate(SMALL, "cyc", FingersConfig(num_pes=1))
        four = simulate(SMALL, "cyc", FingersConfig(num_pes=4))
        assert four.cycles < one.cycles

    def test_cycles_positive(self):
        assert simulate(SMALL, "tc", FingersConfig(num_pes=1)).cycles > 0

    def test_pseudo_dfs_helps_under_misses(self):
        """Disabling task groups (Figure 11 ablation) must hurt when the
        graph misses in the shared cache."""
        g = load_dataset("Pa")
        roots = list(range(0, g.num_vertices, 8))
        mem = MemoryConfig()
        on = simulate(g, "tc", FingersConfig(num_pes=1), memory=mem, roots=roots)
        off = simulate(
            g, "tc", FingersConfig(num_pes=1, task_group_size=1),
            memory=mem, roots=roots,
        )
        assert on.count == off.count
        assert on.cycles < off.cycles

    def test_flexminer_stalls_on_misses(self):
        g = load_dataset("Pa")
        roots = list(range(0, g.num_vertices, 16))
        r = simulate(g, "tc", FlexMinerConfig(num_pes=1), roots=roots)
        assert r.chip.combined.stall_fraction > 0.2

    def test_load_imbalance_measurable(self):
        # One giant hub tree dominates: imbalance > 1 with many PEs.
        g = star_graph(200)
        r = simulate(g, "wedge", FingersConfig(num_pes=4))
        assert r.chip.load_imbalance >= 1.0

    def test_speedup_guard_rejects_mismatch(self):
        a = simulate(SMALL, "tc", FingersConfig(num_pes=1))
        b = simulate(SMALL, "tt", FlexMinerConfig(num_pes=1))
        with pytest.raises(ValueError):
            a.speedup_over(b)


class TestStatsWellFormed:
    def test_rates_in_bounds(self):
        r = simulate(load_dataset("Mi"), "tt", FingersConfig(num_pes=1),
                     roots=range(0, 1500, 4))
        combined = r.chip.combined
        assert 0 <= combined.active_rate(24) <= 1
        assert 0 <= combined.balance_rate <= 1
        assert combined.tasks > 0
        assert combined.iu_busy_cycles > 0

    def test_cache_stats_recorded(self):
        r = simulate(SMALL, "tc", FingersConfig(num_pes=2))
        assert r.chip.shared_cache.accesses > 0
        assert 0 <= r.chip.shared_cache.miss_rate <= 1

    def test_dram_stats_recorded(self):
        g = load_dataset("Pa")
        r = simulate(g, "tc", FingersConfig(num_pes=2),
                     roots=range(0, g.num_vertices, 16))
        assert r.chip.dram.requests > 0
        assert r.chip.dram.bytes_transferred > 0

    def test_pe_finish_times(self):
        r = simulate(SMALL, "tc", FingersConfig(num_pes=3))
        assert len(r.unit_finish_times) == 3
        assert max(r.unit_finish_times) == r.cycles


class TestAutoGroupSize:
    def test_low_degree_big_groups(self):
        g = load_dataset("Yo")
        cfg = FingersConfig()
        assert auto_group_size(g, [plan_for("tc")], cfg) >= 8

    def test_bounds(self):
        for name in ["As", "Or"]:
            g = load_dataset(name)
            cfg = FingersConfig()
            size = auto_group_size(g, [plan_for("tt")], cfg)
            assert 1 <= size <= cfg.max_task_group_size

    def test_explicit_override(self):
        cfg = FingersConfig(num_pes=1, task_group_size=5)
        r = simulate(SMALL, "tc", cfg)
        assert r.chip.task_group_size == 5


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.graph import from_edges

        g = from_edges([], num_vertices=4)
        r = simulate(g, "tc", FingersConfig(num_pes=2))
        assert r.count == 0

    def test_more_pes_than_roots(self):
        g = complete_graph(3)
        r = simulate(g, "tc", FingersConfig(num_pes=16))
        assert r.count == 1

    def test_single_vertex_graph(self):
        from repro.graph import from_edges

        g = from_edges([], num_vertices=1)
        r = simulate(g, "tc", FlexMinerConfig(num_pes=1))
        assert r.count == 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            FingersConfig(num_pes=0)
        with pytest.raises(ValueError):
            FingersConfig(num_ius=0)
        with pytest.raises(ValueError):
            FingersConfig(task_group_size=0)
        with pytest.raises(ValueError):
            FingersConfig(max_load=0)
        with pytest.raises(ValueError):
            FlexMinerConfig(num_pes=-1)

    def test_unknown_workload(self):
        with pytest.raises((TypeError, KeyError)):
            simulate(SMALL, 42, FingersConfig(num_pes=1))  # type: ignore[arg-type]
