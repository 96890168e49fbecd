"""Tests for chip-run result metrics and run_chip edge cases."""

import pytest

from repro.graph import complete_graph, erdos_renyi, from_edges
from repro.hw.api import FingersConfig, FlexMinerConfig, simulate
from repro.hw.chip import run_chip
from repro.mining.api import plan_for


class TestChipResultMetrics:
    def test_count_sums_patterns(self):
        g = erdos_renyi(40, 0.3, seed=61)
        res = simulate(g, "3mc", FingersConfig(num_pes=2))
        assert res.chip.count == sum(res.chip.counts)

    def test_load_imbalance_at_least_one(self):
        g = erdos_renyi(40, 0.3, seed=62)
        for pes in (1, 3):
            res = simulate(g, "tc", FingersConfig(num_pes=pes))
            assert res.chip.load_imbalance >= 0.99

    def test_empty_run(self):
        g = from_edges([], num_vertices=3)
        res = run_chip(g, [plan_for("tc")], FingersConfig(num_pes=2))
        assert res.cycles >= 0
        assert res.count == 0

    def test_no_roots(self):
        g = complete_graph(4)
        res = run_chip(
            g, [plan_for("tc")], FingersConfig(num_pes=2), roots=[]
        )
        assert res.count == 0
        assert res.cycles == 0.0

    def test_design_field(self):
        g = complete_graph(4)
        fing = run_chip(g, [plan_for("tc")], FingersConfig(num_pes=1))
        flex = run_chip(g, [plan_for("tc")], FlexMinerConfig(num_pes=1))
        assert fing.design == "FINGERS"
        assert flex.design == "FlexMiner"
        assert fing.num_ius == 24
        assert flex.num_ius == 1

    def test_duplicate_roots_count_twice(self):
        """Roots define the work; duplicates legitimately repeat trees
        (callers control sampling)."""
        g = complete_graph(4)
        once = run_chip(g, [plan_for("tc")], FingersConfig(num_pes=1),
                        roots=[0])
        twice = run_chip(g, [plan_for("tc")], FingersConfig(num_pes=1),
                         roots=[0, 0])
        assert twice.count == 2 * once.count


class TestInterleaving:
    def test_shared_cache_contention_with_more_pes(self):
        """More PEs touching a tiny cache -> strictly more misses."""
        from repro.hw.api import MemoryConfig

        g = erdos_renyi(300, 0.05, seed=63)
        mem = MemoryConfig(shared_cache_bytes=2048)
        few = simulate(g, "tc", FlexMinerConfig(num_pes=2), memory=mem)
        many = simulate(g, "tc", FlexMinerConfig(num_pes=16), memory=mem)
        assert many.chip.shared_cache.miss_rate >= few.chip.shared_cache.miss_rate * 0.9

    def test_dram_busy_reported(self):
        from repro.hw.api import MemoryConfig

        g = erdos_renyi(300, 0.05, seed=64)
        mem = MemoryConfig(shared_cache_bytes=1024)
        res = simulate(g, "tc", FingersConfig(num_pes=4), memory=mem)
        assert res.chip.dram.busy_cycles > 0
        assert res.chip.dram.requests >= res.chip.shared_cache.misses
