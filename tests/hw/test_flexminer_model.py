"""FlexMiner-specific model behaviour (the paper's three inefficiencies)."""

import pytest

from repro.graph import erdos_renyi, load_dataset, star_graph
from repro.hw.api import FingersConfig, FlexMinerConfig, MemoryConfig, simulate
from repro.mining import count

SMALL = erdos_renyi(50, 0.25, seed=41)


class TestInefficiency1Stalls:
    def test_stalls_scale_with_dram_latency(self):
        g = load_dataset("Pa")
        roots = list(range(0, g.num_vertices, 16))
        fast = simulate(
            g, "tc", FlexMinerConfig(num_pes=1),
            memory=MemoryConfig(dram_latency=50), roots=roots,
        )
        slow = simulate(
            g, "tc", FlexMinerConfig(num_pes=1),
            memory=MemoryConfig(dram_latency=500), roots=roots,
        )
        assert slow.chip.combined.stall_cycles > fast.chip.combined.stall_cycles
        assert slow.cycles > fast.cycles

    def test_resident_graph_stalls_less_than_missy_graph(self):
        as_graph = load_dataset("As")  # fits the shared cache
        pa_graph = load_dataset("Pa")  # misses constantly
        resident = simulate(as_graph, "tc", FlexMinerConfig(num_pes=1),
                            roots=range(0, 950, 4))
        missy = simulate(pa_graph, "tc", FlexMinerConfig(num_pes=1),
                         roots=range(0, pa_graph.num_vertices, 16))
        assert resident.chip.combined.stall_fraction \
            < missy.chip.combined.stall_fraction


class TestInefficiency2SerialOps:
    def test_compute_is_sum_of_set_sizes(self):
        """One comparator: compute cycles equal the summed merge lengths."""
        from repro.graph import complete_graph

        g = complete_graph(6)
        res = simulate(g, "tc", FlexMinerConfig(num_pes=1))
        combined = res.chip.combined
        # Every task's compute = sum(|src| + |operand|) > 0, all serial.
        assert combined.compute_cycles > 0
        assert combined.iu_busy_cycles == 0  # no IU pool in FlexMiner

    def test_serial_ops_hurt_on_multiop_patterns(self):
        """tt has two ops per level-1 task; FlexMiner pays them serially
        while FINGERS overlaps them, so the tt gap exceeds the tc gap on
        the same graph."""
        g = load_dataset("Or")
        roots = list(range(0, g.num_vertices, 12))
        def speedup(pattern):
            f = simulate(g, pattern, FingersConfig(num_pes=1), roots=roots)
            b = simulate(g, pattern, FlexMinerConfig(num_pes=1), roots=roots)
            return f.speedup_over(b)
        assert speedup("tt") > 1.0
        assert speedup("tc") > 1.0


class TestInefficiency3Imbalance:
    def test_hub_tree_serializes(self):
        g = star_graph(300)
        res = simulate(g, "wedge", FlexMinerConfig(num_pes=8))
        # The hub root's tree dwarfs every leaf-rooted tree.
        busy = sorted((s.busy_cycles for s in res.units), reverse=True)
        others_avg = sum(busy[1:]) / len(busy[1:])
        assert busy[0] > 3 * others_avg

    def test_adding_pes_saturates(self):
        g = star_graph(300)
        two = simulate(g, "wedge", FlexMinerConfig(num_pes=2))
        sixteen = simulate(g, "wedge", FlexMinerConfig(num_pes=16))
        # 8x the PEs buys far less than 2x: the hub tree binds.
        assert two.cycles / sixteen.cycles < 2.0


class TestPrivateCacheStaging:
    def test_repeat_vertices_hit_private(self):
        res = simulate(SMALL, "tc", FlexMinerConfig(num_pes=1))
        # Level-0 and level-1 tasks refetch overlapping lists; some must
        # hit the private cache.
        assert res.count == count(SMALL, "tc")

    def test_zero_private_cache_still_correct(self):
        cfg = FlexMinerConfig(num_pes=1, private_cache_bytes=0)
        res = simulate(SMALL, "tt", cfg)
        assert res.count == count(SMALL, "tt")
