"""Unit-level tests of the FINGERS PE: trace replay, groups, spills."""

from repro.graph import complete_graph, erdos_renyi
from repro.hw.api import FingersConfig, MemoryConfig, simulate
from repro.hw.cache import SectoredLRUCache
from repro.hw.chip import _make_pes, run_chip
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.pe import FingersPE, auto_group_size
from repro.hw.trace import Tracer
from repro.mining.api import plan_for


def _make_pe(graph, pattern="tc", **cfg_kwargs):
    cfg = FingersConfig(num_pes=1, **cfg_kwargs)
    mem = MemoryConfig()
    pe = FingersPE(
        0, graph, [plan_for(pattern)], cfg, mem,
        SectoredLRUCache(mem.shared_cache_bytes), DRAMModel(mem),
    )
    return pe


class TestPEBasics:
    def test_assign_and_drain(self):
        g = complete_graph(5)
        pe = _make_pe(g)
        pe.assign_root(0, 0.0)
        while pe.has_work():
            pe.step()
        assert pe.counts[0] == 6  # triangles with min vertex 0 in K5
        assert pe.now > 0

    def test_stats_accumulate(self):
        g = erdos_renyi(30, 0.4, seed=71)
        pe = _make_pe(g, "tt")
        for root in range(g.num_vertices):
            pe.assign_root(root, pe.now)
            while pe.has_work():
                pe.step()
        assert pe.stats.tasks > 0
        assert pe.stats.task_groups > 0
        assert pe.stats.busy_cycles > 0
        assert pe.stats.iu_busy_cycles > 0

    def test_group_size_respected(self):
        g = complete_graph(12)
        pe = _make_pe(g, "tc", task_group_size=3)
        pe.tracer = Tracer()
        pe.assign_root(0, 0.0)
        while pe.has_work():
            pe.step()
        sizes = [
            int(e.detail.split()[0])
            for e in pe.tracer.events if e.kind == "group"
        ]
        # The root, then its 11 children in groups of 3, 3, 3, 2.
        assert sorted(sizes) == [1, 2, 3, 3, 3]

    def test_clock_monotone(self):
        g = erdos_renyi(25, 0.4, seed=72)
        pe = _make_pe(g, "cyc")
        pe.assign_root(0, 0.0)
        last = pe.now
        while pe.has_work():
            now = pe.step()
            assert now >= last
            last = now


class TestTraceReplay:
    def test_standalone_pe_matches_chip(self):
        # A PE driven root by root builds each tree on its own; the chip
        # hands out trees from one batched trace.  Both replay the same
        # tasks, so every statistic agrees.
        g = erdos_renyi(40, 0.3, seed=78)
        pe = _make_pe(g, "tt")
        pe.noc = NoCModel(MemoryConfig().noc)
        for root in range(g.num_vertices):
            pe.assign_root(root, pe.now)
            while pe.has_work():
                pe.step()
        chip = run_chip(g, [plan_for("tt")], FingersConfig(num_pes=1))
        assert chip.cycles == pe.now
        assert chip.counts == tuple(pe.counts)
        assert chip.units == (pe.stats,)

    def test_chip_pes_share_one_trace(self):
        mem = MemoryConfig()
        pes = _make_pes(
            complete_graph(6), [plan_for("tc")], FingersConfig(num_pes=3),
            mem, SectoredLRUCache(mem.shared_cache_bytes), DRAMModel(mem),
        )
        assert len({id(pe.trace) for pe in pes}) == 1

    def test_each_run_builds_a_fresh_trace(self):
        g = complete_graph(6)
        first = _make_pe(g)
        second = _make_pe(g)
        assert first.trace is not second.trace


class TestAutoGroupSize:
    def test_more_ius_bigger_groups(self):
        g = erdos_renyi(500, 0.01, seed=73)
        small = auto_group_size(g, [plan_for("tc")], FingersConfig(num_ius=4))
        large = auto_group_size(g, [plan_for("tc")], FingersConfig(num_ius=48))
        assert large >= small

    def test_dense_graph_smaller_groups(self):
        sparse = erdos_renyi(500, 0.004, seed=74)
        dense = erdos_renyi(200, 0.5, seed=75)
        cfg = FingersConfig()
        assert auto_group_size(dense, [plan_for("tc")], cfg) <= auto_group_size(
            sparse, [plan_for("tc")], cfg
        )


class TestSpillAccounting:
    def test_no_spills_with_roomy_cache(self):
        g = erdos_renyi(40, 0.3, seed=76)
        res = simulate(
            g, "tt", FingersConfig(num_pes=1, private_cache_bytes=1 << 20)
        )
        assert res.chip.combined.private_spills == 0

    def test_spill_penalty_grows_cycles(self):
        g = erdos_renyi(60, 0.4, seed=77)
        roomy = simulate(
            g, "tt", FingersConfig(num_pes=1, private_cache_bytes=1 << 20)
        )
        tiny = simulate(
            g, "tt", FingersConfig(num_pes=1, private_cache_bytes=64)
        )
        assert tiny.cycles >= roomy.cycles
