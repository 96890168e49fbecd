"""Tests for the DRAM and cache models."""

import pytest

from repro.hw.cache import SectoredLRUCache
from repro.hw.config import MemoryConfig
from repro.hw.memory import DRAMModel


class TestDRAM:
    def _dram(self, latency=100, bw=10.0):
        cfg = MemoryConfig(dram_latency=latency, dram_bytes_per_cycle=bw)
        return DRAMModel(cfg)

    def test_single_access(self):
        d = self._dram()
        done = d.access(0.0, 50)
        assert done == pytest.approx(100 + 5.0)

    def test_fcfs_queueing(self):
        d = self._dram()
        d.access(0.0, 100)  # occupies channel for 10 cycles
        done = d.access(0.0, 100)  # queues behind it
        assert done == pytest.approx(10 + 100 + 10)

    def test_idle_gap_no_queue(self):
        d = self._dram()
        d.access(0.0, 10)
        done = d.access(500.0, 10)
        assert done == pytest.approx(500 + 100 + 1)

    def test_stats(self):
        d = self._dram()
        d.access(0.0, 30)
        d.access(0.0, 70)
        assert d.stats.requests == 2
        assert d.stats.bytes_transferred == 100
        assert d.stats.avg_queue_delay > 0

    def test_zero_bytes(self):
        d = self._dram()
        assert d.access(0.0, 0) == pytest.approx(100)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self._dram().access(0.0, -1)

    def test_reset(self):
        d = self._dram()
        d.access(0.0, 10)
        d.reset()
        assert d.stats.requests == 0
        assert d.free_at == 0.0


class TestSectoredLRUCache:
    def test_miss_then_hit(self):
        c = SectoredLRUCache(100)
        assert not c.access("a", 40)
        assert c.access("a", 40)
        assert c.stats.accesses == 2
        assert c.stats.misses == 1
        assert c.stats.miss_rate == 0.5

    def test_lru_eviction_order(self):
        c = SectoredLRUCache(100)
        c.access("a", 40)
        c.access("b", 40)
        c.access("a", 40)  # refresh a
        c.access("c", 40)  # evicts b (LRU)
        assert c.contains("a")
        assert not c.contains("b")
        assert c.contains("c")

    def test_oversized_entry_never_resident(self):
        c = SectoredLRUCache(100)
        assert not c.access("big", 200)
        assert not c.access("big", 200)  # still a miss
        assert c.num_entries == 0

    def test_capacity_respected(self):
        c = SectoredLRUCache(100)
        for i in range(10):
            c.access(i, 30)
        assert c.used_bytes <= 100

    def test_eviction_traffic_stats(self):
        c = SectoredLRUCache(50)
        c.access("a", 50)
        c.access("b", 50)
        assert c.stats.evictions == 1
        assert c.stats.bytes_evicted == 50

    def test_clear_keeps_stats(self):
        c = SectoredLRUCache(100)
        c.access("a", 10)
        c.clear()
        assert c.stats.accesses == 1
        assert c.num_entries == 0

    def test_reset_clears_stats(self):
        c = SectoredLRUCache(100)
        c.access("a", 10)
        c.reset()
        assert c.stats.accesses == 0

    def test_zero_capacity(self):
        c = SectoredLRUCache(0)
        assert not c.access("a", 1)
        assert not c.access("a", 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SectoredLRUCache(-1)

    def test_miss_rate_empty(self):
        assert SectoredLRUCache(10).stats.miss_rate == 0.0


class TestMemoryConfig:
    def test_defaults_scaled(self):
        cfg = MemoryConfig()
        from repro.graph.datasets import CACHE_SCALE

        assert cfg.shared_cache_bytes == 4 * 1024 * 1024 // CACHE_SCALE

    def test_with_shared_cache(self):
        cfg = MemoryConfig().with_shared_cache(1234)
        assert cfg.shared_cache_bytes == 1234
        # Other fields preserved.
        assert cfg.dram_latency == MemoryConfig().dram_latency
