"""Tests for the stats accumulators and configuration helpers."""

import pytest

from repro.core.merge import merge_stats
from repro.graph.datasets import CACHE_SCALE
from repro.hw.config import (
    FingersConfig,
    FlexMinerConfig,
    MemoryConfig,
    scaled_bytes,
)
from repro.hw.stats import PEStats


class TestPEStats:
    def test_active_rate_paper_example(self):
        """The paper's worked example: 2 of 4 IUs busy for 10 of 20
        cycles -> 25 % active rate."""
        stats = PEStats(busy_cycles=20.0, iu_busy_cycles=2 * 10.0)
        assert stats.active_rate(num_ius=4) == pytest.approx(0.25)

    def test_balance_rate_paper_example(self):
        """One IU busy 10 cycles, the other 5, duration 10 -> 75 %."""
        stats = PEStats()
        stats.record_op_balance((10, 5))
        assert stats.balance_rate == pytest.approx(0.75)

    def test_balance_rate_empty_is_one(self):
        assert PEStats().balance_rate == 1.0

    def test_balance_zero_duration_ignored(self):
        stats = PEStats()
        stats.record_op_balance((0, 0))
        assert stats.balance_rate == 1.0

    def test_active_rate_zero_cycles(self):
        assert PEStats().active_rate(24) == 0.0

    def test_stall_fraction(self):
        stats = PEStats(busy_cycles=100.0, stall_cycles=25.0)
        assert stats.stall_fraction == pytest.approx(0.25)

    def test_merge_sums_counters(self):
        a = PEStats(tasks=3, busy_cycles=10.0, iu_busy_cycles=5.0,
                    embeddings_found=7)
        b = PEStats(tasks=2, busy_cycles=20.0, iu_busy_cycles=15.0,
                    embeddings_found=1)
        merged = merge_stats([a, b], cls=PEStats)
        assert merged.tasks == 5
        assert merged.busy_cycles == 30.0
        assert merged.iu_busy_cycles == 20.0
        assert merged.embeddings_found == 8

    def test_merge_empty(self):
        assert merge_stats([], cls=PEStats).tasks == 0


class TestConfigHelpers:
    def test_scaled_bytes(self):
        assert scaled_bytes(4 * 1024 * 1024) == 4 * 1024 * 1024 // CACHE_SCALE

    def test_scaled_bytes_floor(self):
        assert scaled_bytes(1) == 64  # never below a sector

    def test_fingers_defaults_match_paper(self):
        cfg = FingersConfig()
        assert cfg.num_pes == 20
        assert cfg.num_ius == 24
        assert cfg.num_dividers == 12
        assert cfg.long_segment_len == 16
        assert cfg.short_segment_len == 4
        assert cfg.divider_long_heads == 15
        assert cfg.divider_short_heads == 24

    def test_flexminer_defaults_match_paper(self):
        assert FlexMinerConfig().num_pes == 40

    def test_memory_defaults_match_paper(self):
        mem = MemoryConfig()
        assert mem.dram_bytes_per_cycle == 85.0  # 85 GB/s at 1 GHz
        assert mem.shared_cache_bytes == scaled_bytes(4 * 1024 * 1024)

    def test_configs_hashable(self):
        # The run cache keys on configs: they must be hashable/frozen.
        {FingersConfig(): 1, FlexMinerConfig(): 2, MemoryConfig(): 3}

    def test_design_names(self):
        assert FingersConfig().design_name == "FINGERS"
        assert FlexMinerConfig().design_name == "FlexMiner"
