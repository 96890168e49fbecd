"""Unit-level tests for sensitivity and software-study experiment code
(reduced parameters so they run inside the test suite)."""

import pytest

from repro.bench.sensitivity import (
    sensitivity_dram_latency,
    sensitivity_hit_latency,
)
from repro.bench.software import software_scaling


class TestSensitivityUnits:
    def test_dram_two_points(self):
        result = sensitivity_dram_latency(
            latencies=(100, 400), graph_name="As", pattern="tc"
        )
        assert set(result.data) == {100, 400}
        assert all(v > 0 for v in result.data.values())
        assert "Sensitivity" in result.render()

    def test_hit_two_points(self):
        result = sensitivity_hit_latency(
            latencies=(4, 16), graph_name="As", pattern="tc"
        )
        assert result.data[4] > 1.0
        rows = result.render().splitlines()
        assert len(rows) >= 4


class TestSoftwareScalingUnit:
    def test_two_core_counts_small_graph(self):
        result = software_scaling(
            graph_name="As", pattern="tc", core_counts=(1, 4)
        )
        tree1 = result.data[("tree", 1)]
        branch4 = result.data[("branch", 4)]
        assert tree1.counts == branch4.counts
        assert branch4.cycles < tree1.cycles
        assert "Software scaling" in result.render()
