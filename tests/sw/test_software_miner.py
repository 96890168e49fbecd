"""Tests for the multi-core software mining model."""

import pytest

from repro.core.backend import get_backend
from repro.graph import erdos_renyi, load_dataset, star_graph
from repro.mining import count
from repro.sw import SoftwareConfig

run_software = get_backend("software").run
SMALL = erdos_renyi(60, 0.25, seed=5)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("pattern", ["tc", "tt", "cyc"])
    @pytest.mark.parametrize("granularity", ["tree", "branch"])
    def test_counts_match_engine(self, pattern, granularity):
        cfg = SoftwareConfig(num_cores=4, granularity=granularity)
        res = run_software(SMALL, pattern, cfg)
        assert res.count == count(SMALL, pattern)

    @pytest.mark.parametrize("cores", [1, 3, 9])
    def test_core_count_never_changes_counts(self, cores):
        cfg = SoftwareConfig(num_cores=cores, granularity="branch")
        assert run_software(SMALL, "tc", cfg).count == count(SMALL, "tc")

    def test_multipattern(self):
        cfg = SoftwareConfig(num_cores=2)
        res = run_software(SMALL, "3mc", cfg)
        from repro.mining import motif_census

        census = motif_census(SMALL, 3)
        assert sorted(res.counts) == sorted(census.values())

    def test_roots_subset(self):
        roots = list(range(0, 60, 4))
        cfg = SoftwareConfig(num_cores=2)
        res = run_software(SMALL, "tc", cfg, roots=roots)
        assert res.count == count(SMALL, "tc", roots=roots)


class TestScheduling:
    def test_single_core_granularity_equal(self):
        tree = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=1, granularity="tree")
        )
        branch = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=1, granularity="branch")
        )
        assert tree.cycles == branch.cycles

    def test_more_cores_help(self):
        one = run_software(SMALL, "cyc", SoftwareConfig(num_cores=1))
        four = run_software(SMALL, "cyc", SoftwareConfig(num_cores=4))
        assert four.cycles < one.cycles

    def test_branch_beats_tree_on_skewed_graph(self):
        """The aDFS claim: branch-level tasks fix hub-tree imbalance."""
        g = load_dataset("Lj")
        roots = list(range(0, g.num_vertices, 32))
        tree = run_software(
            g, "tc", SoftwareConfig(num_cores=8, granularity="tree"),
            roots=roots,
        )
        branch = run_software(
            g, "tc", SoftwareConfig(num_cores=8, granularity="branch"),
            roots=roots,
        )
        assert branch.counts == tree.counts
        assert branch.cycles < tree.cycles
        assert branch.load_imbalance < tree.load_imbalance
        assert branch.total_steals > 0

    def test_tree_granularity_never_steals(self):
        g = star_graph(50)
        res = run_software(
            g, "wedge", SoftwareConfig(num_cores=4, granularity="tree")
        )
        assert res.total_steals == 0

    def test_steal_overhead_costs(self):
        """Higher steal latency must not make branch mode faster."""
        g = load_dataset("Lj")
        roots = list(range(0, g.num_vertices, 64))
        cheap = run_software(
            g, "tc",
            SoftwareConfig(num_cores=8, granularity="branch",
                           steal_overhead_cycles=20),
            roots=roots,
        )
        expensive = run_software(
            g, "tc",
            SoftwareConfig(num_cores=8, granularity="branch",
                           steal_overhead_cycles=5000),
            roots=roots,
        )
        assert cheap.counts == expensive.counts
        assert cheap.cycles <= expensive.cycles * 1.01


class TestCostModel:
    def test_simd_width_speeds_up(self):
        scalar = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=1, elements_per_cycle=1.0)
        )
        simd = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=1, elements_per_cycle=8.0)
        )
        assert simd.cycles < scalar.cycles

    def test_task_overhead_counts(self):
        light = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=1, task_overhead_cycles=1)
        )
        heavy = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=1, task_overhead_cycles=500)
        )
        assert heavy.cycles > light.cycles

    def test_stats_well_formed(self):
        res = run_software(SMALL, "tc", SoftwareConfig(num_cores=3))
        assert res.combined.tasks > 0
        assert res.llc.accesses > 0
        assert res.cycles > 0


class TestConfigValidation:
    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            SoftwareConfig(num_cores=0)

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            SoftwareConfig(granularity="task")

    def test_invalid_throughput(self):
        with pytest.raises(ValueError):
            SoftwareConfig(elements_per_cycle=0)

    def test_design_name(self):
        cfg = SoftwareConfig(num_cores=4, granularity="branch")
        assert "4core" in cfg.design_name
        assert "branch" in cfg.design_name
