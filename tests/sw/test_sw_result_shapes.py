"""Shape/consistency tests for software-model results and configs."""

import pytest

from repro.core.backend import get_backend
from repro.graph import erdos_renyi
from repro.sw import SoftwareConfig
from repro.sw.miner import SoftwareMiner
from repro.hw.api import resolve_workload

run_software = get_backend("software").run
SMALL = erdos_renyi(40, 0.3, seed=55)


class TestSoftwareResult:
    def test_core_stats_per_core(self):
        res = run_software(SMALL, "tc", SoftwareConfig(num_cores=5))
        assert len(res.units) == 5
        assert res.combined.tasks == sum(s.tasks for s in res.units)

    def test_load_imbalance_one_core(self):
        res = run_software(SMALL, "tc", SoftwareConfig(num_cores=1))
        assert res.load_imbalance == pytest.approx(1.0, rel=0.01)

    def test_design_name_in_result(self):
        res = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=3, granularity="branch")
        )
        assert res.design == "SW-3core-branch"

    def test_dram_and_llc_stats(self):
        res = run_software(SMALL, "tc", SoftwareConfig(num_cores=2))
        assert res.llc.accesses > 0
        # A 40-vertex graph fits the scaled LLC: misses only compulsory.
        assert res.llc.misses <= SMALL.num_vertices

    def test_empty_roots(self):
        res = run_software(SMALL, "tc", SoftwareConfig(num_cores=2),
                                roots=[])
        assert res.count == 0
        assert res.cycles == 0.0


class TestMinerClass:
    def test_miner_reusable(self):
        _, plans, _ = resolve_workload("tc")
        miner = SoftwareMiner(SMALL, plans, SoftwareConfig(num_cores=2))
        first = miner.run()
        second = miner.run()
        assert first.count == second.count
        assert first.cycles == second.cycles  # fresh memory state per run

    def test_llc_capacity_from_config(self):
        _, plans, _ = resolve_workload("tc")
        cfg = SoftwareConfig(num_cores=1, llc_bytes=12345)
        miner = SoftwareMiner(SMALL, plans, cfg)
        assert miner.memcfg.shared_cache_bytes == 12345

    def test_more_cores_than_roots(self):
        res = run_software(
            SMALL, "tc", SoftwareConfig(num_cores=16), roots=[0, 1, 2]
        )
        from repro.mining import count

        assert res.count == count(SMALL, "tc", roots=[0, 1, 2])
