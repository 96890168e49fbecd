"""The parallelism contract: jobs=1 and jobs=N produce identical results.

Engine results additionally equal the unsharded (jobs=None) path; chip
and software results are compared within the sharded model, where
``jobs=1`` executes the same shard decomposition serially (see
docs/PARALLELISM.md).
"""

import pytest

from repro.core.backend import get_backend
from repro.core.result import merge_run_results
from repro.core.sharded import run_sharded
from repro.graph import erdos_renyi
from repro.hw.api import (
    FingersConfig,
    FlexMinerConfig,
    resolve_workload,
    simulate,
)
from repro.hw.chip import run_chip
from repro.mining.api import count, embeddings, motif_census, plan_for
from repro.mining.engine import count_embeddings, per_root_counts
from repro.parallel import shard_roots
from repro.sw import SoftwareConfig

JOBS = 4


class TestEngineDeterminism:
    @pytest.mark.parametrize("pattern", ["tc", "tt", "cyc"])
    def test_count_matches_serial(self, small_random, pattern):
        serial = count(small_random, pattern)
        assert count(small_random, pattern, jobs=1) == serial
        assert count(small_random, pattern, jobs=JOBS) == serial

    def test_count_on_paper_graph(self, paper_graph):
        assert count(paper_graph, "tc", jobs=JOBS) == count(paper_graph, "tc")

    def test_count_larger_graph(self):
        g = erdos_renyi(80, 0.15, seed=11)
        assert count(g, "tc", jobs=JOBS) == count(g, "tc")

    def test_embeddings_order_and_limit(self, small_random):
        serial = embeddings(small_random, "tc", limit=17)
        assert embeddings(small_random, "tc", limit=17, jobs=JOBS) == serial
        full = embeddings(small_random, "tc")
        assert embeddings(small_random, "tc", jobs=JOBS) == full

    def test_per_root_counts_order(self, small_random):
        plan = plan_for("tt")
        serial = list(per_root_counts(small_random, plan))
        parallel = list(per_root_counts(small_random, plan, jobs=JOBS))
        assert parallel == serial

    def test_count_embeddings_with_roots(self, small_random):
        plan = plan_for("tc")
        roots = list(range(0, small_random.num_vertices, 3))
        serial = count_embeddings(small_random, plan, roots=roots)
        parallel = count_embeddings(
            small_random, plan, roots=roots, jobs=JOBS
        )
        assert parallel == serial

    def test_motif_census(self, small_random):
        assert motif_census(small_random, 3, jobs=JOBS) == motif_census(
            small_random, 3
        )


class TestChipDeterminism:
    @pytest.mark.parametrize("pattern", ["tc", "tt"])
    def test_jobs1_equals_jobs4_bitwise(self, small_random, pattern):
        cfg = FingersConfig(num_pes=2)
        one = simulate(small_random, pattern, cfg, jobs=1)
        four = simulate(small_random, pattern, cfg, jobs=JOBS)
        assert one.chip == four.chip  # dataclass equality: bit-for-bit

    def test_flexminer_design(self, small_random):
        cfg = FlexMinerConfig(num_pes=2)
        one = simulate(small_random, "tc", cfg, jobs=1)
        four = simulate(small_random, "tc", cfg, jobs=JOBS)
        assert one.chip == four.chip

    def test_sharded_counts_match_unsharded(self, small_random):
        cfg = FingersConfig(num_pes=2)
        unsharded = simulate(small_random, "tc", cfg)
        sharded = simulate(small_random, "tc", cfg, jobs=JOBS)
        assert sharded.counts == unsharded.counts
        assert unsharded.chip.num_shards == 1
        assert sharded.chip.num_shards > 1

    def test_explicit_shards_param(self, small_random):
        cfg = FingersConfig(num_pes=2)
        _, plans, _ = resolve_workload("tc")
        fingers = get_backend("fingers")
        a = run_sharded(fingers, small_random, plans, cfg,
                        jobs=1, num_shards=5)
        b = run_sharded(fingers, small_random, plans, cfg,
                        jobs=JOBS, num_shards=5)
        assert a == b
        assert a.num_shards == 5

    def test_manual_merge_equals_sharded_run(self, small_random):
        # The sharded model is BY DEFINITION: run each shard on a cold
        # chip, then merge.  Verify the plumbing implements exactly that.
        cfg = FingersConfig(num_pes=2)
        _, plans, _ = resolve_workload("tc")
        shards = shard_roots(small_random, None, 5)
        manual = merge_run_results(
            [
                run_chip(small_random, plans, cfg, roots=shard)
                for shard in shards
            ]
        )
        driven = run_sharded(get_backend("fingers"), small_random, plans,
                             cfg, jobs=1, num_shards=5)
        assert driven == manual

    def test_merged_cycles_is_max_over_shards(self, small_random):
        cfg = FingersConfig(num_pes=2)
        _, plans, _ = resolve_workload("tc")
        shards = shard_roots(small_random, None, 4)
        parts = [
            run_chip(small_random, plans, cfg, roots=shard)
            for shard in shards
        ]
        merged = merge_run_results(parts)
        assert merged.cycles == max(p.cycles for p in parts)
        assert merged.num_shards == len(parts)
        assert len(merged.units) == sum(len(p.units) for p in parts)

    def test_sharded_run_chip_single_shard_is_plain(self, small_random):
        cfg = FingersConfig(num_pes=2)
        _, plans, _ = resolve_workload("tc")
        plain = run_chip(small_random, plans, cfg)
        sharded = run_sharded(
            get_backend("fingers"), small_random, plans, cfg,
            roots=None, jobs=1, num_shards=1,
        )
        assert sharded == plain

    def test_tracer_with_jobs_rejected(self, small_random):
        with pytest.raises(ValueError):
            simulate(
                small_random, "tc", FingersConfig(num_pes=1),
                tracer=object(), jobs=2,
            )

    def test_bad_jobs_rejected(self, small_random):
        with pytest.raises(ValueError):
            simulate(small_random, "tc", FingersConfig(num_pes=1), jobs=0)


class TestSoftwareDeterminism:
    def test_jobs1_equals_jobs4(self, small_random):
        cfg = SoftwareConfig(num_cores=2)
        software = get_backend("software")
        one = software.run(small_random, "tc", cfg, jobs=1)
        four = software.run(small_random, "tc", cfg, jobs=JOBS)
        assert one == four

    def test_counts_match_unsharded(self, small_random):
        cfg = SoftwareConfig(num_cores=2)
        software = get_backend("software")
        unsharded = software.run(small_random, "tc", cfg)
        sharded = software.run(small_random, "tc", cfg, jobs=JOBS)
        assert sharded.counts == unsharded.counts
        assert sharded.num_shards > 1
        assert unsharded.num_shards == 1
