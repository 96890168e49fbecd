"""The benchmark's metric catalogue: names, units, directions, bounds.

Every metric the benchmark prints is declared here once.  ``run.py``
reports them, ``compare.py`` judges changes against the bounds, and
``BENCHMARK.json`` at the repository root lists the end-to-end metrics
that every workload reports plus every per-layer metric (a test keeps
the two in step).  README.md defines each metric and names the
end-to-end metric and workload each layer metric should move.

``better`` is ``"lower"``, ``"higher"`` or, for end-to-end metrics,
``"equal"``: any change to an ``equal`` metric is a regression
(simulated statistics must repeat exactly when only the simulator's
host speed changes).  The simulated per-layer statistics (``_EXACT``)
must repeat exactly too; their ``better`` gives the direction a change
to the modelled design would be judged by.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload names, in the order a full run executes them.
WORKLOAD_NAMES = ("count-er", "sim-1pe", "sim-chip", "sweep-jobs2")


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system sees.

    A change is a regression when the median worsens by more than
    ``max(bound * parent median, floor)``.
    """

    name: str
    unit: str
    better: str
    bound: float
    floor: float


@dataclass(frozen=True)
class Layer:
    """A metric of one layer, reported by the traced run."""

    name: str
    unit: str
    better: str


#: Every end-to-end metric; README.md says which workloads report each.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, 0.05),
    EndToEnd("pass_s", "s", "lower", 0.25, 0.0),
    EndToEnd("job_s_p50", "s", "lower", 0.25, 0.0),
    EndToEnd("job_s_tail", "s", "lower", 0.25, 0.0),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25, 0.0),
    EndToEnd("sim_tasks_per_s", "tasks/s", "higher", 0.1, 0.0),
    EndToEnd("error_rate", "fraction", "lower", 0.0, 0.0),
    EndToEnd("sim_cycles", "cycles", "equal", 0.0, 0.0),
    EndToEnd("speedup_geomean", "x", "equal", 0.0, 0.0),
    EndToEnd("warm_s", "s", "lower", 0.1, 0.01),
    EndToEnd("resume_s", "s", "lower", 0.1, 0.01),
)

#: The end-to-end metrics ``BENCHMARK.json`` lists: every workload
#: reports them, they are never 0, and their spread over ten seeds on
#: the reference host stays well inside their bound.  The job
#: percentiles are left to ``compare.py``: one small job sets each of
#: them, so they spread about twice as much as ``pass_s``.
BENCHMARK_METRICS = ("setup_s", "pass_s", "peak_rss_mb")

#: Segmented set-op kernels of the frontier engine, by metric label.
SEGMENTED_OPS = ("gather", "intersect", "subtract", "membership", "compress")

#: ``kernel_counters()`` keys reported as ``setops.dispatch.<key>`` with
#: ``/`` mapped to ``.``: the scalar kernels the cycle models dispatch
#: and the segmented kernels and frontier tallies of functional counting.
DISPATCH_KEYS = (
    "copy",
    "intersect/merge", "intersect/gallop", "intersect/bitmap",
    "subtract/merge", "subtract/gallop", "subtract/bitmap",
    "seg_intersect/bitmap", "seg_subtract/bitmap", "seg_fused/bitmap",
    "frontier/runs", "frontier/fused_invocations", "frontier/fused_children",
    "frontier/spill_chunks",
)

_EXACT = ("hw.sim.tasks", "hw.sim.task_groups", "hw.sim.shared_miss_rate",
          "hw.sim.stall_cycles", "hw.sim.iu_busy_cycles",
          "hw.sim.load_imbalance", "hw.sim.cycles", "hw.sim.speedup_geomean")
_HIGHER = ("setops.segmented.selectivity", "hw.cache_hit_ratio",
           "hw.sim.speedup_geomean", "hw.sim_tasks_per_s", "cache.hits",
           "bench.memo_hits", "bench.disk_hits")
#: Unit by name suffix, most specific first; the rest are counts.
_UNITS = {"tasks_per_s": "tasks/s", "us_per_task": "us", "_s": "s",
          "_ratio": "fraction", "selectivity": "fraction",
          "miss_rate": "fraction", "overhead": "fraction",
          "imbalance": "x", "speedup_geomean": "x", "cycles": "cycles"}


def _layer(name: str) -> Layer:
    unit = next((u for suffix, u in _UNITS.items() if name.endswith(suffix)),
                "count")
    return Layer(name, unit, "higher" if name in _HIGHER else "lower")


_LAYER_NAMES = (
    ["graph.build_s", "pattern.compile_calls", "pattern.compile_s",
     "mining.count_calls", "mining.count_s", "mining.count_self_s"]
    + [f"setops.segmented.{op}_{kind}"
       for op in SEGMENTED_OPS for kind in ("calls", "self_s")]
    + ["setops.segmented.values_in", "setops.segmented.values_out",
       "setops.segmented.selectivity"]
    + ["setops.dispatch." + key.replace("/", ".") for key in DISPATCH_KEYS]
    + ["setops.apply_op_calls", "setops.apply_op_self_s",
       "setops.apply_op_elements", "mining.filtered_candidates_calls",
       "mining.filtered_candidates_self_s",
       "hw.pe_step_calls", "hw.pe_step_self_s", "hw.fingers_step_s",
       "hw.flexminer_step_s", "hw.iu_calls", "hw.iu_self_s",
       "hw.iu_work_items", "hw.host_us_per_task", "hw.chip_self_s",
       "hw.cache_access_calls", "hw.cache_access_self_s",
       "hw.cache_hit_ratio", "hw.dram_calls", "hw.dram_self_s",
       "hw.noc_calls", "hw.noc_self_s"]
    + list(_EXACT)
    + ["hw.sim_tasks_per_s",
       "core.run_calls", "core.run_s", "core.merge_calls", "core.merge_self_s",
       "parallel.run_shards_calls", "parallel.run_shards_s",
       "parallel.shards", "parallel.retries", "parallel.serial_fallbacks",
       "cache.get_calls", "cache.get_self_s", "cache.put_calls",
       "cache.put_self_s", "cache.hits", "cache.misses",
       "cache.write_failures",
       "bench.memo_hits", "bench.disk_hits", "bench.simulate_calls",
       "experiments.run_sweep_s", "experiments.run_sweep_self_s",
       "experiments.cache_key_calls", "experiments.cache_key_self_s",
       "experiments.store_append_self_s", "experiments.store_read_self_s",
       "experiments.provenance_self_s",
       "sweep.warm_s", "sweep.resume_s",
       "bench.lazy_init_s", "bench.trace_overhead"]
)

PER_LAYER = tuple(_layer(name) for name in _LAYER_NAMES)


def end_to_end(name: str) -> EndToEnd:
    """Look up one end-to-end metric by name."""
    for metric in END_TO_END:
        if metric.name == name:
            return metric
    raise KeyError(name)
