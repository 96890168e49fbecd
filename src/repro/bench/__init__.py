"""Benchmark harness: regenerates every table and figure of the paper.

Each experiment function returns structured data *and* renders the same
rows/series the paper reports.  :data:`EXPERIMENTS` is the one registry
of them: ``repro bench [names...]`` runs it, and ``benchmarks/`` wraps
the same functions in pytest-benchmark entry points.  Every simulated
experiment is a set of sweep specs run through
:func:`repro.experiments.run_sweep` into the store run ``paper-<name>``
and rendered from those rows (:mod:`repro.bench.paper`); the rendered
texts are pinned in ``benchmarks/results/paper/<name>.txt``.  See
EXPERIMENTS.md for paper-vs-measured records.

Root sampling: the Lj/Or/Pa analogs are mined from a deterministic stride
of root vertices (see :data:`repro.bench.workloads.ROOT_STRIDE`) to keep
pure-Python simulation times tractable.  Both designs always receive the
same roots, so speedups are exact ratios of identical functional work.
"""

from repro.bench.workloads import (
    BENCHMARK_PATTERNS,
    BENCHMARK_GRAPHS,
    ROOT_STRIDE,
    roots_for,
)
from repro.bench.runner import RunnerStats, configure, runner_stats
from repro.bench import ablations, experiments, sensitivity, software
from repro.bench.report import format_table, format_grid, geometric_mean

#: Every table, figure, ablation, software study and sensitivity sweep,
#: by the name ``repro bench`` accepts (the same names as
#: ``benchmarks/results/paper/<name>.txt``), in the order a full run
#: prints them.
EXPERIMENTS = {
    "table1": experiments.table1,
    "table2": experiments.table2,
    "fig9": experiments.fig9,
    "fig10": experiments.fig10,
    "fig11": experiments.fig11,
    "fig12": experiments.fig12,
    "fig13": experiments.fig13,
    "table3": experiments.table3,
    "ablation_scheduling": ablations.ablation_scheduling,
    "ablation_max_load": ablations.ablation_max_load,
    "ablation_dividers": ablations.ablation_dividers,
    "ablation_group_size": ablations.ablation_group_size,
    "ablation_imbalance": ablations.ablation_imbalance,
    "ablation_edge_induced": ablations.ablation_edge_induced,
    "software_scaling": software.software_scaling,
    "software_comparison": software.software_comparison,
    "sensitivity_dram_latency": sensitivity.sensitivity_dram_latency,
    "sensitivity_hit_latency": sensitivity.sensitivity_hit_latency,
    "sensitivity_noc_bandwidth": sensitivity.sensitivity_noc_bandwidth,
}

__all__ = [
    "EXPERIMENTS",
    "BENCHMARK_PATTERNS",
    "BENCHMARK_GRAPHS",
    "ROOT_STRIDE",
    "roots_for",
    "configure",
    "runner_stats",
    "RunnerStats",
    "experiments",
    "format_table",
    "format_grid",
    "geometric_mean",
]
