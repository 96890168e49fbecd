"""Software-vs-accelerator comparison (the paper's section 3.5 study).

Two questions the paper raises but defers:

1. Does fine-grained (branch-level) parallelism help *software* too?
   Yes — the work-stealing branch-granularity miner fixes the
   tree-granularity load imbalance on power-law graphs — but per-task
   scheduling overheads bound how fine software can slice.
2. How far ahead is the accelerator?  FlexMiner's paper reports an order
   of magnitude over CPU frameworks; FINGERS multiplies that.  We compare
   wall-clock time (cycles / frequency), not raw cycles, since the CPU
   clocks 2.5x higher.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.paper import run_paper, sweep_spec
from repro.bench.report import TableResult
from repro.hw.api import FingersConfig, FlexMinerConfig
from repro.sw import SoftwareConfig

__all__ = ["software_comparison", "software_scaling"]


def software_scaling(
    graph_name: str = "Lj",
    pattern: str = "tc",
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> TableResult:
    """Core scaling: tree vs branch granularity on a power-law graph."""
    granularities = ("tree", "branch")
    row = run_paper("software_scaling", sweep_spec(
        "software_scaling", [pattern], [graph_name], {"software": [
            {"name": f"{gran}{cores}", "num_cores": cores, "granularity": gran}
            for cores in core_counts
            for gran in granularities
        ]},
    ))
    data: dict = {
        (gran, cores): row(pattern, graph_name, "software", f"{gran}{cores}")
        for cores in core_counts
        for gran in granularities
    }
    base = data[(granularities[0], core_counts[0])].cycles
    rows = []
    for cores in core_counts:
        line = [cores]
        for gran in granularities:
            res = data[(gran, cores)]
            line.extend([
                f"{base / res.cycles:.2f}",
                f"{res.extras['load_imbalance']:.2f}",
            ])
        rows.append(tuple(line))
    return TableResult(
        title=(
            f"Software scaling ({pattern} on {graph_name}): tree vs "
            "branch granularity (speedup over 1 core / load imbalance)"
        ),
        headers=("cores", "tree x", "tree imb", "branch x", "branch imb"),
        rows=tuple(rows),
        data=data,
    )


def software_comparison(
    graph_name: str = "Mi",
    pattern: str = "tc",
) -> TableResult:
    """Wall-clock comparison: 16-core CPU vs the two accelerator chips."""
    configs = {
        "software": {"num_cores": 16, "granularity": "branch"},
        "flexminer": {"num_pes": 40},
        "fingers": {"num_pes": 20},
    }
    row = run_paper("software_comparison", sweep_spec(
        "software_comparison", [pattern], [graph_name], configs
    ))
    data = {backend: row(pattern, graph_name, backend) for backend in configs}
    if len({tuple(res.counts) for res in data.values()}) != 1:
        raise ValueError(
            "refusing to compare runs with different functional results: "
            + " vs ".join(str(res.counts) for res in data.values())
        )
    designs = (
        ("16-core CPU (branch WS)", "software", SoftwareConfig),
        ("FlexMiner (40 PEs)", "flexminer", FlexMinerConfig),
        ("FINGERS (20 PEs)", "fingers", FingersConfig),
    )
    times = {
        backend: data[backend].cycles / config(**configs[backend]).frequency_ghz
        for _, backend, config in designs
    }
    rows = [
        (
            name,
            f"{data[backend].cycles:,.0f}",
            f"{times[backend]:,.0f}",
            f"{times['software'] / times[backend]:.1f}",
        )
        for name, backend, _ in designs
    ]
    return TableResult(
        title=(
            f"Accelerators vs software ({pattern} on {graph_name}; "
            "time in ns at each design's clock)"
        ),
        headers=("design", "cycles", "time (ns)", "speedup vs CPU"),
        rows=tuple(rows),
        data=data,
    )
