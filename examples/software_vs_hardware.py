#!/usr/bin/env python
"""Software vs hardware: how far does multicore + work stealing get you?

The paper's section 3.5 notes that branch/set/segment parallelism "could
also be used in software frameworks", but overheads diminish the
returns, and specialized hardware is the answer.  This example measures
that argument end to end:

1. scale a software miner from 1 to 16 cores, with and without
   branch-granularity work stealing (the aDFS idea);
2. put the best software configuration against the FlexMiner and
   FINGERS chips in wall-clock time.

Run:  python examples/software_vs_hardware.py
"""

from repro import FingersConfig, FlexMinerConfig, simulate
from repro.core import get_backend
from repro.graph import load_dataset
from repro.sw import SoftwareConfig


def main() -> None:
    software = get_backend("software")
    graph = load_dataset("Lj")
    roots = list(range(0, graph.num_vertices, 16))
    pattern = "tc"
    print(
        f"workload: {pattern} on the LiveJournal analog "
        f"({graph.num_vertices:,} vertices, hubs up to degree "
        f"{graph.max_degree()})"
    )

    # ------------------------------------------------------------------
    # 1. Software scaling: tree vs branch granularity.
    # ------------------------------------------------------------------
    print("\ncores  tree-granularity      branch-granularity (work stealing)")
    base = None
    for cores in (1, 2, 4, 8, 16):
        row = [f"{cores:3d}  "]
        for granularity in ("tree", "branch"):
            cfg = SoftwareConfig(num_cores=cores, granularity=granularity)
            res = software.run(graph, pattern, cfg, roots=roots)
            if base is None:
                base = res.cycles
            row.append(
                f"x{base / res.cycles:5.2f} (imb {res.load_imbalance:4.2f})  "
            )
        print("  ".join(row))
    print(
        "tree granularity saturates on the hub-rooted tree (paper "
        "section 2.3);\nbranch-level tasks in software fix the imbalance "
        "— the aDFS result."
    )

    # ------------------------------------------------------------------
    # 2. Best software vs the accelerators, in nanoseconds.
    # ------------------------------------------------------------------
    sw_cfg = SoftwareConfig(num_cores=16, granularity="branch")
    sw = software.run(graph, pattern, sw_cfg, roots=roots)
    flex = simulate(graph, pattern, FlexMinerConfig(num_pes=40), roots=roots)
    fing = simulate(graph, pattern, FingersConfig(num_pes=20), roots=roots)
    assert sw.counts == flex.counts == fing.counts

    sw_ns = sw.cycles / sw_cfg.frequency_ghz
    flex_ns = flex.cycles / 1.0
    fing_ns = fing.cycles / 1.0
    print(f"\n{'design':34s} {'time':>12s}  vs CPU")
    print(f"{'16-core CPU (2.5 GHz, stealing)':34s} {sw_ns:10,.0f}ns   1.0x")
    print(f"{'FlexMiner, 40 PEs (1 GHz)':34s} {flex_ns:10,.0f}ns "
          f"{sw_ns / flex_ns:5.1f}x")
    print(f"{'FINGERS, 20 PEs (1 GHz, iso-area)':34s} {fing_ns:10,.0f}ns "
          f"{sw_ns / fing_ns:5.1f}x")


if __name__ == "__main__":
    main()
