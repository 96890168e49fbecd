#!/usr/bin/env python
"""Inspecting a simulation: traces, Gantt charts, and cross-validation.

Shows the tooling around the simulators:

* the :class:`~repro.hw.trace.Tracer` records per-PE timelines, rendered
  as a text Gantt chart — the load-imbalance pathology of power-law
  graphs (paper section 2.3) is directly visible;
* :func:`~repro.mining.validate.cross_validate` runs every executor
  (brute force, reference engine, both accelerators, the software model)
  on one job and checks they agree.

Run:  python examples/trace_and_validate.py
"""

from repro import FingersConfig, simulate
from repro.graph import erdos_renyi, load_dataset
from repro.hw.trace import Tracer, render_gantt
from repro.mining.validate import cross_validate


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Trace a run on a skewed graph and render the timeline.
    # ------------------------------------------------------------------
    graph = load_dataset("Lj")
    roots = list(range(0, graph.num_vertices, 32))
    tracer = Tracer()
    result = simulate(
        graph, "tc", FingersConfig(num_pes=6), roots=roots, tracer=tracer
    )
    print(f"tc on the LiveJournal analog, 6 PEs: {result.cycles:,.0f} cycles, "
          f"imbalance {result.chip.load_imbalance:.2f}")
    print("timeline ('#' = task groups, '.' = memory stalls):")
    print(render_gantt(tracer, width=66))
    for pid in range(6):
        print(f"  PE{pid}: busy fraction {tracer.busy_fraction(pid):.2f}")

    # ------------------------------------------------------------------
    # 2. Cross-validate every executor on one small job.
    # ------------------------------------------------------------------
    small = erdos_renyi(25, 0.3, seed=42)
    report = cross_validate(small, "tt", include_software=True)
    print()
    print(report)
    assert report.consistent


if __name__ == "__main__":
    main()
