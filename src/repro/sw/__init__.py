"""Software (multi-core CPU) mining models.

The paper's section 3.5 observes that the three levels of fine-grained
parallelism "could also be used in software frameworks", but that
fine-grained workload distribution on general-purpose cores pays thread
launching and cooperation overheads, and leaves the study as future
work.  This package takes that study up with the same methodology as the
hardware layer: a cycle-approximate model of a multi-core CPU running
the *same* execution plans, with

* a configurable core model (merge throughput, SIMD width, per-task
  scheduling overhead — the software analog of FlexMiner's comparator);
* two scheduling granularities: ``tree`` (one task per search-tree root,
  the classic embarrassingly-parallel decomposition) and ``branch``
  (aDFS-style branch-level tasks with work stealing);
* a work-stealing scheduler with explicit steal latencies, so the
  paper's "diminishing returns" argument is measurable.

The models share the memory system (:mod:`repro.hw.cache`,
:mod:`repro.hw.memory`) and must reproduce the reference engine's counts
exactly, like every other executor in this repository.
"""

from repro.sw.config import SoftwareConfig

__all__ = ["SoftwareConfig"]
