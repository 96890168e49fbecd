"""Set operations over sorted vertex-id lists.

Pattern-aware mining represents candidate sets and neighbor lists as
strictly increasing arrays of vertex ids, so intersection and subtraction
are one-pass merges (paper section 2.1).  This package provides:

* :mod:`repro.setops.merge` — the functional merge-based operations used
  by the recursive reference engine;
* :mod:`repro.setops.segments` — fixed-length segmentation, head lists,
  and segment pairing, the substrate of segment-level parallelism
  (paper sections 3.4 and 4.2);
* :mod:`repro.setops.bitvector` — the intersect-unit datapath and the
  bitwise-OR result aggregation of paper section 4.3, validated against
  the merge primitives by the test suite;
* :mod:`repro.setops.kernels` — the functional execution policy
  (:class:`~repro.setops.kernels.KernelPolicy`), the dispatch counters,
  and the counted merge entry point the recursive oracle uses
  (docs/KERNELS.md);
* :mod:`repro.setops.segmented` — segment-aware batch kernels
  (:class:`~repro.setops.segmented.SegmentedSet`, batched
  edge-membership probes) behind the frontier engine's
  frontier-at-a-time execution (docs/KERNELS.md, "Frontier engine").
"""

from repro.setops.merge import (
    intersect,
    subtract,
    apply_op,
    lower_bound_filter,
    exclude_values,
)
from repro.setops.segments import (
    LONG_SEGMENT_LEN,
    SHORT_SEGMENT_LEN,
    segment_bounds,
    head_list,
    pair_segments,
    SegmentPairing,
    balance_loads,
    WorkItem,
)
from repro.setops.bitvector import (
    intersect_bitvector,
    aggregate_or,
    segmented_set_op,
)
from repro.setops.kernels import (
    SEGMENT_KERNEL_NAMES,
    ENGINE_NAMES,
    KernelContext,
    KernelPolicy,
    DEFAULT_POLICY,
    kernel_counters,
    reset_kernel_counters,
)
from repro.setops.segmented import (
    SegmentedSet,
    gather_neighbors,
    neighbor_membership,
    intersect_neighbors,
    subtract_neighbors,
)

__all__ = [
    "intersect",
    "subtract",
    "apply_op",
    "lower_bound_filter",
    "exclude_values",
    "LONG_SEGMENT_LEN",
    "SHORT_SEGMENT_LEN",
    "segment_bounds",
    "head_list",
    "pair_segments",
    "SegmentPairing",
    "balance_loads",
    "WorkItem",
    "intersect_bitvector",
    "aggregate_or",
    "segmented_set_op",
    "SEGMENT_KERNEL_NAMES",
    "ENGINE_NAMES",
    "KernelContext",
    "KernelPolicy",
    "DEFAULT_POLICY",
    "kernel_counters",
    "reset_kernel_counters",
    "SegmentedSet",
    "gather_neighbors",
    "neighbor_membership",
    "intersect_neighbors",
    "subtract_neighbors",
]
