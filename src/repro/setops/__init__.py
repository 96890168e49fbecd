"""Set operations over sorted vertex-id lists.

Pattern-aware mining represents candidate sets and neighbor lists as
strictly increasing arrays of vertex ids, so intersection and subtraction
are one-pass merges (paper section 2.1).  This package provides:

* :mod:`repro.setops.merge` — the functional merge-based operations used
  by the recursive reference engine;
* :mod:`repro.setops.segments` — fixed-length segment pairing and the
  load table it yields, the substrate of segment-level parallelism in
  the IU timing model (paper sections 3.4 and 4.2);
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
    pair_segments,
    SegmentPairing,
)
from repro.setops.kernels import (
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
    "pair_segments",
    "SegmentPairing",
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
