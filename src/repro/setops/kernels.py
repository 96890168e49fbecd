"""Execution policy and dispatch counters for the set-operation layer.

Two things live here:

* :class:`KernelPolicy` — the functional backend's configuration
  (``BACKENDS["functional"].config_type``): which engine runs, the
  frontier engine or the recursive oracle (the segmented membership
  kernel of :mod:`repro.setops.segmented` is chosen from the graph
  alone);
* the process-wide dispatch counters (:func:`kernel_counters`) that the
  frontier engine, the segmented kernels and :class:`KernelContext`
  tally into, recorded per sweep cell (the ``dispatch`` column of
  ``repro exp run`` rows).

The recursive engine applies every plan op through the merge primitives
of :mod:`repro.setops.merge` (via :class:`KernelContext`, which only
counts the dispatch), so it is the plain paper-Figure-2 oracle.

**Contract (docs/KERNELS.md): every policy is functional-only.**  Counts
are bit-identical for every policy, and no policy-derived value or
kernel choice may reach the timing models: ``tests/hw/test_golden_cycles.py``
runs every pinned case under both segmented kernels and requires the
same cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import sanitize
from repro.pattern.plan import OpKind
from repro.setops import merge

__all__ = [
    "KernelContext",
    "KernelPolicy",
    "DEFAULT_POLICY",
    "ENGINE_NAMES",
    "kernel_counters",
    "reset_kernel_counters",
]

#: The mining-engine execution models (``KernelPolicy.engine`` values).
ENGINE_NAMES = ("frontier", "recursive")


# ----------------------------------------------------------------------
# Dispatch counters (process-wide; workers of a sharded run each keep
# their own).
# ----------------------------------------------------------------------

_COUNTERS: dict[str, int] = {}


def _tally(name: str, n: int = 1) -> None:
    # Per-process by design (see the section comment above): counters
    # are a profiling aid, never an input to results or timing.  This
    # is the one worker-path write tests/parallel/test_worker_globals.py
    # allows.
    _COUNTERS[name] = _COUNTERS.get(name, 0) + n
    if sanitize.is_active():
        # Sanitizer probe: the dispatch *sequence* must be identical
        # across double-runs of the same job.
        sanitize.emit("kernel", name)


def kernel_counters() -> dict[str, int]:
    """Snapshot of dispatch counts since the last reset.

    Keys are ``"<op>/<kernel>"``: ``"copy"``, ``"intersect/merge"`` and
    ``"subtract/merge"`` from :class:`KernelContext`,
    ``"seg_<op>/<kernel>"`` from the segmented kernels, and the
    ``"frontier/..."`` tallies of the frontier engine.
    """
    return dict(_COUNTERS)


def reset_kernel_counters() -> None:
    """Zero all dispatch counters."""
    _COUNTERS.clear()


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPolicy:
    """The functional backend's configuration (see docs/KERNELS.md).

    A sweep spec sets its one field in ``[configs.functional]``, like
    any other backend's config fields.

    The frontier engine works in cache-sized blocks of the module
    constant :data:`repro.mining.frontier.FRONTIER_BUDGET_BYTES`, and
    the membership kernel is chosen from the graph alone
    (:func:`repro.setops.segmented.pick_segment_kernel`).

    Attributes
    ----------
    engine:
        Mining execution model: ``"frontier"`` (breadth-batched NumPy
        levels, the default) or ``"recursive"`` (the per-embedding
        merge-based oracle).  Counting only; listing always recurses.

    Every policy produces bit-identical results; only speed changes.
    """

    engine: str = "frontier"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_NAMES}"
            )


#: The library-wide default policy.
DEFAULT_POLICY = KernelPolicy()


_TALLY_KEYS = {
    OpKind.INIT_COPY: "copy",
    OpKind.INTERSECT: "intersect/merge",
    OpKind.SUBTRACT: "subtract/merge",
    OpKind.ANTI_SUBTRACT: "subtract/merge",
}


class KernelContext:
    """Counted entry point for one plan op: :func:`merge.apply_op` plus
    a dispatch tally (``"copy"``, ``"intersect/merge"`` or
    ``"subtract/merge"``).

    The recursive engine routes every op through :meth:`apply_op`, so
    the per-process counters and the sanitizer's kernel probe see the
    oracle's op sequence.
    """

    __slots__ = ()

    def apply_op(
        self, kind: OpKind, source: np.ndarray | None, operand: np.ndarray
    ) -> np.ndarray:
        """:func:`repro.setops.merge.apply_op`, tallied."""
        out = merge.apply_op(kind, source, operand)
        _tally(_TALLY_KEYS[kind])
        return out
