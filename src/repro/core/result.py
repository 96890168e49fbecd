"""The one result type every backend produces.

A :class:`RunResult` — from a chip, the software miner or the
functional engine — is

* workload identity (``workload``, ``pattern_names``) — attached by the
  backend front door, empty for bare component-level runs;
* functional output (``counts``, one entry per plan);
* timing (``cycles``: the makespan; ``0.0`` for the functional backend);
* per-execution-unit counters (``units``: one ``PEStats`` per PE or
  core, concatenated across shards);
* named component-stat ``sections`` (``"shared_cache"``/``"llc"``,
  ``"dram"``, ``"noc"`` — whatever memory-system components the backend
  models), each a stat dataclass merged by
  :func:`repro.core.merge.merge_stats`;
* backend-specific ``scalars`` (``num_pes``, ``num_ius``,
  ``task_group_size``, ``total_steals``, ...) readable as plain
  attributes (``result.num_pes``); sections read the same way
  (``result.shared_cache``).

Merging (:func:`merge_run_results`) is the single shard merge of
docs/PARALLELISM.md: counts and summed scalars add, ``cycles`` is the
max over shards, units concatenate, sections sum field by field, and
everything else must agree exactly or the merge is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.core.merge import merge_stats

__all__ = ["RunResult", "merge_run_results"]

#: Scalars that accumulate across shards; every other scalar must be
#: identical on both sides of a merge (it describes the design, not the
#: work done).
_SCALAR_SUM_FIELDS = frozenset({"total_steals"})


@dataclass(frozen=True)
class RunResult:
    """Everything one backend run (or a merge of shard runs) produced."""

    backend: str
    design: str
    cycles: float
    counts: tuple[int, ...]
    workload: str = ""
    pattern_names: tuple[str, ...] = ()
    units: tuple = ()
    unit_finish_times: tuple = ()
    sections: Mapping[str, Any] = field(default_factory=dict)
    scalars: Mapping[str, Any] = field(default_factory=dict)
    #: How many disjoint root shards (cold simulator instances) this
    #: result aggregates.  1 for a plain run; under the sharded model
    #: (``jobs=``), ``len(units) == units_per_shard * num_shards`` and
    #: ``cycles`` is the makespan of the slowest shard.
    num_shards: int = 1

    # -- functional surface ---------------------------------------------

    @property
    def count(self) -> int:
        """Total embeddings over all patterns."""
        return sum(self.counts)

    @property
    def counts_by_name(self) -> dict[str, int]:
        """Per-pattern counts (useful for multi-pattern jobs like 3mc)."""
        names = self.pattern_names or (self.workload,)
        return dict(zip(names, self.counts))

    def speedup_over(self, baseline: "RunResult") -> float:
        """``baseline.cycles / self.cycles`` with a functional sanity check."""
        if baseline.counts != self.counts:
            raise ValueError(
                "refusing to compare runs with different functional results: "
                f"{baseline.counts} vs {self.counts}"
            )
        if self.cycles == 0:
            raise ZeroDivisionError("zero-cycle run")
        return baseline.cycles / self.cycles

    # -- timing surface --------------------------------------------------

    @property
    def load_imbalance(self) -> float:
        """Makespan over mean unit busy time (1.0 = perfectly balanced)."""
        busy = [s.busy_cycles for s in self.units if s.busy_cycles > 0]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return self.cycles / mean if mean > 0 else 1.0

    @property
    def combined(self):
        """All unit counters merged into one record."""
        from repro.hw.stats import PEStats

        return merge_stats(self.units, cls=PEStats)

    # -- attribute surface -----------------------------------------------
    # ``.chip`` strips workload identity, so a front-door result compares
    # equal to a bare ``run_chip`` record; sections and scalars resolve
    # as attributes (``.shared_cache``, ``.num_pes``, ``.total_steals``).

    @property
    def chip(self) -> "RunResult":
        """This result without workload identity (a bare chip record)."""
        if not self.workload and not self.pattern_names:
            return self
        return replace(self, workload="", pattern_names=())

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("scalars", "sections"):
            raise AttributeError(name)
        d = object.__getattribute__(self, "__dict__")
        scalars = d.get("scalars")
        if scalars is not None and name in scalars:
            return scalars[name]
        sections = d.get("sections")
        if sections is not None and name in sections:
            return sections[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


def merge_run_results(results: Sequence[RunResult]) -> RunResult:
    """Combine per-shard results with exact semantics.

    Each input must come from the *same* backend configuration run over
    a disjoint root shard on a cold simulator instance.  Counts and
    summed scalars merge by addition; per-unit records concatenate
    (unit ``i`` of shard ``s`` is a distinct physical unit in the
    multi-chip reading); sections merge field-wise under
    :func:`repro.core.merge.merge_stats`; ``cycles`` is the makespan of
    the slowest shard.  Merging is associative, order-normalized by the
    caller passing shards in root order, and introduces no
    floating-point re-association: every output float is either a sum
    or a max of input floats.
    """
    if not results:
        raise ValueError("cannot merge zero results")
    first = results[0]
    for r in results[1:]:
        same_identity = (
            r.backend == first.backend
            and r.design == first.design
            and r.workload == first.workload
            and r.pattern_names == first.pattern_names
            and len(r.counts) == len(first.counts)
            and set(r.sections) == set(first.sections)
            and set(r.scalars) == set(first.scalars)
            and all(
                r.scalars[k] == first.scalars[k]
                for k in first.scalars
                if k not in _SCALAR_SUM_FIELDS
            )
        )
        if not same_identity:
            raise ValueError("refusing to merge results of different designs")
    if len(results) == 1:
        return first
    from repro import sanitize

    if sanitize.is_active():
        # Sanitizer probe: section/scalar *iteration order* feeds the
        # merged dicts below; order drift would reorder merged stats.
        sanitize.emit(
            "merge",
            f"run_results[{len(results)}]",
            (tuple(first.sections), tuple(first.scalars)),
        )
    counts = [0] * len(first.counts)
    for r in results:
        for i, c in enumerate(r.counts):
            counts[i] += c
    sections = {
        name: merge_stats(
            [r.sections[name] for r in results],
            cls=type(first.sections[name]),
        )
        for name in first.sections
    }
    scalars = dict(first.scalars)
    for k in first.scalars:
        if k in _SCALAR_SUM_FIELDS:
            scalars[k] = sum(r.scalars[k] for r in results)
    return RunResult(
        backend=first.backend,
        design=first.design,
        cycles=max(r.cycles for r in results),
        counts=tuple(counts),
        workload=first.workload,
        pattern_names=first.pattern_names,
        units=tuple(s for r in results for s in r.units),
        unit_finish_times=tuple(
            t for r in results for t in r.unit_finish_times
        ),
        sections=sections,
        scalars=scalars,
        num_shards=sum(r.num_shards for r in results),
    )
