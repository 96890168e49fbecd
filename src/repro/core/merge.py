"""One field-by-field sum merge for every component-stat dataclass.

Every simulator component (PE counters, caches, DRAM, NoC) accumulates
plain event counts, so results from disjoint shards combine by adding
each field, left to right.  Addition is associative and the
zero-valued record is its identity, so shard merges are
order-insensitive up to float rounding and an empty merge is a no-op
(it returns ``cls()``) — the property tests in
``tests/core/test_merge_properties.py`` pin this down.

Whole results merge through :func:`repro.core.result.merge_run_results`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Sequence, TypeVar

__all__ = ["merge_stats"]

T = TypeVar("T")


def merge_stats(records: Sequence[T], *, cls: type[T] | None = None) -> T:
    """Merge dataclass stat records by summing each field.

    ``cls`` is required only when ``records`` may be empty (the merge
    then returns ``cls()``, the zero record — an empty shard contributes
    nothing).
    """
    records = list(records)
    if cls is None:
        if not records:
            raise ValueError("merge_stats needs cls= to merge zero records")
        cls = type(records[0])
    if not is_dataclass(cls):
        raise TypeError(f"merge_stats merges dataclasses, got {cls!r}")
    if not records:
        return cls()
    out: dict[str, Any] = {}
    for f in fields(cls):
        total = getattr(records[0], f.name)
        for r in records[1:]:
            total = total + getattr(r, f.name)
        out[f.name] = total
    return cls(**out)
