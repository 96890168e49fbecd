"""One policy-driven merge for every component-stat dataclass.

Every simulator component (PE counters, caches, DRAM, NoC) accumulates
plain event counts, so results from disjoint shards combine field by
field under a small set of policies:

``"sum"`` (the default)
    counters add — exact for event counts over disjoint work.
``"max"`` / ``"min"``
    extremes, e.g. a makespan is the max over shards.
``("wmean", weight_field)``
    weighted mean, re-weighted by a sibling field that itself merges by
    ``"sum"``.  Because the weights add, the merge stays associative:
    merging merged records gives the same mean as merging the originals
    in one pass.

All policies are associative and have the zero-valued record as an
identity, so shard merges are order-insensitive up to float rounding
and an empty merge is a no-op (it returns ``cls()``) — the property
tests in ``tests/core/test_merge_properties.py`` pin this down.

``merge_pe_stats``, ``merge_cache_stats``, ``merge_dram_stats`` and
``merge_noc_stats`` are thin wrappers around :func:`merge_stats`;
whole results merge through :func:`repro.core.result.merge_run_results`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Mapping, Sequence, TypeVar

__all__ = ["merge_stats"]

T = TypeVar("T")

#: Policies a field may declare (see module docstring).
_SCALAR_POLICIES = ("sum", "max", "min")


def _merge_field(policy, values: list, weights: list | None):
    if policy == "sum":
        total = values[0]
        for v in values[1:]:
            total = total + v
        return total
    if policy == "max":
        return max(values)
    if policy == "min":
        return min(values)
    if isinstance(policy, tuple) and len(policy) == 2 and policy[0] == "wmean":
        assert weights is not None
        wsum = sum(weights)
        if wsum == 0:
            return type(values[0])(0)
        return sum(v * w for v, w in zip(values, weights)) / wsum
    raise ValueError(f"unknown merge policy {policy!r}")


def merge_stats(
    records: Sequence[T],
    *,
    cls: type[T] | None = None,
    policy: Mapping[str, Any] | None = None,
) -> T:
    """Merge dataclass stat records field by field.

    ``policy`` maps field names to ``"sum"`` (default), ``"max"``,
    ``"min"``, or ``("wmean", weight_field)`` where ``weight_field``
    names a sibling field merged by ``"sum"``.  ``cls`` is required only
    when ``records`` may be empty (the merge then returns ``cls()``,
    the zero record — an empty shard contributes nothing).
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
    policy = dict(policy or {})
    out: dict[str, Any] = {}
    for f in fields(cls):
        field_policy = policy.get(f.name, "sum")
        values = [getattr(r, f.name) for r in records]
        weights = None
        if isinstance(field_policy, tuple) and field_policy[0] == "wmean":
            weights = [getattr(r, field_policy[1]) for r in records]
        out[f.name] = _merge_field(field_policy, values, weights)
    return cls(**out)
