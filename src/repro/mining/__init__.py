"""Reference (software) pattern-aware mining engine.

This is the functional gold model: it executes compiled
:class:`~repro.pattern.plan.ExecutionPlan` IR directly (recursive DFS,
numpy merges) and defines the *correct answer* that every hardware timing
model must also produce.  It doubles as a usable pure-software graph
mining library (see ``examples/``).
"""

from repro.mining.engine import (
    count_embeddings,
    list_embeddings,
    count_multi,
    per_root_counts,
)
from repro.mining.bruteforce import (
    count_maps_bruteforce,
    count_instances_bruteforce,
)
from repro.mining.api import count, embeddings, motif_census
from repro.mining.validate import ValidationReport, cross_validate

__all__ = [
    "count_embeddings",
    "list_embeddings",
    "count_multi",
    "per_root_counts",
    "count_maps_bruteforce",
    "count_instances_bruteforce",
    "count",
    "embeddings",
    "motif_census",
    "ValidationReport",
    "cross_validate",
]
