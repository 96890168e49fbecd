"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's own figures: each isolates one mechanism of
the FINGERS design (or of our model of it) and quantifies its
contribution.

* **Root scheduling** — dynamic vs static policies.  Realizes the paper's
  section 2.3 motivation (coarse-grained load imbalance on power-law
  graphs) and its section 6.3 future-work locality idea.
* **Max-load threshold** — the task divider's splitting knob
  (section 4.2).
* **Divider count** — how many parallel task dividers a PE needs.
* **Task-group size** — a finer-grained version of Figure 11.
* **Load-imbalance anatomy** — per-PE busy-time spread, demonstrating why
  single-PE performance matters on skewed graphs.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.paper import run_paper, speedup, sweep_spec
from repro.bench.report import TableResult

__all__ = [
    "ablation_scheduling",
    "ablation_max_load",
    "ablation_dividers",
    "ablation_group_size",
    "ablation_imbalance",
    "ablation_edge_induced",
]


def _fingers_sweep(name, graph_name, pattern, field_name, values, **fixed):
    """One single-graph FINGERS sweep over ``field_name``: the row of
    each value, keyed by value (``None`` leaves the field at its
    default)."""
    variants = [
        {
            "name": f"{field_name}-{value}",
            **fixed,
            **({} if value is None else {field_name: value}),
        }
        for value in values
    ]
    row = run_paper(name, sweep_spec(
        name, [pattern], [graph_name], {"fingers": variants}
    ))
    return {
        value: row(pattern, graph_name, "fingers", f"{field_name}-{value}")
        for value in values
    }


def _cycles_table(title, headers, data, *, label=lambda value: value,
                  effective=False, imbalance=False) -> TableResult:
    """Rows of ``label(value)``, [the effective task-group size],
    cycles, speedup over the first value, [load imbalance]."""
    base = next(iter(data.values())).cycles
    rows = tuple(
        (
            label(value),
            *([res.extras["task_group_size"]] if effective else []),
            f"{res.cycles:,.0f}",
            f"{base / res.cycles:.2f}",
            *([f"{res.extras['load_imbalance']:.2f}"] if imbalance else []),
        )
        for value, res in data.items()
    )
    return TableResult(title, tuple(headers), rows, data)


def ablation_scheduling(
    graph_name: str = "Lj",
    pattern: str = "tc",
    num_pes: int = 8,
) -> TableResult:
    """Global root-scheduling policies on a power-law graph."""
    policies = ("dynamic", "static_interleave", "static_block")
    row = run_paper("ablation_scheduling", sweep_spec(
        "ablation_scheduling", [pattern], [graph_name],
        {"fingers": {"num_pes": num_pes}}, schedules=list(policies),
    ))
    return _cycles_table(
        f"Ablation: root scheduling policy ({pattern} on {graph_name}, "
        f"{num_pes} PEs)",
        ("policy", "cycles", "speedup vs dynamic", "imbalance"),
        {p: row(pattern, graph_name, "fingers", schedule=p) for p in policies},
        imbalance=True,
    )


def ablation_max_load(
    graph_name: str = "Or",
    pattern: str = "tt",
    values: Sequence[int] = (1, 2, 3, 6, 12),
) -> TableResult:
    """Task-divider max-load threshold (splitting granularity)."""
    return _cycles_table(
        f"Ablation: divider max-load threshold ({pattern} on {graph_name})",
        ("max_load", "cycles", "speedup vs max_load=1"),
        _fingers_sweep(
            "ablation_max_load", graph_name, pattern, "max_load", values,
            num_pes=1,
        ),
    )


def ablation_dividers(
    graph_name: str = "Or",
    pattern: str = "tt",
    values: Sequence[int] = (1, 3, 6, 12, 24),
) -> TableResult:
    """How many parallel task dividers one PE needs (default 12)."""
    return _cycles_table(
        f"Ablation: task-divider count ({pattern} on {graph_name})",
        ("dividers", "cycles", "speedup vs 1"),
        _fingers_sweep(
            "ablation_dividers", graph_name, pattern, "num_dividers", values,
            num_pes=1,
        ),
    )


def ablation_group_size(
    graph_name: str = "Pa",
    pattern: str = "tc",
    values: Sequence[int | None] = (1, 2, 4, 8, 16, None),
) -> TableResult:
    """Task-group size sweep (None = the paper's automatic policy)."""
    return _cycles_table(
        f"Ablation: task-group size ({pattern} on {graph_name})",
        ("requested", "effective", "cycles", "speedup vs 1"),
        _fingers_sweep(
            "ablation_group_size", graph_name, pattern, "task_group_size",
            values, num_pes=1,
        ),
        label=lambda value: "auto" if value is None else str(value),
        effective=True,
    )


def ablation_edge_induced(
    graph_name: str = "As",
    patterns: Sequence[str] = ("tt", "cyc", "dia"),
) -> TableResult:
    """Vertex- vs edge-induced semantics (paper section 2.1).

    Edge-induced plans drop the subtraction ops (no exact non-edge
    matching), which removes exactly the large-set operations that give
    FINGERS its biggest wins on tt/cyc — so the speedup over FlexMiner
    shrinks, while counts grow (more embeddings match).  Supporting both
    modes is the capability TrieJax lacks (section 2.2).  ``"tt:edge"``
    names tt's edge-induced plan.
    """
    modes = (("vertex", ""), ("edge", ":edge"))
    row = run_paper("ablation_edge_induced", sweep_spec(
        "ablation_edge_induced",
        [p + suffix for p in patterns for _, suffix in modes], [graph_name],
        {"fingers": {"num_pes": 1}, "flexminer": {"num_pes": 1}},
    ))
    data: dict = {}
    rows = []
    for pattern in patterns:
        line: list = [pattern]
        for mode, suffix in modes:
            fing = row(pattern + suffix, graph_name, "fingers")
            flex = row(pattern + suffix, graph_name, "flexminer")
            data[(pattern, mode)] = (fing, flex)
            line.extend([f"{fing.count:,}", f"{speedup(fing, flex):.2f}"])
        rows.append(tuple(line))
    return TableResult(
        title=f"Ablation: vertex- vs edge-induced semantics ({graph_name}, 1 PE)",
        headers=(
            "pattern", "v-induced count", "v-induced speedup",
            "e-induced count", "e-induced speedup",
        ),
        rows=tuple(rows),
        data=data,
    )


def ablation_imbalance(
    graph_name: str = "Lj",
    pattern: str = "tc",
    pe_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> TableResult:
    """Coarse-grained load imbalance vs PE count (paper section 2.3).

    On power-law graphs the hub-rooted trees serialize; adding PEs stops
    helping once the largest tree dominates — the motivation for strong
    single-PE performance.
    """
    return _cycles_table(
        f"Ablation: PE scaling and load imbalance ({pattern} on {graph_name})",
        ("PEs", "cycles", "scaling vs 1 PE", "imbalance"),
        _fingers_sweep(
            "ablation_imbalance", graph_name, pattern, "num_pes", pe_counts
        ),
        imbalance=True,
    )
