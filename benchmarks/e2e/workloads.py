"""The four workloads: inputs, oracle, and job list of each.

Every input graph comes from :mod:`repro.graph.generators`, seeded by
the benchmark's ``--seed``; the program under test only ever sees the
generated graphs.  Calls into ``repro`` go through module attributes
(``engine.count_embeddings``, not a ``from`` import) so the tracer's
wrappers see them.

Graph sizes are scaled from the paper analogs (``repro.graph.datasets``)
so that one pass over a workload's job list takes one to a few seconds
on a 2-core host; ``nominal_pass_s`` records that time and fixes how
many passes a run makes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import repro.bench.runner as runner
import repro.experiments as experiments
import repro.graph.builders as builders
import repro.graph.generators as gen
import repro.hw.api as hw
import repro.mining.engine as engine
import repro.pattern.compiler as compiler
import repro.pattern.multipattern as multipattern
from repro.bench.workloads import roots_for
from repro.graph.csr import CSRGraph
from repro.pattern.pattern import named_pattern
from repro.setops.kernels import KernelPolicy

#: The plan-level oracle: the plain recursive executor, sharded over
#: two workers because it runs outside every timed phase.
ORACLE_POLICY = KernelPolicy(engine="recursive")
ORACLE_JOBS = 2


@dataclass(frozen=True)
class Job:
    """One timed call.  ``check`` runs after the clock stops and returns
    ``(problems, stats)``; an empty problem list means the output is
    correct."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict[str, Any]]]


@dataclass(frozen=True)
class Inputs:
    graphs: dict[str, CSRGraph]
    plans: dict[str, Any]
    roots: dict[str, list[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nominal_pass_s: float
    build: Callable[[int], dict[str, CSRGraph]]
    compile: Callable[[], dict[str, Any]]
    roots: Callable[[dict[str, CSRGraph]], dict[str, list[int]]]
    oracle: Callable[[Inputs], dict[str, Any]]
    jobs: Callable[[Inputs, dict[str, Any], Path], list[Job]]


def _with_cliques(base: CSRGraph, num: int, size: int, seed: int) -> CSRGraph:
    """``base`` plus ``num`` planted ``size``-cliques, degree-relabelled
    (the recipe of the Mi/Lj/As analogs in ``repro.graph.datasets``)."""
    n = base.num_vertices
    cliques = gen.planted_cliques(
        n, num_cliques=num, clique_size=size, seed=seed
    )
    edges = list(base.edges()) + list(cliques.edges())
    return builders.relabel_by_degree(
        builders.from_edges(edges, num_vertices=n)
    )


def _plans(names) -> dict[str, Any]:
    return {p: compiler.compile_plan(named_pattern(p)) for p in names}


def _no_roots(graphs):
    return {}


# ----------------------------------------------------------------------
# count-er: functional counting through the default frontier engine
# ----------------------------------------------------------------------

_SPARSE = ("tc", "4cl", "tt", "cyc", "dia", "house")
_DENSE = ("4cl", "5cl")


def _count_build(seed: int) -> dict[str, CSRGraph]:
    return {
        "sparse": builders.relabel_by_degree(
            gen.erdos_renyi(400, 0.09, seed=seed)
        ),
        "dense": builders.relabel_by_degree(
            gen.erdos_renyi(200, 0.4, seed=seed + 1)
        ),
    }


def _count_compile() -> dict[str, Any]:
    plans = _plans(sorted(set(_SPARSE + _DENSE)))
    patterns, names = multipattern.motif_patterns(3)
    plans["3mc"] = multipattern.compile_multi_plan(patterns, names=names)
    return plans


def _count_calls(inputs: Inputs, **kw) -> dict[str, Callable]:
    g, plans = inputs.graphs, inputs.plans
    calls: dict[str, Callable] = {}
    for p in _SPARSE:
        calls[f"{p}@sparse"] = (
            lambda p=p: engine.count_embeddings(g["sparse"], plans[p], **kw)
        )
    calls["3mc@sparse"] = lambda: engine.count_multi(
        g["sparse"], plans["3mc"], **kw
    )
    for p in _DENSE:
        calls[f"{p}@dense"] = (
            lambda p=p: engine.count_embeddings(g["dense"], plans[p], **kw)
        )
    return calls


def _count_oracle(inputs: Inputs) -> dict[str, Any]:
    calls = _count_calls(inputs, kernels=ORACLE_POLICY, jobs=ORACLE_JOBS)
    return {job: call() for job, call in calls.items()}


def _count_jobs(inputs: Inputs, expected: dict[str, Any], _: Path):
    def checker(job_id):
        def check(out):
            if out != expected[job_id]:
                return [f"{job_id}: count {out} != oracle "
                        f"{expected[job_id]}"], {}
            return [], {}
        return check

    return [Job(job_id, call, checker(job_id))
            for job_id, call in _count_calls(inputs).items()]


# ----------------------------------------------------------------------
# sim-1pe / sim-chip: the FINGERS and FlexMiner cycle models
# ----------------------------------------------------------------------


def _sim_stats(result) -> dict[str, Any]:
    combined = result.combined
    shared = result.shared_cache
    return {
        "cycles": float(result.cycles),
        "tasks": combined.tasks,
        "task_groups": combined.task_groups,
        "stall_cycles": combined.stall_cycles,
        "iu_busy_cycles": combined.iu_busy_cycles,
        "shared_accesses": shared.accesses,
        "shared_misses": shared.misses,
        "load_imbalance": result.load_imbalance,
    }


def _sim_workload(patterns, ours, theirs, graph_key):
    """Oracle and job list: each pattern on our design, then theirs."""

    def oracle(inputs: Inputs) -> dict[str, Any]:
        g, r = inputs.graphs[graph_key], inputs.roots[graph_key]
        return {
            p: engine.count_embeddings(
                g, inputs.plans[p], roots=r, kernels=ORACLE_POLICY,
                jobs=ORACLE_JOBS,
            )
            for p in patterns
        }

    def jobs(inputs: Inputs, expected: dict[str, Any], _: Path):
        g, r = inputs.graphs[graph_key], inputs.roots[graph_key]
        out = []
        for p in patterns:
            for design, config in (("fingers", ours), ("flexminer", theirs)):
                def run(p=p, config=config):
                    return hw.simulate(g, inputs.plans[p], config, roots=r)

                def check(result, p=p, design=design):
                    stats = _sim_stats(result)
                    stats.update(pattern=p, design=design)
                    if result.count != expected[p]:
                        return [f"{design}/{p}: count {result.count} != "
                                f"oracle {expected[p]}"], stats
                    return [], stats

                out.append(Job(f"{design}/{p}", run, check))
        return out

    return oracle, jobs


def _stride(graphs: dict[str, CSRGraph], key: str, step: int):
    return {key: list(range(0, graphs[key].num_vertices, step))}


def _mi_like(seed: int) -> dict[str, CSRGraph]:
    # The Mi analog at 600 vertices: BA(.., 4) plus 7-cliques at the
    # analog's cliques-per-vertex ratio (260 / 1500).
    base = gen.barabasi_albert(600, 4, seed=seed)
    return {"mi": _with_cliques(base, 104, 7, seed + 1)}


def _lj_like(seed: int) -> dict[str, CSRGraph]:
    # The Lj analog (RMAT scale 13 plus 110 7-cliques) at edge factor 6
    # instead of 8, which keeps a pass near two seconds; its CSR
    # (~350 kB) still overflows the scaled 256 kB shared cache.
    base = gen.rmat(13, 6, seed=seed)
    return {"lj": _with_cliques(base, 110, 7, seed + 1)}


_SIM1_PATTERNS = ("tc", "4cl", "tt")
_sim1_oracle, _sim1_jobs = _sim_workload(
    _SIM1_PATTERNS, hw.FingersConfig(num_pes=1),
    hw.FlexMinerConfig(num_pes=1), "mi",
)

_CHIP_PATTERNS = ("tc", "4cl")
_chip_oracle, _chip_jobs = _sim_workload(
    _CHIP_PATTERNS, hw.FingersConfig(num_pes=20),
    hw.FlexMinerConfig(num_pes=40), "lj",
)


# ----------------------------------------------------------------------
# sweep-jobs2: experiment platform, sharded execution, caches, store
# ----------------------------------------------------------------------

_SWEEP_PATTERNS = ("tc", "4cl", "tt", "cyc")
_SWEEP_GRAPH = "as-like"
_SWEEP_SPEC = {
    "sweep": {
        "name": "e2e-sweep",
        "patterns": list(_SWEEP_PATTERNS),
        "graphs": [_SWEEP_GRAPH],
        "backends": ["functional", "fingers"],
        "jobs": [2],
    },
    "configs": {"fingers": {"num_pes": 4}},
}


def _as_like(seed: int) -> dict[str, CSRGraph]:
    # The As analog at 400 vertices: BA(.., 6) plus 6-cliques.
    base = gen.barabasi_albert(400, 6, seed=seed)
    return {_SWEEP_GRAPH: _with_cliques(base, 45, 6, seed + 1)}


def _sweep_compile() -> dict[str, Any]:
    plans = _plans(_SWEEP_PATTERNS)
    plans["spec"] = experiments.load_spec(
        _SWEEP_SPEC, available_graphs=[_SWEEP_GRAPH]
    )
    return plans


def _sweep_oracle(inputs: Inputs) -> dict[str, Any]:
    g = inputs.graphs[_SWEEP_GRAPH]
    roots = roots_for(_SWEEP_GRAPH, g)
    return {
        p: engine.count_embeddings(
            g, inputs.plans[p], roots=roots, kernels=ORACLE_POLICY,
            jobs=ORACLE_JOBS,
        )
        for p in _SWEEP_PATTERNS
    }


def _sweep_jobs(inputs: Inputs, expected: dict[str, Any], scratch: Path):
    """Cold, warm and resume steps over one fresh store and cache."""
    spec = inputs.plans["spec"]
    store = experiments.ResultStore(scratch / "store")
    graphs = {_SWEEP_GRAPH: inputs.graphs[_SWEEP_GRAPH]}
    cells = len(spec.expand())

    def sweep(run_name):
        return experiments.run_sweep(
            spec, store=store, run=run_name, graphs=graphs
        )

    def cold():
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
        runner.clear_cache()
        return sweep("cold")

    def warm():
        runner.clear_cache()
        return sweep("warm")

    def checker(step, executed, resumed):
        def check(outcome):
            problems = []
            if (outcome.executed, outcome.resumed) != (executed, resumed):
                problems.append(
                    f"{step}: executed {outcome.executed}, resumed "
                    f"{outcome.resumed}; want {executed}, {resumed}"
                )
            cycles = 0.0
            for row in outcome.rows:
                if row.status != "ok":
                    problems.append(f"{step}: failed row {row.pattern}/"
                                    f"{row.backend}: {row.error}")
                elif tuple(row.counts) != (expected[row.pattern],):
                    problems.append(
                        f"{step}: {row.pattern}/{row.backend} counts "
                        f"{row.counts} != oracle {expected[row.pattern]}"
                    )
                cycles += row.cycles
            # Warm rows repeat the cold rows' cycles; count them once.
            return problems, {"cycles": cycles} if step == "cold" else {}
        return check

    return [
        Job("cold", cold, checker("cold", cells, 0)),
        Job("warm", warm, checker("warm", cells, 0)),
        Job("resume", lambda: sweep("cold"), checker("resume", 0, cells)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-er",
            "frontier engine and segmented set ops do the work; the "
            "cycle models none",
            1.2, _count_build, _count_compile, _no_roots, _count_oracle,
            _count_jobs,
        ),
        Workload(
            "sim-1pe",
            "Fig. 9 shape: the per-task PE loop of both cycle models on "
            "a cache-resident clique-rich graph",
            1.9, _mi_like, lambda: _plans(_SIM1_PATTERNS),
            lambda g: _stride(g, "mi", 2), _sim1_oracle, _sim1_jobs,
        ),
        Workload(
            "sim-chip",
            "Fig. 10 shape: 20-PE FINGERS vs 40-PE FlexMiner through "
            "shared cache, DRAM and NoC on a cache-overflowing graph",
            2.3, _lj_like, lambda: _plans(_CHIP_PATTERNS),
            lambda g: _stride(g, "lj", 48), _chip_oracle, _chip_jobs,
        ),
        Workload(
            "sweep-jobs2",
            "experiment sweep with jobs=2: pool, sharding, disk cache "
            "and result store, cold vs warm vs resume",
            1.7, _as_like, _sweep_compile, _no_roots, _sweep_oracle,
            _sweep_jobs,
        ),
    )
}
