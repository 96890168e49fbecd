"""Pinned cycle-model outputs: every timing statistic, compared exactly.

Each case runs one cycle model on a small seeded graph and serializes the
full result — cycles, counts, every ``PEStats`` field, per-unit finish
times, the cache/DRAM/NoC/LLC sections, the scalars and (for the traced
case) the event list — with floats as ``repr`` strings, so any change to
the timing model's arithmetic, traversal order or memory-system state
shows up as a diff.  ``tests/hw/data/golden_cycles.json`` holds the
expected values.

Every case runs twice against the same golden entry: once as the host
picks its set-op kernels, and once with
:data:`repro.setops.segmented.BITMAP_BUDGET_BYTES` at 0, which selects
the edge-key membership kernel and turns off the word-parallel rows.
The modelled cycles must not depend on how the host computed the sets.

Regenerate (only when a timing change is intended, and say so in the
change description)::

    PYTHONPATH=src python tests/hw/test_golden_cycles.py --regen
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, is_dataclass, replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.backend import backend_for_config, get_backend
from repro.core.sharded import run_sharded
from repro.graph import builders
from repro.graph import generators as gen
from repro.hw.api import (
    FingersConfig,
    FlexMinerConfig,
    MemoryConfig,
    resolve_workload,
    simulate,
)
from repro.hw.area import iso_area_segment_length
from repro.hw.noc import NoCConfig
from repro.hw.trace import Tracer
from repro.setops import segmented
from repro.sw.config import SoftwareConfig

GOLDEN = Path(__file__).with_name("data") / "golden_cycles.json"

#: A shared cache small enough that the test graph overflows it, so the
#: DRAM and eviction paths carry traffic.
SMALL_MEM = MemoryConfig(shared_cache_bytes=1024)

#: The same memory with an ideal crossbar, and with the most congested
#: NoC the bandwidth sensitivity sweep uses.
IDEAL_NOC_MEM = replace(SMALL_MEM, noc=NoCConfig(bytes_per_cycle=0))
CONGESTED_NOC_MEM = replace(SMALL_MEM, noc=NoCConfig(bytes_per_cycle=1))

#: Unbounded DRAM and NoC bandwidth: no queueing breaks the symmetry of
#: lockstep PEs, so their clocks tie at most events.
TIE_MEM = MemoryConfig(
    dram_bytes_per_cycle=float("inf"), noc=NoCConfig(bytes_per_cycle=0)
)


@lru_cache(maxsize=None)
def _graph(name: str):
    if name == "ba":
        # BA(140, 3) plus five planted 5-cliques, degree-relabelled: a
        # skewed graph with hubs (multi-item ops) and clique-rich roots.
        base = gen.barabasi_albert(140, 3, seed=11)
        cliques = gen.planted_cliques(140, num_cliques=5, clique_size=5, seed=12)
        edges = list(base.edges()) + list(cliques.edges())
        return builders.relabel_by_degree(
            builders.from_edges(edges, num_vertices=140)
        )
    if name == "tiny":
        return builders.relabel_by_degree(gen.erdos_renyi(30, 0.3, seed=13))
    if name == "circulant":
        # C_72(3, 6, 9, 15): vertex-transitive, and three interleaved
        # copies of C_24(1, 2, 3, 5), so roots 3k, 3k+1 and 3k+2 grow
        # isomorphic trees in lockstep on a three-PE chip.
        n = 72
        edges = [(v, (v + d) % n) for v in range(n) for d in (3, 6, 9, 15)]
        return builders.from_edges(edges, num_vertices=n)
    raise KeyError(name)


def _fingers(**kw):
    return FingersConfig(**{"num_pes": 1, **kw})


def _flex(**kw):
    return FlexMinerConfig(**{"num_pes": 1, **kw})


def _cases():
    cases = {}
    # dia: a subtract under a lower bound at the last level; house: five
    # levels, an anti-subtract chain feeding the last op.
    for p in ("tc", "4cl", "tt", "cyc", "3mc", "dia", "house"):
        cases[f"fingers-1pe-{p}"] = ("ba", p, _fingers(), {})
        cases[f"flexminer-1pe-{p}"] = ("ba", p, _flex(), {})
    for sched in ("dynamic", "static_interleave", "static_block"):
        cases[f"fingers-4pe-{sched}-tt"] = (
            "ba", "tt", _fingers(num_pes=4),
            {"schedule": sched, "memory": SMALL_MEM},
        )
        cases[f"flexminer-4pe-{sched}-4cl"] = (
            "ba", "4cl", _flex(num_pes=4),
            {"schedule": sched, "memory": SMALL_MEM},
        )
    for noc_name, mem in (("idealnoc", IDEAL_NOC_MEM),
                          ("congestednoc", CONGESTED_NOC_MEM)):
        cases[f"fingers-4pe-{noc_name}-tt"] = (
            "ba", "tt", _fingers(num_pes=4), {"memory": mem},
        )
        cases[f"flexminer-4pe-{noc_name}-4cl"] = (
            "ba", "4cl", _flex(num_pes=4), {"memory": mem},
        )
    # Tie-heavy: three PEs on a vertex-transitive graph; the FINGERS case
    # is traced so the event interleaving under equal clocks is pinned.
    cases["fingers-3pe-ties-4cl"] = (
        "circulant", "4cl", _fingers(num_pes=3),
        {"trace": True, "memory": TIE_MEM},
    )
    cases["flexminer-3pe-ties-tt"] = (
        "circulant", "tt", _flex(num_pes=3), {"memory": TIE_MEM},
    )
    cases["software-branch-3core-ties-4cl"] = (
        "circulant", "4cl", SoftwareConfig(num_cores=3, granularity="branch"),
        {"memory": TIE_MEM},
    )
    for n in (48, 2):
        cases[f"fingers-isoarea-{n}ius-tt"] = (
            "ba", "tt",
            _fingers(num_ius=n, long_segment_len=iso_area_segment_length(n)),
            {},
        )
    cases["fingers-spill-tt"] = ("ba", "tt", _fingers(private_cache_bytes=64), {})
    cases["fingers-spill-3mc"] = (
        "ba", "3mc", _fingers(num_pes=3, private_cache_bytes=64),
        {"memory": SMALL_MEM},
    )
    cases["fingers-group3-4cl"] = ("ba", "4cl", _fingers(task_group_size=3), {})
    cases["flexminer-refetch-tt"] = (
        "ba", "tt", _flex(private_cache_bytes=64), {"memory": SMALL_MEM},
    )
    cases["flexminer-refetch-3mc"] = (
        "ba", "3mc", _flex(num_pes=3, private_cache_bytes=64), {},
    )
    for gran in ("tree", "branch"):
        for p in ("tt", "3mc"):
            cases[f"software-{gran}-{p}"] = (
                "ba", p, SoftwareConfig(num_cores=4, granularity=gran), {},
            )
    cases["software-branch-1core-4cl"] = (
        "ba", "4cl", SoftwareConfig(num_cores=1, granularity="branch"), {},
    )
    # Three hub roots on four cores: idle cores steal most of the work.
    cases["software-branch-hubroots-tt"] = (
        "ba", "tt", SoftwareConfig(num_cores=4, granularity="branch"),
        {"roots": [0, 1, 2]},
    )
    cases["fingers-sharded-jobs2-tc"] = (
        "ba", "tc", _fingers(num_pes=2), {"jobs": 2, "shards": 3},
    )
    cases["fingers-traced-4cl"] = ("tiny", "4cl", _fingers(num_pes=2), {"trace": True})
    cases["flexminer-traced-tt"] = ("tiny", "tt", _flex(num_pes=2), {"trace": True})
    return cases


CASES = _cases()


def _plain(value):
    """JSON-ready copy with every float as its exact ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if is_dataclass(value) and not isinstance(value, type):
        return _plain(asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def run_case(name: str) -> dict:
    graph_name, workload, config, opts = CASES[name]
    graph = _graph(graph_name)
    opts = dict(opts)
    tracer = Tracer() if opts.pop("trace", False) else None
    if "shards" in opts:
        # A pinned cut is an option of the sharded driver only.
        _, plans, _ = resolve_workload(workload)
        res = run_sharded(
            backend_for_config(config), graph, plans, config,
            num_shards=opts.pop("shards"), **opts,
        )
    elif isinstance(config, SoftwareConfig):
        res = get_backend("software").run(graph, workload, config, **opts)
    else:
        res = simulate(graph, workload, config, tracer=tracer, **opts)
    out = {
        "cycles": res.cycles,
        "counts": list(res.counts),
        "units": list(res.units),
        "unit_finish_times": list(res.unit_finish_times),
        "sections": dict(res.sections),
        "scalars": dict(res.scalars),
    }
    if tracer is not None:
        out["events"] = [
            [e.pe_id, e.start, e.end, e.kind, e.detail] for e in tracer.events
        ]
    return _plain(out)


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


#: Host set-op kernel choices every case runs under (module docstring).
KERNELS = ("default", "edgekey")
_KERNEL_CASES = [(name, k) for name in sorted(CASES) for k in KERNELS]


@pytest.mark.parametrize(
    "name, kernel", _KERNEL_CASES,
    ids=[n if k == "default" else f"{n}-{k}" for n, k in _KERNEL_CASES],
)
def test_golden_cycles(name, kernel, monkeypatch):
    if kernel == "edgekey":
        monkeypatch.setattr(segmented, "BITMAP_BUDGET_BYTES", 0)
    expected = _golden()[name]
    got = run_case(name)
    for key in expected:
        assert got[key] == expected[key], f"{name}: {key} differs"
    assert set(got) == set(expected)


def test_golden_file_covers_every_case():
    assert set(_golden()) == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_golden_cycles.py --regen")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    data = {name: run_case(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
