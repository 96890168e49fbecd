"""Run-ahead replay is exactly the one-group-per-event schedule.

The chip and the software miner let the earliest PE replay task groups
until another PE's event is earlier (:meth:`repro.hw.pe.BasePE.run`).
These tests hold them to the loops they replaced
(:mod:`reference.event_loop`): the whole :class:`RunResult` — cycles,
counts, every ``PEStats`` field, finish times, sections, scalars — and
the tracer event list must be equal, for both designs, every schedule
and the software model at both granularities.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.event_loop import reference_run_chip, reference_run_software
from repro.core.workload import resolve_workload
from repro.graph import builders, erdos_renyi
from repro.hw.chip import run_chip
from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.noc import NoCConfig
from repro.hw.pe import FingersPE
from repro.hw.trace import Tracer
from repro.sw.config import SoftwareConfig
from repro.sw.miner import SoftwareMiner

PATTERNS = ("tc", "4cl", "tt", "cyc", "3mc")

#: Default memory, a shared cache small enough to evict, a congested
#: NoC, and unbounded bandwidth (no queueing, so PE clocks tie often).
MEMORIES = (
    MemoryConfig(),
    MemoryConfig(shared_cache_bytes=256),
    replace(MemoryConfig(shared_cache_bytes=512),
            noc=NoCConfig(bytes_per_cycle=1)),
    MemoryConfig(dram_bytes_per_cycle=float("inf"),
                 noc=NoCConfig(bytes_per_cycle=0)),
)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 22))
    p = draw(st.sampled_from((0.15, 0.35, 0.7)))
    g = erdos_renyi(n, p, seed=draw(st.integers(0, 10_000)))
    return builders.relabel_by_degree(g) if draw(st.booleans()) else g


def _plans(pattern):
    return resolve_workload(pattern)[1]


@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(),
    pattern=st.sampled_from(PATTERNS),
    fingers=st.booleans(),
    num_pes=st.integers(1, 3),
    schedule=st.sampled_from(("dynamic", "static_interleave", "static_block")),
    memory=st.sampled_from(MEMORIES),
)
def test_chip_equals_one_group_per_event(
    graph, pattern, fingers, num_pes, schedule, memory
):
    config = (FingersConfig if fingers else FlexMinerConfig)(num_pes=num_pes)
    plans = _plans(pattern)
    want_events, got_events = Tracer(), Tracer()
    want = reference_run_chip(graph, plans, config, memory,
                              schedule=schedule, tracer=want_events)
    got = run_chip(graph, plans, config, memory,
                   schedule=schedule, tracer=got_events)
    assert got == want
    assert got_events.events == want_events.events


@settings(max_examples=40, deadline=None)
@given(
    graph=graphs(),
    pattern=st.sampled_from(PATTERNS),
    granularity=st.sampled_from(("tree", "branch")),
    num_cores=st.integers(1, 4),
    memory=st.sampled_from(MEMORIES),
)
def test_software_equals_one_task_per_event(
    graph, pattern, granularity, num_cores, memory
):
    config = SoftwareConfig(num_cores=num_cores, granularity=granularity)
    miner = SoftwareMiner(graph, _plans(pattern), config, memory)
    assert miner.run() == reference_run_software(miner)


@pytest.mark.parametrize("num_pes", [1, 3])
def test_each_event_runs_ahead(monkeypatch, num_pes):
    # A one-PE chip replays each root's tree in a single run() call; on
    # more PEs the heap sees fewer events than there are task groups.
    calls = []
    real_run = FingersPE.run

    def spy(pe, bound):
        calls.append(pe.pe_id)
        return real_run(pe, bound)

    monkeypatch.setattr(FingersPE, "run", spy)
    graph = builders.relabel_by_degree(erdos_renyi(30, 0.3, seed=5))
    res = run_chip(graph, _plans("tt"), FingersConfig(num_pes=num_pes))
    groups = sum(u.task_groups for u in res.units)
    if num_pes == 1:
        assert len(calls) == graph.num_vertices
    assert len(calls) < groups
