"""The chaos CI gate (docs/RESILIENCE.md, `make chaos`).

Runs the smoke-shaped sweep twice — once clean, once under an injected
~30% shard-crash rate plus transient exceptions — and asserts the three
gate requirements:

1. the faulted sweep completes (every fault absorbed; no cell fails),
2. its results are bit-identical to the fault-free run, and
3. the retry counters are nonzero (the faults actually fired — a gate
   that passes because nothing was injected is no gate).
"""

import warnings

import pytest

from repro.bench.runner import clear_cache, configure, reset_stats
from repro.errors import PoolDegradedWarning
from repro.experiments import ResultStore, load_spec, run_sweep
from repro.graph import erdos_renyi
from repro.parallel import pool
from repro.resilience import faults

#: ~30% of shard attempts crash the worker, 20% raise transiently —
#: the rates the chaos gate is specified at.  The seed is pinned so the
#: gate exercises the same crashes on every machine.
CHAOS_SPEC = "seed=7,crash:pool=0.3,transient:pool=0.2"


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # Backoff-free retries (the gate measures recovery, not sleeping)
    # and an attempt budget sized so exhaustion is impossible for the
    # pinned seed: a shard is attempt-bumped whenever the pool dies
    # under it — even to another shard's crash — so at most 4
    # break-bumps (the rebuild budget) plus at most 10 own-fault
    # firings over 15 attempts still leaves every token a clean draw.
    # Only a shard's own faults advance its fault draws, so the faults
    # it meets are the same under any scheduling.
    monkeypatch.setenv("REPRO_RETRY", "base=0,attempts=15")
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.setattr(pool, "_WARNED_DEGRADED", False)
    faults.clear()
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield
    faults.clear()
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


GRAPHS = {"tiny": erdos_renyi(30, 0.3, seed=1)}

#: The smoke sweep shape (functional reference + FINGERS chip) on the
#: sharded execution model, so shard crashes have a pool to break.
SPEC_DATA = {
    "sweep": {
        "name": "chaos-smoke",
        "patterns": ["tc"],
        "graphs": ["tiny"],
        "backends": ["functional", "fingers"],
        "jobs": [2],
    },
    "configs": {"fingers": {"num_pes": 2}},
}


def _measurements(rows):
    return [
        (r.pattern, r.graph, r.backend, r.count, tuple(r.counts), r.cycles)
        for r in rows
    ]


class TestChaosGate:
    def test_sweep_under_chaos_is_bit_identical_with_nonzero_retries(
        self, tmp_path
    ):
        spec = load_spec(SPEC_DATA, available_graphs=["tiny"])
        store = ResultStore(tmp_path / "store")

        clean = run_sweep(spec, store=store, graphs=GRAPHS, run="clean",
                          disk=False)
        assert clean.executed == 2 and clean.failed == 0

        # A warm in-process memo would satisfy the faulted run from
        # cache and inject nothing; the gate must re-simulate.
        # seed=7 draws a crash for 8 of the 16 shard tokens at attempt
        # 0, so the sweep's pool breaks in every cell (the second cell
        # starts on the pool the first one rebuilt) and no token can
        # exhaust the 15-attempt budget (see _hermetic); rebuild depth
        # and possible degradation to serial vary with OS scheduling,
        # so the degradation warning is tolerated, not required.
        clear_cache()
        before = pool.retry_stats()
        faults.install(CHAOS_SPEC)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolDegradedWarning)
                faulted = run_sweep(spec, store=store, graphs=GRAPHS,
                                    run="faulted", disk=False)
        finally:
            faults.clear()
        delta = pool.retry_stats().delta(before)

        # Requirement 1: every fault absorbed, no failure rows.
        assert faulted.executed == 2 and faulted.failed == 0

        # Requirement 2: results bit-identical to the fault-free run.
        assert _measurements(faulted.rows) == _measurements(clean.rows)

        # Requirement 3: the faults actually fired.
        assert delta.crashes > 0
        assert delta.retries > 0
        assert delta.pool_rebuilds > 0
        assert delta.exhausted == 0
        # ...and the recovery is visible in the rows' retry accounting.
        assert all(row.retry["retries"] > 0 for row in faulted.rows)
        # ...but never in the stored measurements' status.
        assert all(row.ok for row in faulted.rows)

    def test_chaos_run_resumes_like_any_other(self, tmp_path):
        # The faulted store is a normal store: a follow-up resume must
        # execute zero cells, proving retries never poisoned cell keys.
        spec = load_spec(SPEC_DATA, available_graphs=["tiny"])
        store = ResultStore(tmp_path / "store")
        faults.install(CHAOS_SPEC)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolDegradedWarning)
                run_sweep(spec, store=store, graphs=GRAPHS, disk=False)
            again = run_sweep(spec, store=store, graphs=GRAPHS, disk=False)
        finally:
            faults.clear()
        assert again.executed == 0 and again.resumed == 2
