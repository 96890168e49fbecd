"""Shard recovery under faults: crashes, hangs, transients, exhaustion.

The load-bearing assertion in every test: recovery is invisible in
results — a run that absorbed worker deaths and injected exceptions is
bit-identical to a fault-free run (docs/RESILIENCE.md).
"""

import os
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FingersConfig, count, simulate
from repro.errors import (
    InjectedFault,
    PoolDegradedWarning,
    RetryExhausted,
    RetryableError,
)
from repro.graph import erdos_renyi
from repro.parallel import pool
from repro.parallel.pool import run_shards
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, RetryStats

#: Backoff-free policy: fault tests measure recovery, not sleeping.
FAST = RetryPolicy(backoff_base_s=0.0)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_RETRY", raising=False)
    monkeypatch.setattr(pool, "_WARNED_DEGRADED", False)
    faults.clear()
    yield
    faults.clear()


def _square_sum(payload, shard):
    return payload * sum(shard)


def _crash_once(payload, shard):
    # A worker defect with a memory: os._exit (no exception, no cleanup)
    # on the first encounter of shard [3], recorded via a sentinel file
    # so the retry succeeds.  Exactly the BrokenProcessPool shape.
    sentinel = os.path.join(payload, f"crashed-{shard[0]}")
    if shard[0] == 3 and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(86)
    return sum(shard)


def _always_transient(payload, shard):
    raise InjectedFault("always failing", kind="transient")


def _defective(payload, shard):
    raise KeyError("logic bug, not a fault")


SHARDS = [[i, i + 1] for i in range(8)]


class TestCrashRecovery:
    def test_os_exit_mid_shard_is_bit_identical_after_retry(self, tmp_path):
        shards = [[i] for i in range(8)]
        clean = [sum(s) for s in shards]
        stats = RetryStats()
        out = run_shards(
            _crash_once, str(tmp_path), shards, jobs=4,
            policy=FAST, stats=stats,
        )
        assert out == clean
        assert stats.crashes >= 1
        assert stats.pool_rebuilds >= 1
        assert stats.retries >= 1
        assert stats.exhausted == 0

    def test_injected_crash_plan_is_bit_identical(self):
        # seed=7 draws a crash for 3 of the 8 shard tokens at attempt 0
        # (so the first pool always breaks).  Salvage counts, rebuild
        # depth, and possible degradation to serial legitimately vary
        # with OS scheduling — a shard is attempt-bumped whenever the
        # pool dies under it, even to another shard's crash — so the
        # assertions avoid them, and the attempt budget is sized so
        # exhaustion is impossible for this seed: at most 4 break-bumps
        # (the rebuild budget) plus at most 8 own-fault firings over 15
        # attempts leaves every token a clean attempt.  The faults each
        # shard meets are fixed: only its own faults advance its draws.
        clean = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)
        faults.install("seed=7,crash:pool=0.3,transient:pool=0.2")
        stats = RetryStats()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PoolDegradedWarning)
            out = run_shards(
                _square_sum, 3, SHARDS, jobs=4,
                policy=RetryPolicy(max_attempts=15, backoff_base_s=0.0),
                stats=stats,
            )
        assert out == clean
        assert stats.crashes > 0
        assert stats.pool_rebuilds >= 1
        assert stats.retries > 0
        assert stats.exhausted == 0

    def test_rebuild_budget_zero_degrades_to_serial(self):
        # Deterministic degradation: every worker attempt crashes and
        # the budget tolerates zero rebuilds, so the first pool death
        # must warn once and finish the run in-process (where crash
        # faults never fire).
        clean = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)
        faults.install("crash:pool=1")
        stats = RetryStats()
        with pytest.warns(PoolDegradedWarning, match="degraded to serial"):
            out = run_shards(
                _square_sum, 3, SHARDS, jobs=4,
                policy=RetryPolicy(max_pool_rebuilds=0, backoff_base_s=0.0),
                stats=stats,
            )
        assert out == clean
        assert stats.serial_fallbacks == 1
        assert stats.crashes >= 1

    def test_injected_crashes_never_fire_on_the_serial_path(self):
        # crash/hang are worker-only: jobs=1 runs in the driver process,
        # so a 100% crash rate must be a no-op (the test surviving is
        # the point).
        faults.install("crash:pool=1")
        out = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)
        assert out == run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)


class TestTimeouts:
    def test_hung_shard_times_out_and_retries_clean(self):
        # seed=0 hangs two shard attempts (5 s each) on first draw; the
        # 0.5 s collection timeout abandons the stuck pool and the
        # retried attempts draw clean.
        clean = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)
        faults.install("seed=0,hang:pool=0.35@5")
        stats = RetryStats()
        out = run_shards(
            _square_sum, 3, SHARDS, jobs=4,
            policy=RetryPolicy(timeout_s=0.5, backoff_base_s=0.0),
            stats=stats,
        )
        assert out == clean
        assert stats.timeouts >= 1
        assert stats.pool_rebuilds >= 1
        assert stats.exhausted == 0


class TestTransients:
    def test_transient_faults_retry_to_identical_results(self):
        clean = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)
        faults.install("seed=2,transient:pool=0.5")
        stats = RetryStats()
        out = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST,
                         stats=stats)
        assert out == clean
        assert stats.transient_errors > 0
        assert stats.retries == stats.transient_errors

    def test_retry_exhaustion_raises_with_cause(self):
        with pytest.raises(RetryExhausted) as err:
            run_shards(_always_transient, None, [[1]], jobs=1,
                       policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0))
        assert err.value.attempts == 3
        assert isinstance(err.value.__cause__, RetryableError)

    def test_non_retryable_worker_defects_propagate_unchanged(self):
        stats = RetryStats()
        with pytest.raises(KeyError, match="logic bug"):
            run_shards(_defective, None, [[1], [2]], jobs=1,
                       policy=FAST, stats=stats)
        assert stats.retries == 0  # defects are reported, never retried


class TestStatsPlumbing:
    def test_process_totals_accumulate_across_calls(self):
        faults.install("seed=2,transient:pool=0.5")
        before = pool.retry_stats()
        run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST)
        delta = pool.retry_stats().delta(before)
        assert delta.retries > 0
        assert delta.attempts >= len(SHARDS)

    def test_fault_free_runs_report_no_recovery(self):
        stats = RetryStats()
        run_shards(_square_sum, 3, SHARDS, jobs=1, policy=FAST, stats=stats)
        assert stats.attempts == len(SHARDS)
        assert not stats.recovered


TINY = erdos_renyi(30, 0.3, seed=1)


class TestFaultInvarianceProperties:
    """Transient faults never change results, for any seed and rate."""

    @given(seed=st.integers(0, 2 ** 32), rate=st.floats(0.05, 0.7))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_shards_results_are_fault_invariant(self, seed, rate):
        policy = RetryPolicy(max_attempts=60, backoff_base_s=0.0)
        clean = run_shards(_square_sum, 3, SHARDS, jobs=1, policy=policy)
        faults.install(f"seed={seed},transient:pool={rate}")
        try:
            faulted = run_shards(_square_sum, 3, SHARDS, jobs=1,
                                 policy=policy)
        finally:
            faults.clear()
        assert faulted == clean

    @given(seed=st.integers(0, 2 ** 32))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_result_counts_are_fault_invariant(self, seed, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY", "base=0,attempts=60")
        clean_count = count(TINY, "tc", jobs=1)
        clean_sim = simulate(TINY, "tc", FingersConfig(num_pes=2), jobs=1)
        faults.install(f"seed={seed},transient:pool=0.4")
        try:
            assert count(TINY, "tc", jobs=1) == clean_count
            faulted = simulate(TINY, "tc", FingersConfig(num_pes=2), jobs=1)
        finally:
            faults.clear()
        assert faulted.count == clean_sim.count
        assert tuple(faulted.counts) == tuple(clean_sim.counts)
        assert faulted.cycles == clean_sim.cycles


class _BreakingExecutor:
    """Stands in for ProcessPoolExecutor: the first pool breaks under
    every shard, later pools run each shard in-process on the payload
    its call staged.  Records the fault draw each shard is submitted
    with."""

    pools = 0

    def __init__(self, max_workers, initializer):
        self.first = _BreakingExecutor.pools == 0
        _BreakingExecutor.pools += 1
        self.submitted = _BreakingExecutor.submitted

    def submit(self, fn, task):
        path, draw, shard = task
        self.submitted.append((shard[0], draw))
        fut = Future()
        if self.first:
            fut.set_exception(BrokenProcessPool("a worker died"))
        else:
            worker, payload = pool._load(path)
            fut.set_result(worker(payload, shard))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _RefusingExecutor(_BreakingExecutor):
    """The first pool breaks under its first shard and then refuses every
    later submission, as a real pool does once it sees a worker die."""

    def submit(self, fn, task):
        if self.first and self.submitted:
            raise BrokenProcessPool("the pool is not usable anymore")
        return super().submit(fn, task)


class TestBrokenSubmit:
    def test_refused_submissions_are_requeued(self, monkeypatch):
        # A worker can die while shards are still being queued; submit()
        # itself then raises.  Every shard reruns on the next pool.
        monkeypatch.setattr(_BreakingExecutor, "pools", 0)
        monkeypatch.setattr(_BreakingExecutor, "submitted", [], raising=False)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _RefusingExecutor)
        stats = RetryStats()
        out = run_shards(_square_sum, 3, SHARDS, jobs=2, policy=FAST,
                         stats=stats)
        assert out == [3 * sum(s) for s in SHARDS]
        assert stats.crashes == 1
        assert stats.pool_rebuilds == 1
        assert stats.retries == len(SHARDS)


class TestFaultDraws:
    SPEC = "seed=7,crash:pool=0.3"

    def _shards(self):
        # One shard whose first draw crashes (its second is clean) and
        # one whose first draw is clean.
        plan = faults.FaultPlan.parse(self.SPEC)

        def fires(shard, draw):
            return plan.decide("pool", faults.token_for(shard), draw)

        candidates = [[i] for i in range(200)]
        crasher = next(s for s in candidates
                       if fires(s, 0) and not fires(s, 1))
        bystander = next(s for s in candidates if not fires(s, 0))
        return crasher, bystander

    @pytest.mark.parametrize("crasher_first", [True, False])
    def test_collateral_requeue_keeps_the_draw(self, monkeypatch,
                                               crasher_first):
        # The pool breaks under both shards; only the crasher's own draw
        # fired, so only its draw advances.  The bystander retries at the
        # draw it had, whichever of the two was collected first.
        crasher, bystander = self._shards()
        shards = [crasher, bystander] if crasher_first else [bystander, crasher]
        monkeypatch.setattr(_BreakingExecutor, "pools", 0)
        monkeypatch.setattr(_BreakingExecutor, "submitted", [], raising=False)
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _BreakingExecutor)
        faults.install(self.SPEC)
        stats = RetryStats()
        out = run_shards(_square_sum, 1, shards, jobs=2,
                         policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
                         stats=stats)
        assert out == [sum(s) for s in shards]
        draws = {}
        for key, draw in _BreakingExecutor.submitted:
            draws.setdefault(key, []).append(draw)
        assert draws == {crasher[0]: [0, 1], bystander[0]: [0, 0]}
        # Both requeues still charge the retry budget.
        assert stats.retries == 2
        assert stats.pool_rebuilds == 1
