"""Fault plans: grammar, deterministic decisions, install/clear, corruption."""

import os

import pytest

from repro import sanitize
from repro.errors import ConfigError, InjectedFault
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


class TestGrammar:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,crash:pool=0.3,transient:pool=0.2,hang:pool[abc]=0.5@9"
        )
        assert plan.seed == 7
        assert [r.kind for r in plan.rules] == ["crash", "transient", "hang"]
        hang = plan.rules[2]
        assert hang.match == "abc"
        assert hang.duration_s == 9.0

    def test_spec_roundtrip(self):
        spec = "seed=3,fail:cell=0.25,corrupt:cache[dead]=1@2"
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.spec()) == plan

    def test_empty_clauses_are_ignored(self):
        assert FaultPlan.parse("  , seed=1, ,") == FaultPlan(seed=1)

    @pytest.mark.parametrize("bad", [
        "crash=0.5",            # no site
        "crashpool=0.5",        # no ':'
        "crash:pool",           # no rate
        "crash:pool=lots",      # non-numeric rate
        "hang:pool=0.5@soon",   # non-numeric duration
        "seed=seven",           # non-integer seed
        "melt:pool=0.5",        # unknown kind
        "crash:pool=1.5",       # rate out of range
    ])
    def test_invalid_clauses_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            FaultRule(kind="crash", site="pool", rate=2.0)


class TestDecide:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan.parse("seed=11,transient:pool=0.4")
        draws = [plan.decide("pool", f"tok{i}", 0) for i in range(64)]
        again = [plan.decide("pool", f"tok{i}", 0) for i in range(64)]
        assert draws == again
        fired = sum(1 for d in draws if d is not None)
        assert 0 < fired < 64  # the rate actually selects a subset

    def test_rate_one_always_fires_and_rate_zero_never(self):
        always = FaultPlan.parse("transient:pool=1")
        never = FaultPlan.parse("transient:pool=0")
        for i in range(16):
            assert always.decide("pool", f"t{i}", i) is not None
            assert never.decide("pool", f"t{i}", i) is None

    def test_transient_redraws_per_attempt(self):
        plan = FaultPlan.parse("seed=0,transient:pool=0.5")
        tokens = [f"tok{i}" for i in range(32)]
        # Every token must eventually draw a clean attempt at rate 0.5.
        for tok in tokens:
            assert any(
                plan.decide("pool", tok, a) is None for a in range(20)
            )

    def test_fail_is_permanent_per_token(self):
        plan = FaultPlan.parse("seed=0,fail:cell=0.5")
        tokens = [f"tok{i}" for i in range(32)]
        fired = [plan.decide("cell", t, 0) is not None for t in tokens]
        assert any(fired) and not all(fired)
        for tok, hit in zip(tokens, fired):
            for attempt in range(8):  # attempt-independent by design
                assert (plan.decide("cell", tok, attempt) is not None) == hit

    def test_site_and_match_narrowing(self):
        plan = FaultPlan.parse("transient:pool[abc]=1")
        assert plan.decide("pool", "xxabcxx", 0) is not None
        assert plan.decide("pool", "other", 0) is None
        assert plan.decide("cell", "xxabcxx", 0) is None

    def test_seed_changes_the_selection(self):
        tokens = [f"tok{i}" for i in range(64)]
        pick = lambda seed: [
            FaultPlan.parse(f"seed={seed},transient:pool=0.3").decide(
                "pool", t, 0
            ) is not None
            for t in tokens
        ]
        assert pick(1) != pick(2)


class TestInstall:
    def test_install_exports_to_environment(self):
        plan = faults.install("seed=5,transient:pool=0.2")
        assert os.environ[faults.ENV_VAR] == plan.spec()
        assert faults.plan_active()
        assert faults.current_plan() == plan
        faults.clear()
        assert faults.ENV_VAR not in os.environ
        assert not faults.plan_active()
        assert faults.current_plan() is None

    def test_env_only_plan_is_parsed_and_cached(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "seed=9,fail:cell=1")
        plan = faults.current_plan()
        assert plan is not None and plan.seed == 9
        assert faults.current_plan() is plan  # cached object

    def test_inject_is_a_noop_without_a_plan(self):
        faults.inject("pool", "tok", 0)  # must not raise

    def test_inject_raises_injected_fault(self):
        faults.install("transient:pool=1")
        with pytest.raises(InjectedFault) as err:
            faults.inject("pool", "tok", 0)
        assert err.value.kind == "transient"

    def test_crash_and_hang_never_fire_in_the_driver(self):
        # This process is not marked as a worker, so a crash rule must
        # not hard-exit it (the fact that the test survives is the
        # assertion).
        faults.install("crash:pool=1,hang:pool=1@60")
        assert not faults.in_worker()
        faults.inject("pool", "tok", 0)


class TestCorruptBytes:
    def test_corruption_is_destructive_and_deterministic(self):
        faults.install("seed=1,corrupt:cache=1")
        data = bytes(range(64))
        out = faults.corrupt_bytes("cache", "key", data)
        assert out != data and 0 < len(out) < len(data)
        assert out == faults.corrupt_bytes("cache", "key", data)

    def test_corrupt_only_fires_on_corrupt_rules(self):
        faults.install("transient:cache=1")
        data = b"payload"
        assert faults.corrupt_bytes("cache", "key", data) == data
        # ...and inject() never fires corrupt rules.
        faults.clear()
        faults.install("corrupt:cache=1")
        faults.inject("cache", "key", 0)  # must not raise

    def test_token_for_matches_sanitizer_digest(self):
        payload = [[1, 2], [3]]
        assert faults.token_for(payload) == sanitize.payload_digest(payload)
