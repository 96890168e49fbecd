"""RetryPolicy parsing and deterministic backoff; RetryStats accounting."""

import pytest

from repro.errors import ConfigError
from repro.resilience.retry import RetryPolicy, RetryStats


class TestPolicySpec:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 5
        assert policy.timeout_s is None
        assert policy.max_pool_rebuilds == 3

    def test_from_spec_overrides_everything(self):
        policy = RetryPolicy.from_spec(
            "attempts=6,timeout=30,base=0.1,cap=2,rebuilds=1,seed=9"
        )
        assert policy == RetryPolicy(
            max_attempts=6, timeout_s=30.0, backoff_base_s=0.1,
            backoff_cap_s=2.0, max_pool_rebuilds=1, jitter_seed=9,
        )

    def test_timeout_none_disables(self):
        assert RetryPolicy.from_spec("timeout=none").timeout_s is None

    def test_current_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY", "attempts=2")
        assert RetryPolicy.current().max_attempts == 2
        monkeypatch.delenv("REPRO_RETRY")
        assert RetryPolicy.current() == RetryPolicy()

    @pytest.mark.parametrize("bad", [
        "attempts",            # no '='
        "retries=3",           # unknown key
        "attempts=many",       # non-numeric
        "attempts=0",          # below minimum
        "timeout=-1",          # non-positive timeout
        "rebuilds=-1",
    ])
    def test_invalid_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            RetryPolicy.from_spec(bad)


class TestBackoff:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.05, backoff_cap_s=1.0)
        series = [policy.backoff_s(r, token="t") for r in range(8)]
        assert series == [policy.backoff_s(r, token="t") for r in range(8)]
        assert all(0.0 < s <= 1.0 for s in series)
        # Jitter stays within [0.5, 1.0] of the raw exponential value.
        for round_no, slept in enumerate(series):
            raw = min(1.0, 0.05 * 2 ** round_no)
            assert 0.5 * raw <= slept <= raw

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base_s=0.0).backoff_s(3) == 0.0

    def test_jitter_decorrelates_rounds_and_tokens(self):
        policy = RetryPolicy(backoff_cap_s=100.0)
        assert policy.backoff_s(4, token="a") != policy.backoff_s(4, token="b")

    def test_seed_changes_the_jitter(self):
        a = RetryPolicy(jitter_seed=1).backoff_s(0, token="t")
        b = RetryPolicy(jitter_seed=2).backoff_s(0, token="t")
        assert a != b


class TestStats:
    def test_add_delta_roundtrip(self):
        total = RetryStats(attempts=10, retries=2, crashes=1)
        before = total.snapshot()
        total.add(RetryStats(attempts=5, retries=1, backoff_s=0.25))
        delta = total.delta(before)
        assert delta == RetryStats(attempts=5, retries=1, backoff_s=0.25)

    def test_dict_roundtrip(self):
        stats = RetryStats(attempts=3, timeouts=1, backoff_s=0.5)
        assert RetryStats(**stats.as_dict()) == stats

    def test_recovered_flags_only_actual_recovery(self):
        assert not RetryStats(attempts=50).recovered
        assert RetryStats(retries=1).recovered
        assert RetryStats(crashes=1).recovered
        assert RetryStats(serial_fallbacks=1).recovered
