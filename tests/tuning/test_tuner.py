"""The measured-trial tuner: trials, persistence, and resolution."""

import pytest

import repro.tuning.tuner as tuner_mod
from repro.graph.generators import erdos_renyi
from repro.mining.engine import count_embeddings, per_root_counts
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import named_pattern
from repro.setops.kernels import KernelPolicy
from repro.tuning import (
    TUNER_VERSION,
    choice_key,
    load_choice,
    reset_tuning_stats,
    resolve_run,
    tune_plan,
    tuning_cache,
    tuning_stats,
)

GRAPH = erdos_renyi(90, 0.15, seed=7)


@pytest.fixture(autouse=True)
def _fresh_tuner_state(monkeypatch, tmp_path):
    """Each test starts with empty memo/stats and a private disk store:
    the session-wide conftest cache dir is shared with every other test,
    so a cold-store assertion here would otherwise depend on suite
    order (e.g. the kernel-agreement tuned tests warming this cell)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "tuner-cache"))
    tuner_mod._MEMO.clear()
    reset_tuning_stats()
    yield
    tuner_mod._MEMO.clear()
    reset_tuning_stats()


def test_cold_tune_runs_trials_and_persists():
    plan = compile_plan(named_pattern("tt"))
    choice = tune_plan(GRAPH, plan)
    stats = tuning_stats()
    assert stats.tuned_cells == 1
    assert stats.trials >= 2
    assert choice.trials == stats.trials
    assert choice.sample_size > 0
    key = choice_key(GRAPH, plan, KernelPolicy())
    assert load_choice(tuning_cache(), key) == choice


def test_second_resolve_hits_memo_with_zero_trials():
    plan = compile_plan(named_pattern("tt"))
    first = tune_plan(GRAPH, plan)
    reset_tuning_stats()
    second = tune_plan(GRAPH, plan)
    stats = tuning_stats()
    assert second == first
    assert stats.trials == 0
    assert stats.memo_hits == 1


def test_fresh_process_resolves_from_store_with_zero_trials():
    plan = compile_plan(named_pattern("tt"))
    first = tune_plan(GRAPH, plan)
    tuner_mod._MEMO.clear()  # simulate a new interpreter
    reset_tuning_stats()
    second = tune_plan(GRAPH, plan)
    stats = tuning_stats()
    assert second == first
    assert stats.trials == 0
    assert stats.store_hits == 1


def test_force_re_trials_despite_warm_store():
    plan = compile_plan(named_pattern("tt"))
    tune_plan(GRAPH, plan)
    reset_tuning_stats()
    tune_plan(GRAPH, plan, force=True)
    assert tuning_stats().trials >= 2


def test_trivial_single_level_plan_skips_trials():
    from repro.pattern.pattern import Pattern

    plan = compile_plan(Pattern(1, []))
    assert plan.num_levels < 2
    choice = tune_plan(GRAPH, plan)
    assert choice.candidate_label == "reference"
    assert choice.trials == 0
    assert tuning_stats().tuned_cells == 0


def test_resolve_run_returns_bit_compatible_plan_and_policy():
    plan = compile_plan(named_pattern("cyc"))
    tuned_plan, policy = resolve_run(GRAPH, plan, KernelPolicy(tuned=True))
    assert policy == KernelPolicy()
    assert list(
        per_root_counts(GRAPH, tuned_plan, kernels=policy)
    ) == list(per_root_counts(GRAPH, plan))


def test_tuner_version_bump_invalidates_the_store():
    plan = compile_plan(named_pattern("tt"))
    tune_plan(GRAPH, plan)
    key = choice_key(GRAPH, plan, KernelPolicy())
    stored = load_choice(tuning_cache(), key)
    assert stored is not None
    from dataclasses import replace

    tuning_cache().put(key, replace(stored, tuner_version=TUNER_VERSION + 1))
    assert load_choice(tuning_cache(), key) is None


def test_base_policies_key_separately():
    plan = compile_plan(named_pattern("tt"))
    a = choice_key(GRAPH, plan, KernelPolicy())
    b = choice_key(GRAPH, plan, KernelPolicy(engine="recursive"))
    assert a != b
    # ...but the tuned flag itself never reaches the key.
    assert choice_key(GRAPH, plan, KernelPolicy(tuned=True)) == a


def test_trial_sample_rounds_grow_and_dedupe():
    samples = tuner_mod._trial_samples(320)
    assert len(samples) >= 1
    sizes = [len(s) for s in samples]
    assert sizes == sorted(sizes)
    assert all(
        samples[i] != samples[i + 1] for i in range(len(samples) - 1)
    )
    tiny = tuner_mod._trial_samples(3)
    assert tiny[-1] == [0, 1, 2]
    assert all(
        tiny[i] != tiny[i + 1] for i in range(len(tiny) - 1)
    )


def test_tuned_counting_matches_untuned_on_fresh_store():
    plan = compile_plan(named_pattern("house"))
    reference = count_embeddings(GRAPH, plan)
    assert count_embeddings(
        GRAPH, plan, kernels=KernelPolicy(tuned=True)
    ) == reference


def test_trials_run_with_probes_suspended():
    """Tuning must not emit sanitizer probe events: a cold-store trial
    inside a sanitized double-run would otherwise diverge the traces."""
    from repro import sanitize

    events = []
    plan = compile_plan(named_pattern("tt"))
    with sanitize.capture() as trace:
        tune_plan(GRAPH, plan, force=True)
        events = list(trace.events)
    assert events == []
