"""The measured-trial tuner: time candidates, verify, persist, resolve.

``KernelPolicy(tuned=True)`` is the opt-in; this module is what it
resolves through.  Candidates are vertex orders, all timed under the
caller's base policy.  The flow per (plan, graph, base-policy) cell:

1. **Memo** — an in-process table keyed like the store, so a sweep
   tunes each cell at most once per process (and a sanitized double-run
   resolves identically both times).
2. **Store** — the persistent tuned-choice store (:mod:`.store`): one
   process pays the trial cost, the whole fleet reuses the decision
   with *zero* measured trials.
3. **Trials** — candidates (:mod:`.candidates`) race on deterministic
   stride-sampled root subsets under successive halving: every round
   doubles the sample and keeps the faster half, so losers are
   eliminated on cheap samples and only finalists pay for the big one.

Correctness is enforced *inside* the trials: each candidate's per-root
count sequence on the round's sample must equal the reference plan's —
the condition under which swapping the plan is invisible to callers
(totals, per-root pairs, sharded merges, root subsets).  A diverging
candidate is dropped, never an error: the cost model proposes,
measurement disposes.  The reference candidate itself can win, so tuned
execution is never functionally different from — and never selected to
be slower than — the untuned run.

Trials run with :func:`repro.sanitize.suspended` probes: they execute
only on a cold store, so under a sanitized double-run their kernel
events would diverge the cold trace from the warm one.  Trial *wall
time* is also why measured results should be produced against a warm
store (``repro tune`` first, then the sweep — ``make tune-smoke``
checks the zero-re-trial contract).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro import sanitize
from repro.graph.csr import CSRGraph
from repro.pattern.compiler import compile_plan
from repro.pattern.plan import ExecutionPlan
from repro.setops.kernels import DEFAULT_POLICY, KernelPolicy
from repro.tuning.candidates import (
    TunerCandidate,
    generate_candidates,
    original_pattern,
)
from repro.tuning.store import (
    TUNER_VERSION,
    TunedChoice,
    choice_key,
    load_choice,
    save_choice,
    tuning_cache,
)

__all__ = [
    "TuningStats",
    "resolve_run",
    "reset_tuning_stats",
    "tune_plan",
    "tuning_stats",
]

#: Target root-sample size of the deciding (final) trial round; earlier
#: rounds run on progressively smaller strided subsets.
FINAL_SAMPLE_TARGET = 160

#: Successive-halving rounds (each quadruples the sample stride of the
#: next; the last runs at the final target).
ROUNDS = 3


@dataclass
class TuningStats:
    """Process-wide tuner accounting (``repro tune``, ``make
    tune-smoke``, and the executor's extras read these)."""

    #: Measured candidate executions (including reference re-runs).
    trials: int = 0
    #: Cells decided by fresh trials in this process.
    tuned_cells: int = 0
    #: Cells resolved from the persistent store (zero trials).
    store_hits: int = 0
    #: Cells resolved from the in-process memo.
    memo_hits: int = 0
    #: Candidates dropped for diverging per-root sequences.
    rejected_candidates: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "trials": self.trials,
            "tuned_cells": self.tuned_cells,
            "store_hits": self.store_hits,
            "memo_hits": self.memo_hits,
            "rejected_candidates": self.rejected_candidates,
        }


_STATS = TuningStats()

#: In-process resolution memo: store key -> (choice, compiled plan).
#: Driver-only state — workers resolve from the disk store — and a
#: profiling-adjacent cache, never an input to counted results.
_MEMO: dict[str, tuple[TunedChoice, ExecutionPlan]] = {}


def tuning_stats() -> TuningStats:
    """Snapshot of the process-wide tuner counters."""
    return replace(_STATS)


def reset_tuning_stats() -> None:
    """Zero the tuner counters (tests and the smoke gate)."""
    global _STATS
    _STATS = TuningStats()


def _trial_samples(num_vertices: int) -> list[list[int]]:
    """The per-round root samples: deterministic stride subsets that
    grow toward :data:`FINAL_SAMPLE_TARGET`, deduplicated for tiny
    graphs where successive strides collapse to the same set."""
    samples: list[list[int]] = []
    final_stride = max(1, num_vertices // FINAL_SAMPLE_TARGET)
    for round_index in reversed(range(ROUNDS)):
        stride = final_stride * (4 ** round_index)
        sample = list(range(0, num_vertices, max(1, stride)))
        if not samples or sample != samples[-1]:
            samples.append(sample)
    return samples


def _compile_candidate(
    plan: ExecutionPlan, candidate: TunerCandidate
) -> ExecutionPlan:
    if candidate.order == tuple(plan.vertex_order):
        return plan
    return compile_plan(
        original_pattern(plan),
        order=candidate.order,
        vertex_induced=plan.vertex_induced,
    )


def _timed_counts(
    graph: CSRGraph,
    plan: ExecutionPlan,
    policy: KernelPolicy,
    roots: list[int],
) -> tuple[list[tuple[int, int]], float]:
    from repro.mining.engine import per_root_counts

    start = time.perf_counter()
    pairs = list(per_root_counts(graph, plan, roots=roots, kernels=policy))
    return pairs, time.perf_counter() - start


def _run_trials(
    graph: CSRGraph, plan: ExecutionPlan, base: KernelPolicy
) -> TunedChoice:
    candidates = generate_candidates(graph, plan)
    plans = [_compile_candidate(plan, c) for c in candidates]
    # Index 0 is the reference; it survives every cut.
    alive = list(range(len(candidates)))
    timings = {0: 0.0}
    sample: list[int] = []
    trials = 0
    with sanitize.suspended():
        for sample in _trial_samples(graph.num_vertices):
            reference_pairs, ref_seconds = _timed_counts(
                graph, plans[0], base, sample
            )
            trials += 1
            timings = {0: ref_seconds}
            for index in alive:
                if index == 0:
                    continue
                pairs, seconds = _timed_counts(
                    graph, plans[index], base, sample
                )
                trials += 1
                if pairs != reference_pairs:
                    # Attribution moved: this order re-roots embeddings.
                    _STATS.rejected_candidates += 1
                    continue
                timings[index] = seconds
            survivors = sorted(timings, key=lambda i: (timings[i], i))
            keep = max(2, (len(survivors) + 1) // 2)
            alive = sorted(survivors[:keep])
            if 0 not in alive:
                alive = sorted([0] + alive[:keep - 1])
            if len(alive) <= 1:
                break
    winner = min(
        (i for i in alive if i in timings), key=lambda i: (timings[i], i)
    )
    _STATS.trials += trials
    _STATS.tuned_cells += 1
    return TunedChoice(
        order=candidates[winner].order,
        candidate_label=candidates[winner].label,
        trials=trials,
        sample_size=len(sample),
        reference_seconds=timings.get(0, 0.0),
        chosen_seconds=timings[winner],
        tuner_version=TUNER_VERSION,
    )


def tune_plan(
    graph: CSRGraph,
    plan: ExecutionPlan,
    policy: KernelPolicy | None = None,
    *,
    force: bool = False,
) -> TunedChoice:
    """Resolve (or, with ``force``, re-measure) the tuned choice for one
    (plan, graph, base-policy) cell.

    Resolution order is memo → store → trials (see module docstring);
    fresh trial outcomes are persisted before returning.  Single-level
    plans have nothing to tune and return a trivial reference choice.
    """
    base = replace(policy if policy is not None else DEFAULT_POLICY,
                   tuned=False)
    if plan.num_levels < 2:
        return TunedChoice(
            order=tuple(plan.vertex_order),
            candidate_label="reference", trials=0, sample_size=0,
            reference_seconds=0.0, chosen_seconds=0.0,
        )
    key = choice_key(graph, plan, base)
    cache = tuning_cache()
    if not force:
        memo = _MEMO.get(key)
        if memo is not None:
            _STATS.memo_hits += 1
            return memo[0]
        stored = load_choice(cache, key)
        if stored is not None:
            _STATS.store_hits += 1
            _MEMO[key] = (stored, _choice_plan(plan, stored))
            return stored
    choice = _run_trials(graph, plan, base)
    save_choice(cache, key, choice)
    _MEMO[key] = (choice, _choice_plan(plan, choice))
    return choice


def _choice_plan(plan: ExecutionPlan, choice: TunedChoice) -> ExecutionPlan:
    if choice.order == tuple(plan.vertex_order):
        return plan
    return compile_plan(
        original_pattern(plan),
        order=choice.order,
        vertex_induced=plan.vertex_induced,
    )


def resolve_run(
    graph: CSRGraph,
    plan: ExecutionPlan,
    policy: KernelPolicy,
) -> tuple[ExecutionPlan, KernelPolicy]:
    """What a ``tuned=True`` counting run actually executes.

    Returns the tuned plan — bit-compatible with ``plan`` by the trial
    contract — and ``policy`` with the ``tuned`` flag cleared.  The
    mining engine calls this at the top of
    :func:`repro.mining.engine.per_root_counts` (before the sharded
    fan-out), so workers receive already-resolved arguments;
    :meth:`repro.core.backends.FunctionalBackend.prepare` pre-warms the
    store at the driver for the sharded backend path.
    """
    base = replace(policy, tuned=False)
    if plan.num_levels < 2:
        return plan, base
    choice = tune_plan(graph, plan, policy)
    memo = _MEMO.get(choice_key(graph, plan, base))
    tuned_plan = memo[1] if memo is not None else _choice_plan(plan, choice)
    return tuned_plan, base
