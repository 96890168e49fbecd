"""Input-aware auto-tuning: measured-trial vertex-order selection.

The plan compiler picks one vertex order per pattern — an input-blind
choice that G2Miner and the AutoMine line of work show is worth integer
factors when made per (pattern, graph).  This package closes that loop
(docs/TUNING.md):

:mod:`~repro.tuning.signature`
    A cheap, deterministic graph signature (counts, degree deciles, hub
    mass) computed once per :class:`~repro.graph.csr.CSRGraph`.
:mod:`~repro.tuning.candidates`
    The top-N cost-model vertex orders, reference first.
:mod:`~repro.tuning.tuner`
    Successive-halving measured trials on deterministic sampled roots,
    bit-identity (per-root sequences) enforced on every candidate.
:mod:`~repro.tuning.store`
    The persisted :class:`TunedChoice` per (pattern signature, graph
    signature, tuner version), riding the versioned disk cache.

Opt in with ``KernelPolicy(tuned=True)`` anywhere a policy goes —
``count_embeddings``, ``FunctionalConfig``, sweep specs — or drive the
tuner directly with ``python -m repro tune``.
"""

from repro.tuning.candidates import (
    TunerCandidate,
    generate_candidates,
    original_pattern,
)
from repro.tuning.signature import GraphSignature, graph_signature
from repro.tuning.store import (
    TUNER_VERSION,
    TunedChoice,
    choice_key,
    load_choice,
    save_choice,
    tuning_cache,
)
from repro.tuning.tuner import (
    TuningStats,
    reset_tuning_stats,
    resolve_run,
    tune_plan,
    tuning_stats,
)

__all__ = [
    "GraphSignature",
    "TUNER_VERSION",
    "TunedChoice",
    "TunerCandidate",
    "TuningStats",
    "choice_key",
    "generate_candidates",
    "graph_signature",
    "load_choice",
    "original_pattern",
    "reset_tuning_stats",
    "resolve_run",
    "save_choice",
    "tune_plan",
    "tuning_cache",
    "tuning_stats",
]
