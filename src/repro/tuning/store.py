"""The persistent tuned-choice store.

One :class:`TunedChoice` per (pattern signature, graph signature, base
policy, tuner version), persisted through the existing versioned disk
cache (:mod:`repro.cache`): atomic writes, corruption quarantine, and
``REPRO_CACHE_DIR`` relocation all come for free, and bumping either
:data:`repro.cache.SCHEMA_VERSION` or :data:`TUNER_VERSION` invalidates
every stored choice at once (docs/TUNING.md, "Persistence and
invalidation").

The store deliberately ignores the bench runner's ``--no-cache`` switch
— that flag gates *result* caching, while a tuned choice is a
configuration decision: re-measuring results must not silently re-trial
(and possibly re-decide) the plan.  ``repro tune --force`` is the
explicit re-trial path.

The pattern half of the key hashes the *original* pattern's edge set,
the reference vertex order, and the induced-subgraph semantics — the
exact inputs that determine the reference plan a tuned choice must stay
bit-compatible with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cache import DiskCache, default_cache, make_key
from repro.core.backend import config_signature
from repro.pattern.plan import ExecutionPlan
from repro.setops.kernels import KernelPolicy
from repro.tuning.candidates import original_pattern
from repro.tuning.signature import graph_signature

__all__ = ["TUNER_VERSION", "TunedChoice", "choice_key", "load_choice",
           "save_choice", "tuning_cache"]

#: Bump whenever the trial protocol, candidate grid, or choice schema
#: changes meaning; every stored choice then misses and re-trials.
TUNER_VERSION = 3


@dataclass(frozen=True)
class TunedChoice:
    """One persisted tuning decision plus its trial provenance."""

    #: Vertex order (original pattern names) the tuned plan compiles with.
    order: tuple[int, ...]
    #: Label of the winning candidate (``"reference"`` = no change won).
    candidate_label: str
    #: Measured executions performed to reach this choice (0 when the
    #: choice came from the store or memo).
    trials: int
    #: Root-sample size of the deciding (final) trial round.
    sample_size: int
    #: Final-round wall seconds of the reference and winning candidate.
    reference_seconds: float
    chosen_seconds: float
    tuner_version: int = TUNER_VERSION

    @property
    def speedup(self) -> float:
        """Trial-time speedup of the choice over the reference."""
        if self.chosen_seconds <= 0:
            return 1.0
        return self.reference_seconds / self.chosen_seconds


def tuning_cache() -> DiskCache:
    """The disk cache the tuned-choice store rides (re-resolves
    ``REPRO_CACHE_DIR`` on every call, like :func:`default_cache`)."""
    return default_cache()


def choice_key(graph, plan: ExecutionPlan, base_policy: KernelPolicy) -> str:
    """The store key of one tuning cell (see module docstring)."""
    pattern = original_pattern(plan)
    base = config_signature(replace(base_policy, tuned=False))
    return make_key(
        kind="tuned-choice",
        tuner_version=TUNER_VERSION,
        pattern_vertices=pattern.num_vertices,
        pattern_edges=tuple(sorted(pattern.edges())),
        vertex_order=tuple(plan.vertex_order),
        vertex_induced=plan.vertex_induced,
        graph=graph_signature(graph).key(),
        base_policy=base,
    )


def load_choice(cache: DiskCache, key: str) -> TunedChoice | None:
    """The stored choice under ``key``, or ``None`` on miss/mismatch."""
    hit, value = cache.get(key)
    if (
        hit
        and isinstance(value, TunedChoice)
        and value.tuner_version == TUNER_VERSION
    ):
        return value
    return None


def save_choice(cache: DiskCache, key: str, choice: TunedChoice) -> None:
    """Persist one choice (atomic; I/O failures are swallowed by the
    cache layer and surface in its counters)."""
    cache.put(key, choice)
