"""The backend contract and registry.

A *backend* is one way to execute a mining job: the FINGERS chip model,
the FlexMiner baseline, the multi-core software miner, or the pure
functional reference engine.  Every backend implements the same small
protocol —

``name``
    registry key (``"fingers"``, ``"flexminer"``, ``"software"``,
    ``"functional"``);
``simulate(graph, plans, config, *, roots, memory, schedule, tracer)``
    run one shard on a cold instance and return a
    :class:`~repro.core.result.RunResult`;
``merge(results)``
    combine per-shard results (defaults to the unified
    :func:`~repro.core.result.merge_run_results`);
``cache_key(graph, workload, config, ...)``
    the persistent-cache identity of a run.

— so the sharded driver (:func:`repro.core.sharded.run_sharded`), the
bench runner, and the CLI are all backend-generic.  The registry is a
fixed table of the four built-ins (``repro.core.backends.BACKENDS``).

Cache keys render **every** dataclass field of the configuration
explicitly (:func:`config_signature`), so a field can never silently
escape the schema hash, whatever its ``repr`` shows.  They also mix in
:func:`repro.keys.model_digest`, the hash of every ``repro`` module
the backends import, so a result is keyed on the code that made it: an
edit to the model re-keys every cached result and store row (the
committed ``paper-*`` runs are regenerated in the same commit), while
comment and docstring edits re-key nothing.
"""

from __future__ import annotations

import abc
from dataclasses import fields, is_dataclass
from typing import Any, Iterable, Sequence

from repro import keys
from repro.core.result import RunResult, merge_run_results

__all__ = [
    "Backend",
    "backend_for_config",
    "backend_names",
    "config_signature",
    "get_backend",
]


def config_signature(config: Any) -> str:
    """Canonical rendering of a configuration for cache keys.

    Unlike ``repr``, this renders every dataclass field (recursively),
    including ``repr=False`` fields and fields hidden by a custom
    ``__repr__`` — so the cache key always reflects the full
    configuration.  ``None`` (a defaulted optional config) renders as
    ``"None"``.
    """
    if config is None:
        return "None"
    if is_dataclass(config) and not isinstance(config, type):
        parts = ", ".join(
            f"{f.name}={config_signature(getattr(config, f.name))}"
            for f in fields(config)
        )
        return f"{type(config).__qualname__}({parts})"
    return repr(config)


class Backend(abc.ABC):
    """One execution path for mining jobs (see module docstring).

    A backend carries no version number: its cache identity follows its
    code through :func:`repro.keys.model_digest`.
    """

    #: Registry key; unique across the built-in backends.
    name: str = ""
    #: One-line description for ``python -m repro backends``.
    description: str = ""
    #: The configuration dataclass this backend consumes.
    config_type: type = type(None)
    #: Name of the config field holding the execution-unit count
    #: (``num_pes`` / ``num_cores``), or ``None`` if not configurable.
    unit_field: str | None = None
    #: Whether ``simulate`` accepts a tracer (event-level Gantt traces).
    supports_trace: bool = False
    #: The ``repro simulate`` options this backend reads (``pes``,
    #: ``ius``, ``group_size``, ``schedule``); the CLI rejects the rest.
    cli_flags: tuple[str, ...] = ()

    # -- required surface ------------------------------------------------

    @abc.abstractmethod
    def simulate(
        self,
        graph,
        plans: Sequence,
        config,
        *,
        roots: Iterable[int] | None = None,
        memory=None,
        schedule: str = "dynamic",
        tracer=None,
    ) -> RunResult:
        """Run one job (or one root shard) on a cold instance."""

    def merge(self, results: Sequence[RunResult]) -> RunResult:
        """Combine per-shard results (exact; see docs/PARALLELISM.md)."""
        return merge_run_results(results)

    def cache_key(
        self,
        graph,
        workload,
        config,
        *,
        memory=None,
        roots: Iterable[int] | None = None,
        schedule: str = "dynamic",
        jobs: int | None = None,
    ) -> str:
        """Persistent-cache identity of one run of :meth:`run` with the
        same arguments.

        Mixes the backend name and the model code
        (:func:`repro.keys.model_digest`) with the full graph
        fingerprint, workload, explicit config signature, root-array
        hash, schedule, and execution model — the schema documented in
        docs/PARALLELISM.md section 3.  The model is ``single-chip``
        for ``jobs=None`` and ``sharded`` for any worker count, whose
        results are identical by contract.  An edit to any module the
        backends import re-keys every result; nothing is bumped by
        hand.
        """
        roots_list = list(roots) if roots is not None else None
        return keys.make_key(
            kind="runresult",
            backend=self.name,
            code=keys.model_digest(),
            graph=graph.fingerprint(),
            workload=str(workload),
            config=config_signature(config),
            memory=config_signature(memory),
            roots=keys.roots_fingerprint(roots_list),
            schedule=schedule,
            model="single-chip" if jobs is None else "sharded",
        )

    # -- conveniences shared by every backend ----------------------------

    def default_config(self, units: int | None = None, **overrides):
        """A configuration instance; ``units`` sets the PE/core count."""
        if units is not None and self.unit_field is not None:
            overrides.setdefault(self.unit_field, units)
        return self.config_type(**overrides)

    def config_from_args(self, args):
        """Build a configuration from CLI ``simulate`` arguments."""
        return self.default_config(units=getattr(args, "pes", None))

    def run(
        self,
        graph,
        workload,
        config=None,
        *,
        memory=None,
        roots: Iterable[int] | None = None,
        schedule: str = "dynamic",
        tracer=None,
        jobs: int | None = None,
    ) -> RunResult:
        """Front door: resolve the workload, pick the execution model.

        ``jobs`` selects the sharded (multi-instance) model of
        docs/PARALLELISM.md on that many worker processes; ``jobs=None``
        (default) keeps the plain single-instance model.  The returned
        result carries workload identity (``workload``/``pattern_names``).
        """
        from dataclasses import replace

        from repro.core.workload import resolve_workload

        name, plans, names = resolve_workload(workload)
        if roots is not None:
            roots = graph.check_roots(roots)
        if config is None:
            config = self.default_config()
        if jobs is None:
            res = self.simulate(
                graph, plans, config,
                roots=roots, memory=memory, schedule=schedule, tracer=tracer,
            )
        else:
            if tracer is not None:
                raise ValueError(
                    "tracing is only supported for unsharded runs "
                    "(jobs unset)"
                )
            if jobs < 1:
                raise ValueError("jobs must be >= 1")
            from repro.core.sharded import run_sharded

            res = run_sharded(
                self, graph, plans, config,
                memory=memory, roots=roots, schedule=schedule,
                jobs=jobs,
            )
        return replace(res, workload=name, pattern_names=names)

    def extras(self, result: RunResult, config) -> dict:
        """Figures of one run that its sweep row keeps beside count and
        cycles (``ResultRow.extras``); none by default."""
        return {}

    def summary(self, result: RunResult) -> list[str]:
        """Human-readable lines for the CLI ``simulate`` subcommand."""
        lines = [
            f"design:  {result.design}",
            f"count:   {result.count:,}",
            f"cycles:  {result.cycles:,.0f}",
            f"imbalance: {result.load_imbalance:.2f}",
        ]
        if result.num_shards > 1:
            lines.append(f"shards:  {result.num_shards} (sharded model)")
        return lines


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def _registry() -> dict[str, Backend]:
    # The four built-ins live in ``repro.core.backends``; importing it
    # lazily keeps ``repro.core.backend`` free of simulator dependencies.
    from repro.core.backends import BACKENDS

    return BACKENDS


def backend_names() -> list[str]:
    """Built-in backend names, sorted."""
    return sorted(_registry())


def get_backend(name: str) -> Backend:
    """Look up a backend by registry name."""
    try:
        return _registry()[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_for_config(config: Any) -> Backend:
    """The backend whose ``config_type`` matches ``config``'s type."""
    for backend in _registry().values():
        if type(config) is backend.config_type:
            return backend
    raise TypeError(
        f"no registered backend accepts configuration {config!r}"
    )
