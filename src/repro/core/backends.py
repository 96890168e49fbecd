"""The four built-in backends.

``fingers`` and ``flexminer`` wrap the chip event loop
(:func:`repro.hw.chip.run_chip`), ``software`` wraps the multi-core
miner (:class:`repro.sw.miner.SoftwareMiner`), and ``functional`` is
the pure reference engine promoted to a first-class backend — so
cross-validation is just "run two backends, compare counts", with no
special-cased engine path.

:data:`BACKENDS` is the registry; :func:`repro.core.backend.get_backend`
imports this module lazily, so importing ``repro.core.backend`` alone
stays free of simulator dependencies.
This module imports the simulators eagerly: a process that resolves a
backend then holds them before it forks pool workers, which would
otherwise each import them again for every pool.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.backend import Backend
from repro.core.result import RunResult
from repro.hw.chip import run_chip
from repro.setops.kernels import KernelPolicy
from repro.sw.miner import SoftwareMiner

__all__ = [
    "BACKENDS",
    "FingersBackend",
    "FlexMinerBackend",
    "FunctionalBackend",
    "SoftwareBackend",
]


class _HardwareBackend(Backend):
    """Shared chip-model plumbing for the FINGERS and FlexMiner designs."""

    unit_field = "num_pes"
    supports_trace = True
    cli_flags = ("pes", "schedule")

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
        return run_chip(
            graph, plans, config, memory,
            roots=roots, schedule=schedule, tracer=tracer,
        )

    def extras(self, result: RunResult, config) -> dict:
        return {
            "load_imbalance": result.load_imbalance,
            "task_group_size": result.task_group_size,
            "shared_miss_rate": result.shared_cache.miss_rate,
        }

    def summary(self, result: RunResult) -> list[str]:
        lines = [
            f"design:  {result.design} ({result.num_pes} PEs)",
            f"count:   {result.count:,}",
            f"cycles:  {result.cycles:,.0f}",
            f"tasks:   {result.combined.tasks:,}",
            f"imbalance: {result.load_imbalance:.2f}",
            "shared-cache miss rate: "
            f"{100 * result.shared_cache.miss_rate:.1f}%",
        ]
        if result.num_shards > 1:
            lines.append(f"shards:  {result.num_shards} (sharded model)")
        return lines


class FingersBackend(_HardwareBackend):
    """The paper's design: fine-grained parallel PEs (IUs + dividers)."""

    name = "fingers"
    description = "FINGERS chip timing model (fine-grained parallel PEs)"
    cli_flags = ("pes", "ius", "group_size", "schedule")

    @property
    def config_type(self):
        from repro.hw.config import FingersConfig

        return FingersConfig

    def extras(self, result: RunResult, config) -> dict:
        combined = result.combined
        return {
            **super().extras(result, config),
            "iu_active_rate": combined.active_rate(config.num_ius),
            "iu_balance_rate": combined.balance_rate,
        }

    def config_from_args(self, args):
        ius = {} if args.ius is None else {"num_ius": args.ius}
        return self.default_config(
            units=args.pes or 20, task_group_size=args.group_size, **ius
        )


class FlexMinerBackend(_HardwareBackend):
    """The FlexMiner baseline: strict-DFS PEs with serial set units."""

    name = "flexminer"
    description = "FlexMiner baseline timing model (strict-DFS PEs)"

    @property
    def config_type(self):
        from repro.hw.config import FlexMinerConfig

        return FlexMinerConfig

    def config_from_args(self, args):
        return self.default_config(units=args.pes or 40)


class SoftwareBackend(Backend):
    """Cycle-approximate multi-core CPU miner with work stealing."""

    name = "software"
    description = "multi-core software miner (work-stealing CPU model)"
    unit_field = "num_cores"
    cli_flags = ("pes",)

    @property
    def config_type(self):
        from repro.sw.config import SoftwareConfig

        return SoftwareConfig

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
        if tracer is not None:
            raise ValueError(
                "the software backend does not support event tracing"
            )
        return SoftwareMiner(graph, plans, config, memory).run(roots)

    def config_from_args(self, args):
        return self.default_config(units=args.pes or 8)

    def extras(self, result: RunResult, config) -> dict:
        return {"load_imbalance": result.load_imbalance}

    def summary(self, result: RunResult) -> list[str]:
        lines = [
            f"design:  {result.design}",
            f"count:   {result.count:,}",
            f"cycles:  {result.cycles:,.0f}",
            f"steals:  {result.total_steals}",
            f"imbalance: {result.load_imbalance:.2f}",
        ]
        if result.num_shards > 1:
            lines.append(f"shards:  {result.num_shards} (sharded model)")
        return lines


class FunctionalBackend(Backend):
    """The pure reference engine: exact counts, no timing model.

    Its config is :class:`~repro.setops.kernels.KernelPolicy`: the
    engine (frontier or the recursive oracle) and the tuner opt-in.
    """

    name = "functional"
    description = "pure reference engine (exact counts, no timing)"
    config_type = KernelPolicy

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
        if tracer is not None:
            raise ValueError(
                "the functional backend does not support event tracing"
            )
        from repro.mining.engine import count_embeddings

        root_list = (
            list(range(graph.num_vertices)) if roots is None else list(roots)
        )
        counts = tuple(
            count_embeddings(graph, plan, roots=root_list, kernels=config)
            for plan in plans
        )
        return RunResult(
            backend=self.name,
            design="functional",
            cycles=0.0,
            counts=counts,
        )

    def prepare(self, graph, plans, config) -> None:
        """Warm the tuned-choice store at the driver for tuned runs.

        Sharded workers then resolve ``KernelPolicy(tuned=True)`` with a
        store hit apiece instead of each re-running measured trials.
        """
        if not config.tuned:
            return
        from repro.tuning import tune_plan

        for plan in plans:
            tune_plan(graph, plan, config)

    def summary(self, result: RunResult) -> list[str]:
        lines = [
            f"design:  {result.design} (reference engine)",
            f"count:   {result.count:,}",
            "cycles:  n/a (functional backend has no timing model)",
        ]
        if result.num_shards > 1:
            lines.append(f"shards:  {result.num_shards} (sharded model)")
        return lines


#: The backend registry: the four built-ins, keyed by name.
BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (
        FingersBackend(),
        FlexMinerBackend(),
        SoftwareBackend(),
        FunctionalBackend(),
    )
}
