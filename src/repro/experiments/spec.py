"""Declarative sweep specifications.

A sweep is the cross product *patterns × graphs × backends × schedules ×
jobs* (plus a kernel-policy axis applied to the ``functional`` backend
only, since no other backend executes Python set-op kernels).  Specs are
plain dicts — typically loaded from a TOML or JSON file — validated in
one pass that gathers **every** problem before raising, then expanded
into a deterministic, duplicate-free list of :class:`Cell` rows.  The
same spec always expands to the same matrix in the same order, which is
what makes resuming a sweep well-defined (docs/BENCHMARKS.md).

TOML layout (see ``examples/sweeps/smoke.toml``)::

    [sweep]
    name     = "smoke"
    patterns = ["tc"]
    graphs   = ["As"]
    backends = ["functional", "fingers"]

    [configs.fingers]        # per-backend config overrides
    num_pes = 1

    [[kernel_policies]]      # optional extra functional-only axis
    name = "recursive"
    engine = "recursive"
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.workload import resolve_workload
from repro.graph.datasets import bench_graph_names, dataset_names
from repro.setops.kernels import KernelPolicy

__all__ = ["Cell", "SpecError", "SweepSpec", "load_spec", "load_spec_file"]

#: Sweep/run names double as store file stems, so they are restricted to
#: filesystem-safe characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_SCHEDULES = ("dynamic", "static_interleave", "static_block")

#: The policy label for "whatever the backend's default configuration
#: does" — present in every sweep, never user-definable.
DEFAULT_POLICY = "default"


class SpecError(ValueError):
    """A sweep spec failed validation.

    ``problems`` lists every issue found (validation does not stop at
    the first), so one round trip fixes a whole spec file.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid sweep spec:\n" + "\n".join(f"  - {p}" for p in problems)
        )


@dataclass(frozen=True)
class Cell:
    """One point of the expanded run matrix."""

    pattern: str
    graph: str
    backend: str
    policy: str = DEFAULT_POLICY
    jobs: int | None = None
    schedule: str = "dynamic"

    @property
    def label(self) -> str:
        """Human-readable cell identifier used in progress output."""
        parts = [self.pattern, self.graph, self.backend]
        if self.policy != DEFAULT_POLICY:
            parts.append(self.policy)
        if self.schedule != "dynamic":
            parts.append(self.schedule)
        if self.jobs is not None:
            parts.append(f"jobs={self.jobs}")
        return "/".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """A validated sweep: construct via :func:`load_spec`, not directly.

    ``jobs`` uses ``0`` for the single-chip (unsharded) model, matching
    the TOML surface where ``None`` cannot be written.
    """

    name: str
    description: str = ""
    patterns: tuple[str, ...] = ()
    graphs: tuple[str, ...] = ()
    backends: tuple[str, ...] = ()
    jobs: tuple[int, ...] = (0,)
    schedules: tuple[str, ...] = ("dynamic",)
    configs: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    kernel_policies: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )

    def expand(self) -> list[Cell]:
        """The deterministic run matrix.

        Iteration order is patterns → graphs → backends → policies →
        schedules → jobs, exactly as written in the spec; the kernel
        policy axis contributes ``default`` plus every named policy for
        ``functional`` cells and only ``default`` elsewhere.
        """
        cells = []
        for pattern in self.patterns:
            for graph in self.graphs:
                for backend in self.backends:
                    policies = [DEFAULT_POLICY]
                    if backend == "functional":
                        policies += list(self.kernel_policies)
                    for policy in policies:
                        for schedule in self.schedules:
                            for jobs in self.jobs:
                                cells.append(Cell(
                                    pattern=pattern,
                                    graph=graph,
                                    backend=backend,
                                    policy=policy,
                                    jobs=None if jobs == 0 else jobs,
                                    schedule=schedule,
                                ))
        return cells

    def config_for(self, cell: Cell):
        """Build the backend config object for one cell: per-backend
        overrides from ``configs``, plus the cell's kernel policy for
        functional cells."""
        from repro.core.backend import get_backend

        backend = get_backend(cell.backend)
        overrides = dict(self.configs.get(cell.backend, {}))
        if cell.backend == "functional" and cell.policy != DEFAULT_POLICY:
            policy = KernelPolicy(**self.kernel_policies[cell.policy])
            overrides["kernels"] = policy
        return backend.config_type(**overrides)


def _check_names(problems, label, values, known, *, hint=""):
    for value in values:
        if value not in known:
            problems.append(
                f"{label} {value!r} is not known{hint}"
            )


def _try_build(problems, label, factory, overrides):
    """Construct ``factory(**overrides)`` once so a bad field value is a
    spec problem now, not a failed cell mid-sweep."""
    try:
        factory(**overrides)
    except (TypeError, ValueError) as exc:
        problems.append(f"{label} {exc}")


def load_spec(
    data: Mapping[str, Any],
    *,
    available_graphs: Sequence[str] | None = None,
) -> SweepSpec:
    """Validate a spec document (the parsed TOML/JSON dict) and return a
    :class:`SweepSpec`.

    Collects every problem and raises one :class:`SpecError`; a returned
    spec is guaranteed to expand and execute without name errors, and
    every swept backend config and kernel policy has been built once.
    ``available_graphs`` overrides the dataset catalog (tests inject
    synthetic graphs through the executor's ``graphs=`` mapping).
    """
    from repro.core.backend import backend_names, get_backend

    problems: list[str] = []
    known_keys = {"sweep", "configs", "kernel_policies"}
    for key in data:
        if key not in known_keys:
            problems.append(f"unknown top-level section {key!r}")
    sweep = data.get("sweep")
    if not isinstance(sweep, Mapping):
        raise SpecError(problems + ["missing [sweep] section"])

    sweep_keys = {
        "name", "description", "patterns", "graphs", "backends",
        "jobs", "schedules",
    }
    for key in sweep:
        if key not in sweep_keys:
            problems.append(f"unknown [sweep] key {key!r}")

    name = sweep.get("name", "")
    if not (isinstance(name, str) and NAME_RE.match(name)):
        problems.append(
            f"sweep.name {name!r} must match {NAME_RE.pattern} "
            "(it names store files)"
        )

    def _strings(key, *, required, default=()):
        values = sweep.get(key, default)
        if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, str) for v in values
        ):
            problems.append(f"sweep.{key} must be a list of strings")
            return ()
        if required and not values:
            problems.append(f"sweep.{key} must be non-empty")
        return tuple(values)

    patterns = _strings("patterns", required=True)
    graphs = _strings("graphs", required=True)
    backends = _strings("backends", required=True)

    for pattern in patterns:
        try:
            resolve_workload(pattern)
        except (KeyError, ValueError) as exc:
            problems.append(f"pattern {pattern!r}: {exc}")
    graph_catalog = tuple(
        available_graphs
        if available_graphs is not None
        else dataset_names() + bench_graph_names()
    )
    _check_names(
        problems, "graph", graphs, graph_catalog,
        hint=f" (available: {', '.join(graph_catalog)})",
    )
    _check_names(
        problems, "backend", backends, backend_names(),
        hint=f" (registered: {', '.join(backend_names())})",
    )

    jobs = sweep.get("jobs", [0])
    if not isinstance(jobs, (list, tuple)) or not all(
        isinstance(j, int) and not isinstance(j, bool) and j >= 0
        for j in jobs
    ) or not jobs:
        problems.append(
            "sweep.jobs must be a non-empty list of ints >= 0 "
            "(0 = unsharded single-chip model)"
        )
        jobs = (0,)
    schedules = _strings(
        "schedules", required=False, default=["dynamic"]
    ) or ("dynamic",)
    for schedule in schedules:
        if schedule not in _SCHEDULES:
            problems.append(
                f"schedule {schedule!r} is not one of {', '.join(_SCHEDULES)}"
            )

    configs = data.get("configs", {})
    clean_configs: dict[str, dict[str, Any]] = {}
    if not isinstance(configs, Mapping):
        problems.append("[configs] must be a table of backend names")
        configs = {}
    for backend_name, overrides in configs.items():
        if backend_name not in backends:
            problems.append(
                f"[configs.{backend_name}] does not match a swept backend"
            )
            continue
        if backend_name not in backend_names():
            continue  # already reported as an unknown backend
        if not isinstance(overrides, Mapping):
            problems.append(
                f"[configs.{backend_name}] must be a table of config fields"
            )
            continue
        config_type = get_backend(backend_name).config_type
        valid = {f.name for f in dataclasses.fields(config_type)}
        unknown = [key for key in overrides if key not in valid]
        for key in unknown:
            problems.append(
                f"[configs.{backend_name}] unknown field {key!r} "
                f"(valid: {', '.join(sorted(valid))})"
            )
        if not unknown:
            _try_build(
                problems, f"[configs.{backend_name}]", config_type, overrides
            )
        clean_configs[backend_name] = dict(overrides)

    policies = data.get("kernel_policies", [])
    clean_policies: dict[str, dict[str, Any]] = {}
    if not isinstance(policies, Sequence) or isinstance(policies, str):
        problems.append("kernel_policies must be an array of tables")
        policies = []
    if policies and "functional" not in backends:
        problems.append(
            "kernel_policies requires the 'functional' backend "
            "(no other backend runs the Python set-op kernels)"
        )
    policy_fields = {f.name for f in dataclasses.fields(KernelPolicy)}
    for entry in policies:
        if not isinstance(entry, Mapping) or "name" not in entry:
            problems.append("each [[kernel_policies]] entry needs a 'name'")
            continue
        policy_name = entry["name"]
        if policy_name == DEFAULT_POLICY or policy_name in clean_policies:
            problems.append(
                f"kernel policy name {policy_name!r} is reserved or repeated"
            )
            continue
        overrides = {k: v for k, v in entry.items() if k != "name"}
        unknown = [key for key in overrides if key not in policy_fields]
        for key in unknown:
            problems.append(
                f"kernel policy {policy_name!r}: unknown field {key!r} "
                f"(valid: {', '.join(sorted(policy_fields))})"
            )
        if not unknown:
            _try_build(
                problems, f"kernel policy {policy_name!r}:", KernelPolicy,
                overrides,
            )
        clean_policies[policy_name] = overrides

    if problems:
        raise SpecError(problems)
    return SweepSpec(
        name=name,
        description=str(sweep.get("description", "")),
        patterns=patterns,
        graphs=graphs,
        backends=backends,
        jobs=tuple(jobs),
        schedules=tuple(schedules),
        configs=clean_configs,
        kernel_policies=clean_policies,
    )


def load_spec_file(
    path: Path | str,
    *,
    available_graphs: Sequence[str] | None = None,
) -> SweepSpec:
    """Load and validate a ``.toml`` or ``.json`` sweep file.

    TOML needs Python >= 3.11 (stdlib ``tomllib``; this repo adds no
    third-party dependencies) — on older interpreters a
    :class:`SpecError` points at the JSON equivalent.
    """
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # Python < 3.11
            raise SpecError([
                f"cannot read {path.name}: TOML specs need Python >= 3.11 "
                "(tomllib); convert the spec to .json or pass a dict to "
                "load_spec()"
            ]) from None
        with path.open("rb") as handle:
            data = tomllib.load(handle)
    elif path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        raise SpecError([
            f"unsupported spec format {path.suffix!r} (use .toml or .json)"
        ])
    return load_spec(data, available_graphs=available_graphs)
