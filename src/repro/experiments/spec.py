"""Declarative sweep specifications.

A sweep is the cross product *patterns × graphs × backends × configs ×
schedules × jobs*, where each backend contributes its own named config
variants (one, ``default``, unless the spec lists several).  Specs are
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

    [configs.fingers]        # one table: the "default" config variant
    num_pes = 1

    [[configs.functional]]   # an array of named tables: one variant each
    name = "default"
    [[configs.functional]]
    name = "recursive"
    engine = "recursive"

A ``fingers`` or ``flexminer`` variant may carry a ``memory`` table of
:class:`~repro.hw.config.MemoryConfig` fields (its ``noc`` a table of
:class:`~repro.hw.noc.NoCConfig` fields); the cell then runs on that
memory system, and the memory is part of its cache identity.  A
pattern name ``"<name>:edge"`` (``"tt:edge"``) selects the pattern's
edge-induced plan (:func:`repro.core.workload.resolve_workload`).
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

__all__ = ["Cell", "SpecError", "SweepSpec", "load_spec", "load_spec_file"]

#: Sweep/run names double as store file stems, so they are restricted to
#: filesystem-safe characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_SCHEDULES = ("dynamic", "static_interleave", "static_block")

#: The config-variant name of a backend whose ``[configs.<backend>]`` is
#: one table (or absent); an array of named tables names its own.
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

    ``jobs`` uses ``0`` for the process default model (single-chip
    unless ``configure(jobs=N)`` / ``--jobs N`` set one), matching the
    TOML surface where ``None`` cannot be written.
    """

    name: str
    description: str = ""
    patterns: tuple[str, ...] = ()
    graphs: tuple[str, ...] = ()
    backends: tuple[str, ...] = ()
    jobs: tuple[int, ...] = (0,)
    schedules: tuple[str, ...] = ("dynamic",)
    #: backend -> config-variant name -> config field overrides.
    configs: Mapping[str, Mapping[str, Mapping[str, Any]]] = field(
        default_factory=dict
    )

    def _variants(self, backend: str) -> Mapping[str, Mapping[str, Any]]:
        return self.configs.get(backend, {DEFAULT_POLICY: {}})

    def expand(self) -> list[Cell]:
        """The deterministic run matrix.

        Iteration order is patterns → graphs → backends → config
        variants → schedules → jobs, exactly as written in the spec.
        """
        cells = []
        for pattern in self.patterns:
            for graph in self.graphs:
                for backend in self.backends:
                    for policy in self._variants(backend):
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
        """Build the backend config object for one cell: its config
        variant's overrides from ``configs``."""
        from repro.core.backend import get_backend

        overrides = self._variants(cell.backend)[cell.policy]
        return _build(
            get_backend(cell.backend).config_type,
            {k: v for k, v in overrides.items() if k != "memory"},
        )

    def memory_for(self, cell: Cell):
        """The cell's :class:`~repro.hw.config.MemoryConfig`, or ``None``
        (the model's default memory system) when its variant has no
        ``memory`` table."""
        from repro.hw.config import MemoryConfig

        table = self._variants(cell.backend)[cell.policy].get("memory")
        return None if table is None else _build(MemoryConfig, table)


def _build(config_type, overrides):
    """``config_type(**overrides)``, building a dataclass-valued field
    (the memory table's ``noc``) from a nested table."""
    kwargs = dict(overrides)
    for f in dataclasses.fields(config_type):
        if isinstance(kwargs.get(f.name), Mapping) and (
            dataclasses.is_dataclass(f.default)
        ):
            kwargs[f.name] = _build(type(f.default), kwargs[f.name])
    return config_type(**kwargs)


def _check_names(problems, label, values, known, *, hint=""):
    for value in values:
        if value not in known:
            problems.append(
                f"{label} {value!r} is not known{hint}"
            )


def _check_overrides(problems, label, config_type, overrides):
    """Check one config variant: every key names a field, then build
    ``config_type(**overrides)`` once so a bad field value is a spec
    problem now, not a failed cell mid-sweep."""
    valid = {f.name for f in dataclasses.fields(config_type)}
    unknown = [key for key in overrides if key not in valid]
    for key in unknown:
        problems.append(
            f"{label} unknown field {key!r} "
            f"(valid: {', '.join(sorted(valid))})"
        )
    if unknown:
        return
    try:
        _build(config_type, overrides)
    except (TypeError, ValueError) as exc:
        problems.append(f"{label} {exc}")


def _check_memory(problems, label, backend_name, memory):
    """Check one variant's ``memory`` table: the two chip models share
    one memory-system description; the other backends take none."""
    from repro.hw.config import MemoryConfig

    if backend_name not in ("fingers", "flexminer"):
        problems.append(
            f"{label} memory: only the fingers and flexminer chip models "
            f"take a memory table, not {backend_name}"
        )
    elif not isinstance(memory, Mapping):
        problems.append(f"{label} memory must be a table of MemoryConfig fields")
    else:
        _check_overrides(problems, f"{label} memory", MemoryConfig, memory)


def _config_variants(problems, label, entry):
    """``{variant name: overrides}`` of one ``[configs.<backend>]``
    entry: one table is the ``default`` variant, an array of tables
    names one variant per entry.  ``None`` when the entry is malformed."""
    if isinstance(entry, Mapping):
        return {DEFAULT_POLICY: dict(entry)}
    if (
        not isinstance(entry, (list, tuple)) or not entry
        or not all(isinstance(item, Mapping) for item in entry)
    ):
        problems.append(
            f"{label} must be a table of config fields or a non-empty "
            "array of named tables"
        )
        return None
    variants: dict[str, dict[str, Any]] = {}
    for item in entry:
        name = item.get("name")
        if not (isinstance(name, str) and NAME_RE.match(name)):
            problems.append(
                f"each [{label}] entry needs a 'name' matching "
                f"{NAME_RE.pattern}, not {name!r}"
            )
        elif name in variants:
            problems.append(f"{label} repeats the name {name!r}")
        else:
            variants[name] = {k: v for k, v in item.items() if k != "name"}
    return variants


def load_spec(
    data: Mapping[str, Any],
    *,
    available_graphs: Sequence[str] | None = None,
) -> SweepSpec:
    """Validate a spec document (the parsed TOML/JSON dict) and return a
    :class:`SweepSpec`.

    Collects every problem and raises one :class:`SpecError`; a returned
    spec is guaranteed to expand and execute without name errors, and
    every config variant of every swept backend has been built once.
    ``available_graphs`` overrides the dataset catalog (tests inject
    synthetic graphs through the executor's ``graphs=`` mapping).
    """
    from repro.core.backend import backend_names, get_backend

    problems: list[str] = []
    known_keys = {"sweep", "configs"}
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
            "(0 = the process default model)"
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
    clean_configs: dict[str, dict[str, dict[str, Any]]] = {}
    if not isinstance(configs, Mapping):
        problems.append("[configs] must be a table of backend names")
        configs = {}
    for backend_name, entry in configs.items():
        if backend_name not in backends:
            problems.append(
                f"[configs.{backend_name}] does not match a swept backend"
            )
            continue
        if backend_name not in backend_names():
            continue  # already reported as an unknown backend
        label = f"[configs.{backend_name}]"
        variants = _config_variants(problems, label, entry)
        if variants is None:
            continue
        config_type = get_backend(backend_name).config_type
        for variant, overrides in variants.items():
            where = label if isinstance(entry, Mapping) else (
                f"[{label}] {variant!r}"
            )
            memory = overrides.get("memory")
            if memory is not None:
                _check_memory(problems, where, backend_name, memory)
            _check_overrides(
                problems, where, config_type,
                {k: v for k, v in overrides.items() if k != "memory"},
            )
        clean_configs[backend_name] = variants

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
