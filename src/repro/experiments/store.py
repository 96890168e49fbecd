"""The schema'd result store: versioned JSONL, one file per run.

Every measurement the experiment executor produces becomes one
:class:`ResultRow` appended to ``<store>/<run>.jsonl``.  Rows are
self-describing: each line carries ``schema``
(:data:`STORE_SCHEMA_VERSION`) plus full provenance — git hash, config
signature, hostname, python/numpy versions, timestamp — so any number
in a generated report traces back to the commit and machine that
produced it (docs/BENCHMARKS.md, "Row schema").

Append-only JSONL keeps the store diff-friendly in git and makes the
executor interrupt-safe: a killed sweep has complete rows for every
finished cell and nothing else.  Readers skip lines from a *newer*
schema (forward-compatibly) and malformed lines rather than failing the
whole run file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.bench.paths import store_dir
from repro.experiments.spec import NAME_RE

__all__ = [
    "ResultRow",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "check_run_name",
]

#: Bump when a row field changes meaning; readers ignore newer rows.
STORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResultRow:
    """One (cell, measurement) record.

    ``cell_key`` is the backend's full cache key
    (:meth:`repro.core.backend.Backend.cache_key`) — graph contents,
    config signature, schedule, roots, execution model — which is what
    makes resume exact: a row exists iff that cache identity was run.
    ``metrics`` holds higher-is-better figures (speedups); ``extras``
    holds informational values excluded from regression checks.

    ``status`` is ``"ok"`` for a measurement and ``"failed"`` for a
    cell the executor isolated after an exception; failed rows carry a
    structured ``error`` record (exception type, message, traceback
    digest, attempt number — docs/RESILIENCE.md, "Sweep failure rows")
    and zeroed measurement fields.  The *last* row per ``cell_key``
    wins, so ``--retry-failed`` re-runs append a fresh ``ok`` row that
    supersedes the failure without rewriting history.  ``retry`` holds
    the cell's :class:`repro.resilience.retry.RetryStats` delta when
    shard-level recovery engaged (empty otherwise).
    """

    run: str
    cell_key: str
    pattern: str
    graph: str
    backend: str
    policy: str = "default"
    jobs: int | None = None
    schedule: str = "dynamic"
    workload: str = ""
    config_signature: str = ""
    count: int = 0
    counts: tuple[int, ...] = ()
    cycles: float = 0.0
    wall_time_s: float = 0.0
    status: str = "ok"
    error: dict = field(default_factory=dict)
    retry: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    dispatch: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def identity(self) -> tuple:
        """The join key for cross-run diffs: *what* was measured,
        independent of *when* or *on which commit*."""
        return (
            self.pattern, self.graph, self.backend,
            self.policy, self.jobs, self.schedule,
        )

    def to_json(self) -> str:
        record = dataclasses.asdict(self)
        record["counts"] = list(self.counts)
        record["schema"] = STORE_SCHEMA_VERSION
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ResultRow | None":
        """Parse one store line; ``None`` for malformed or newer-schema
        rows (the store is append-only and read forward-compatibly),
        and for rows missing a required field or holding a field of the
        wrong JSON type (a row read from disk is checked, not trusted)."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        if record.pop("schema", None) not in range(
            1, STORE_SCHEMA_VERSION + 1
        ):
            return None
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in record:
                if not _FIELD_TYPES[f.type](record[f.name]):
                    return None
                kwargs[f.name] = record[f.name]
        kwargs["counts"] = tuple(kwargs.get("counts", ()))
        try:
            return cls(**kwargs)
        except TypeError:  # a required field is missing
            return None


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false load as bool, not int


#: What a JSON value must be to fill a :class:`ResultRow` field, by the
#: field's annotation (``counts`` arrives as a JSON array).
_FIELD_TYPES = {
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": lambda v: _is_int(v) or type(v) is float,
    "dict": lambda v: isinstance(v, dict),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}


def check_run_name(run: str) -> str:
    """``run`` itself; :class:`ValueError` unless it is a valid run
    name (it becomes a file stem in the store)."""
    if not NAME_RE.match(run):
        raise ValueError(f"run name {run!r} must match {NAME_RE.pattern}")
    return run


class ResultStore:
    """Filesystem-backed run store rooted at ``benchmarks/results/store``
    (override via the constructor or ``$REPRO_RESULTS_DIR``)."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else store_dir()

    def _path(self, run: str) -> Path:
        return self.root / f"{check_run_name(run)}.jsonl"

    def runs(self) -> list[str]:
        """Sorted names of every run present in the store."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.jsonl"))

    def append(self, rows: "list[ResultRow] | ResultRow") -> None:
        """Append rows to their runs' files (creating the store lazily)."""
        if isinstance(rows, ResultRow):
            rows = [rows]
        self.root.mkdir(parents=True, exist_ok=True)
        by_run: dict[str, list[ResultRow]] = {}
        for row in rows:
            by_run.setdefault(row.run, []).append(row)
        for run, run_rows in by_run.items():
            with self._path(run).open("a", encoding="utf-8") as handle:
                for row in run_rows:
                    handle.write(row.to_json() + "\n")

    def load(self, run: str, *, missing_ok: bool = False) -> list[ResultRow]:
        """All readable rows of one run (malformed/newer lines skipped);
        ``missing_ok`` reads an absent run as empty."""
        path = self._path(run)
        if not path.exists():
            if missing_ok:
                return []
            raise FileNotFoundError(
                f"run {run!r} not found in store {self.root} "
                f"(known runs: {', '.join(self.runs()) or 'none'})"
            )
        rows = []
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            row = ResultRow.from_json(line)
            if row is not None:
                rows.append(row)
        return rows

    def statuses(
        self, run: str, rows: Sequence[ResultRow] | None = None
    ) -> dict[str, str]:
        """Last-row-wins status per cell identity (empty for an absent
        run).  This is what resume decisions read: a cell whose latest
        row is ``"failed"`` is complete for a normal resume but
        outstanding for ``--retry-failed``.  ``rows`` are the run's rows
        when the caller has read them already."""
        if rows is None:
            rows = self.load(run, missing_ok=True)
        return {row.cell_key: row.status for row in rows}

    def failure_counts(
        self, run: str, rows: Sequence[ResultRow] | None = None
    ) -> dict[str, int]:
        """How many failed rows each cell identity has accumulated —
        the executor's per-cell attempt counter across invocations.
        ``rows`` as for :meth:`statuses`."""
        if rows is None:
            rows = self.load(run, missing_ok=True)
        counts: dict[str, int] = {}
        for row in rows:
            if row.status == "failed":
                counts[row.cell_key] = counts.get(row.cell_key, 0) + 1
        return counts

    def delete(self, run: str) -> bool:
        """Remove one run file; returns whether it existed."""
        path = self._path(run)
        if path.exists():
            path.unlink()
            return True
        return False
