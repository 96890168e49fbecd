"""Context-fact propagation over the Tier-C call graph.

Facts are *where code runs*, not *what it does* — the rule layer
(:mod:`repro.analysis.dataflow.flowrules`) combines these with local
syntax to decide what to report:

``runs-in-worker``
    reachable from a pool worker entry point.  Entries are collected
    from call sites, not annotations: the first positional argument of
    ``run_shards(...)``, the ``initializer=`` of a
    ``ProcessPoolExecutor(...)``, and the function argument of pool
    methods (``executor.map(f, ...)``, ``.submit(f, ...)``).
``hot-path``
    functions living in :data:`repro.analysis.rules.HOT_PATH_PACKAGES`
    modules (the DTYPE001 scope).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutils import attr_chain
from repro.analysis.dataflow.callgraph import (
    FunctionInfo,
    ProjectModel,
    reachable,
)
from repro.analysis.rules import HOT_PATH_PACKAGES

__all__ = [
    "POOL_FANOUT_METHODS",
    "ProjectFacts",
    "compute_facts",
]

#: Executor/pool methods whose first argument is a function shipped to
#: worker processes.
POOL_FANOUT_METHODS = frozenset({
    "apply", "apply_async", "imap", "imap_unordered", "map", "map_async",
    "starmap", "starmap_async", "submit",
})


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


@dataclass
class ProjectFacts:
    """Propagated context facts for one :class:`ProjectModel`."""

    #: Functions handed to a pool (the roots of worker execution).
    worker_entries: set[str] = field(default_factory=set)
    #: Reached qualname -> witness call chain from a worker entry.
    worker_paths: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Functions in hot-path packages (DTYPE001 scope).
    hot_functions: set[str] = field(default_factory=set)

    def runs_in_worker(self, qualname: str) -> bool:
        return qualname in self.worker_paths

    def worker_witness(self, qualname: str) -> str:
        """Human-readable witness chain for a runs-in-worker fact."""
        chain = self.worker_paths.get(qualname, ())
        if len(chain) <= 1:
            return f"worker entry `{_short(qualname)}`"
        return "worker entry `{}` via {}".format(
            _short(chain[0]), " -> ".join(_short(q) for q in chain[1:])
        )


def _short(qualname: str) -> str:
    """Drop the package prefix for message readability."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname


# ----------------------------------------------------------------------
# Worker-entry detection
# ----------------------------------------------------------------------


def _resolve_arg_ref(
    model: ProjectModel, fn: FunctionInfo, arg: ast.expr
) -> str | None:
    """A function-valued argument expression -> project qualname."""
    chain = attr_chain(arg)
    if not chain:
        return None
    if len(chain) == 1:
        return model.resolve_function_ref(fn.module, chain[0])
    if chain[0] == "self" and fn.cls is not None and len(chain) == 2:
        targets = model.resolve_method(fn.cls, chain[1])
        # A bound-method reference fans out to every override.
        return None if not targets else sorted(targets)[0]
    mod = model.modules[fn.module].imports.module_of(chain[0])
    if mod is not None and len(chain) == 2:
        return model.module_function(mod, chain[1])
    origin = model.modules[fn.module].imports.from_import(chain[0])
    if origin is not None and len(chain) == 2:
        candidate = f"{origin[0]}.{origin[1]}"
        if candidate in model.modules:
            return model.module_function(candidate, chain[1])
    return None


def _worker_refs(
    model: ProjectModel, fn: FunctionInfo, call: ast.Call
) -> list[str]:
    """Worker entry points referenced by one call expression."""
    chain = attr_chain(call.func)
    if not chain:
        return []
    refs: list[str] = []

    def first_arg() -> ast.expr | None:
        return call.args[0] if call.args else None

    if chain[-1] == "run_shards":
        arg = first_arg()
        if arg is not None:
            ref = _resolve_arg_ref(model, fn, arg)
            if ref is not None:
                refs.append(ref)
    elif chain[-1] == "ProcessPoolExecutor":
        for kw in call.keywords:
            if kw.arg == "initializer":
                ref = _resolve_arg_ref(model, fn, kw.value)
                if ref is not None:
                    refs.append(ref)
    elif len(chain) >= 2 and chain[-1] in POOL_FANOUT_METHODS:
        arg = first_arg()
        if arg is not None:
            ref = _resolve_arg_ref(model, fn, arg)
            if ref is not None:
                refs.append(ref)
    return refs


def compute_facts(model: ProjectModel) -> ProjectFacts:
    """Propagate every context fact over the project call graph."""
    facts = ProjectFacts()

    for fn in model.functions.values():
        if _in_packages(fn.module, HOT_PATH_PACKAGES):
            facts.hot_functions.add(fn.qualname)
        for call in model.iter_calls(fn):
            facts.worker_entries.update(_worker_refs(model, fn, call))

    facts.worker_paths = reachable(model.calls, set(facts.worker_entries))
    return facts
