"""The Tier-C rule families (RACE, DTYPE).

Every rule sees the whole :class:`~repro.analysis.dataflow.callgraph.
ProjectModel` plus the propagated :class:`~repro.analysis.dataflow.
facts.ProjectFacts`, and mints findings through the per-module
:class:`~repro.analysis.engine.ModuleContext` so ``# noqa: RULE``
pragmas work exactly as in Tier A.

RACE001 (error)
    A function reachable from a pool worker entry rebinds a module
    global (``global X`` + assignment) or mutates a module-level
    mutable container.  Worker processes each get their own copy, so
    such writes silently diverge between the pool path and the serial
    fallback — or corrupt state outright under threads.
RACE002 (error)
    A worker entry function mutates its *payload* parameter.  The
    payload is shared by reference on the serial path and copied on
    the pool path, so mutation makes the two execution models disagree.
DTYPE001 (warning)
    A copy-inducing NumPy conversion (``.astype``, ``np.array``,
    non-int32 ``np.asarray``) feeds a set-op kernel call on the hot
    path.  The kernels contract expects int32 CSR slices prepared once
    at build time; converting per call burns the memory bandwidth the
    kernels exist to save.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.analysis.astutils import (
    attr_chain,
    is_mutable_literal,
    mutated_chain,
)
from repro.analysis.dataflow.callgraph import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from repro.analysis.dataflow.facts import ProjectFacts
from repro.analysis.findings import Finding, Severity

__all__ = [
    "FLOW_RULES",
    "FlowRule",
    "flow_rule_catalog",
    "register_flow_rule",
]


@dataclass(frozen=True)
class FlowRule:
    """One whole-program rule: metadata plus a project-level checker."""

    id: str
    severity: Severity
    summary: str
    check: Callable[[ProjectModel, ProjectFacts], Iterable[Finding]]


FLOW_RULES: list[FlowRule] = []


def register_flow_rule(rule: FlowRule) -> FlowRule:
    if any(r.id == rule.id for r in FLOW_RULES):
        raise ValueError(f"duplicate flow rule id {rule.id!r}")
    FLOW_RULES.append(rule)
    return rule


def flow_rule_catalog() -> list[FlowRule]:
    return list(FLOW_RULES)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _iter_worker_functions(
    model: ProjectModel, facts: ProjectFacts
) -> Iterator[FunctionInfo]:
    for qualname in sorted(facts.worker_paths):
        fn = model.functions.get(qualname)
        if fn is not None:
            yield fn


def _module_level_names(mod: ModuleInfo) -> tuple[set[str], set[str]]:
    """(all module-level assigned names, the mutable-container subset)."""
    all_names: set[str] = set()
    mutable: set[str] = set()
    for stmt in mod.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name):
                all_names.add(target.id)
                if value is not None and is_mutable_literal(value):
                    mutable.add(target.id)
    return all_names, mutable


def _local_bindings(fn: FunctionInfo) -> set[str]:
    """Names bound locally in ``fn`` (params + assignments − globals)."""
    args = fn.node.args
    local: set[str] = {
        a.arg
        for a in [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
    }
    declared_global: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                local.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                local.add(node.target.id)
    return local - declared_global


def _param_names(fn: FunctionInfo) -> set[str]:
    args = fn.node.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    names.discard("self")
    names.discard("cls")
    return names


# ----------------------------------------------------------------------
# RACE001 — shared module state written on worker paths
# ----------------------------------------------------------------------


def _check_race001(
    model: ProjectModel, facts: ProjectFacts
) -> Iterable[Finding]:
    per_module_names: dict[str, tuple[set[str], set[str]]] = {}
    for fn in _iter_worker_functions(model, facts):
        mod = model.modules[fn.module]
        if fn.module not in per_module_names:
            per_module_names[fn.module] = _module_level_names(mod)
        all_names, mutable = per_module_names[fn.module]
        local = _local_bindings(fn)
        witness = facts.worker_witness(fn.qualname)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                shared = sorted(set(node.names) & all_names)
                if shared:
                    finding = mod.ctx.finding(
                        _RACE001,
                        node,
                        "`{}` rebinds module global(s) {} but runs in pool "
                        "workers (reachable from {}); each worker process "
                        "sees its own copy, so the write diverges from the "
                        "serial fallback".format(
                            fn.name,
                            ", ".join(f"`{n}`" for n in shared),
                            witness,
                        ),
                    )
                    if finding is not None:
                        yield finding
                continue
            chain = mutated_chain(node)
            if (
                chain
                and chain[0] in mutable
                and chain[0] not in local
            ):
                finding = mod.ctx.finding(
                    _RACE001,
                    node,
                    "`{}` mutates module-level container `{}` but runs in "
                    "pool workers (reachable from {}); per-process copies "
                    "make the mutation invisible to the parent and "
                    "non-deterministic under the serial fallback".format(
                        fn.name, chain[0], witness
                    ),
                )
                if finding is not None:
                    yield finding


_RACE001 = register_flow_rule(
    FlowRule(
        id="RACE001",
        severity=Severity.ERROR,
        summary="module-level mutable state written on a pool-worker path",
        check=_check_race001,
    )
)


# ----------------------------------------------------------------------
# RACE002 — worker entry mutates its shared payload
# ----------------------------------------------------------------------


def _check_race002(
    model: ProjectModel, facts: ProjectFacts
) -> Iterable[Finding]:
    for qualname in sorted(facts.worker_entries):
        fn = model.functions.get(qualname)
        if fn is None:
            continue
        mod = model.modules[fn.module]
        params = _param_names(fn)
        for node in ast.walk(fn.node):
            chain = mutated_chain(node)
            if chain and chain[0] in params:
                finding = mod.ctx.finding(
                    _RACE002,
                    node,
                    "worker entry `{}` mutates its parameter `{}`; the "
                    "payload is shared by reference on the serial path but "
                    "copied per process on the pool path, so the two "
                    "execution models disagree".format(fn.name, chain[0]),
                )
                if finding is not None:
                    yield finding


_RACE002 = register_flow_rule(
    FlowRule(
        id="RACE002",
        severity=Severity.ERROR,
        summary="worker entry function mutates its shared payload",
        check=_check_race002,
    )
)


# ----------------------------------------------------------------------
# DTYPE001 — dtype churn feeding the set-op kernels
# ----------------------------------------------------------------------

_KERNEL_PACKAGES = ("repro.setops",)
_CLEAN_DTYPES = frozenset({"int32", "intp"})


def _is_kernel_call(
    model: ProjectModel, fn: FunctionInfo, call: ast.Call
) -> bool:
    return any(
        _in_kernel_packages(model.functions[t].module)
        for t in model.resolve_call(fn, call)
        if t in model.functions
    )


def _in_kernel_packages(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in _KERNEL_PACKAGES
    )


def _conversion_label(
    expr: ast.expr, numpy_aliases: set[str]
) -> str | None:
    """Describe a copy-inducing conversion, or ``None`` if clean."""
    if not isinstance(expr, ast.Call):
        return None
    chain = attr_chain(expr.func)
    if not chain:
        return None
    if chain[-1] == "astype":
        return ".astype(...)"
    if len(chain) == 2 and chain[0] in numpy_aliases:
        if chain[1] == "array":
            return "np.array(...)"
        if chain[1] == "asarray":
            for kw in expr.keywords:
                if kw.arg == "dtype":
                    dtype = attr_chain(kw.value)
                    if dtype and dtype[-1] not in _CLEAN_DTYPES:
                        return f"np.asarray(dtype={dtype[-1]})"
    return None


def _check_dtype001(
    model: ProjectModel, facts: ProjectFacts
) -> Iterable[Finding]:
    for qualname in sorted(facts.hot_functions):
        fn = model.functions[qualname]
        if _in_kernel_packages(fn.module):
            continue  # the kernels may convert internally
        mod = model.modules[fn.module]
        numpy_aliases = mod.imports.aliases_of("numpy")
        converted: dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                label = _conversion_label(node.value, numpy_aliases)
                if label is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            converted[target.id] = label
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call) or not _is_kernel_call(
                model, fn, node
            ):
                continue
            for arg in node.args:
                label = _conversion_label(arg, numpy_aliases)
                if label is None and isinstance(arg, ast.Name):
                    label = converted.get(arg.id)
                if label is None:
                    continue
                finding = mod.ctx.finding(
                    _DTYPE001,
                    node,
                    "`{}` feeds a {} conversion into a set-op kernel call; "
                    "the kernels expect int32 CSR slices prepared once at "
                    "graph build time — per-call copies burn the bandwidth "
                    "the kernels save (docs/KERNELS.md)".format(
                        fn.name, label
                    ),
                )
                if finding is not None:
                    yield finding
                break
    return


_DTYPE001 = register_flow_rule(
    FlowRule(
        id="DTYPE001",
        severity=Severity.WARNING,
        summary="copy-inducing dtype conversion feeding a set-op kernel",
        check=_check_dtype001,
    )
)
