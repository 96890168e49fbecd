"""The Tier-C rule families (RACE, TAINT, KEY, DTYPE).

Every rule sees the whole :class:`~repro.analysis.dataflow.callgraph.
ProjectModel` plus the propagated :class:`~repro.analysis.dataflow.
facts.ProjectFacts`, and mints findings through the per-module
:class:`~repro.analysis.engine.ModuleContext` so ``# noqa: RULE``
pragmas and baseline fingerprints work exactly as in Tier A.

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
TAINT001 (error)
    A :class:`~repro.setops.kernels.KernelPolicy` fact (policy
    attribute, ``DEFAULT_POLICY``, kernel counters, kernel choice)
    flows into a timing quantity inside ``repro.hw``/``repro.sw``.
    Kernel policy may change *how fast the host computes* results, but
    never the modeled cycle count — docs/KERNELS.md ("timing
    neutrality").  Note the *results* of kernel dispatch are not
    tainted: every policy produces bit-identical sets, and those sets
    legitimately drive the search tree that timing models.
KEY001 (error)
    A backend overrides ``cache_key`` without routing the config
    through :func:`~repro.core.backend.config_signature` (or
    ``super().cache_key``), and some config field read under its run
    path never appears in the override — a stale-cache hazard.
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
from repro.analysis.dataflow.facts import ProjectFacts, is_timing_name
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
# TAINT001 — kernel policy leaking into the timing model
# ----------------------------------------------------------------------

_TAINT_SOURCE_NAMES = frozenset({"DEFAULT_POLICY"})
_TAINT_SOURCE_CALLS = frozenset({"kernel_counters", "pick_segment_kernel"})
_TAINT_SINK_PACKAGES = ("repro.hw", "repro.sw")


def _policy_annotated_params(fn: FunctionInfo) -> set[str]:
    args = fn.node.args
    out: set[str] = set()
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        ann = arg.annotation
        if isinstance(ann, ast.Subscript):
            ann = ann.value
        chain = attr_chain(ann) if ann is not None else ()
        if chain and chain[-1] == "KernelPolicy":
            out.add(arg.arg)
    return out


class _TaintScanner:
    """Flow-insensitive per-function taint propagation.

    Sources: ``policy`` attribute chains, :data:`_TAINT_SOURCE_NAMES`,
    :data:`_TAINT_SOURCE_CALLS`, ``KernelPolicy``-annotated parameters,
    names assigned from ``KernelPolicy(...)``, and calls to functions
    already known to return tainted values (the interprocedural
    dimension, resolved to a fixed point by the rule driver).
    """

    def __init__(
        self,
        model: ProjectModel,
        fn: FunctionInfo,
        returns_tainted: set[str],
    ) -> None:
        self.model = model
        self.fn = fn
        self.returns_tainted = returns_tainted
        self.tainted: set[str] = _policy_annotated_params(fn)
        self._propagate()

    def _call_returns_taint(self, call: ast.Call) -> bool:
        chain = attr_chain(call.func)
        if chain and chain[-1] in _TAINT_SOURCE_CALLS:
            return True
        if chain and chain[-1] == "KernelPolicy":
            return True
        targets = self.model.resolve_call(self.fn, call)
        return bool(targets & self.returns_tainted)

    def expr_tainted(self, expr: ast.expr | None) -> bool:
        if expr is None:
            return False
        for node in ast.walk(expr):
            chain: tuple[str, ...] = ()
            if isinstance(node, (ast.Name, ast.Attribute)):
                chain = attr_chain(node)
            if chain:
                if "policy" in chain or chain[-1] in _TAINT_SOURCE_NAMES:
                    return True
                if chain[0] in self.tainted:
                    return True
            if isinstance(node, ast.Call) and self._call_returns_taint(node):
                return True
        return False

    def _propagate(self) -> None:
        for _ in range(len(self.tainted) + 32):
            before = len(self.tainted)
            for node in ast.walk(self.fn.node):
                value: ast.expr | None = None
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    value, targets = node.value, [node.target]
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    value, targets = node.iter, [node.target]
                if value is None or not self.expr_tainted(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.tainted.add(target.id)
            if len(self.tainted) == before:
                break

    def returns_taint(self) -> bool:
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Return) and self.expr_tainted(node.value):
                return True
        return False


def _in_sink_packages(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in _TAINT_SINK_PACKAGES
    )


def _check_taint001(
    model: ProjectModel, facts: ProjectFacts
) -> Iterable[Finding]:
    # Interprocedural fixed point: which functions return tainted values.
    returns_tainted: set[str] = set()
    for _ in range(len(model.functions) + 1):
        changed = False
        for qualname in sorted(model.functions):
            if qualname in returns_tainted:
                continue
            fn = model.functions[qualname]
            if _TaintScanner(model, fn, returns_tainted).returns_taint():
                returns_tainted.add(qualname)
                changed = True
        if not changed:
            break

    for qualname in sorted(model.functions):
        fn = model.functions[qualname]
        if not _in_sink_packages(fn.module):
            continue
        mod = model.modules[fn.module]
        scan = _TaintScanner(model, fn, returns_tainted)
        for node in ast.walk(fn.node):
            sink: str | None = None
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                named = [
                    chain[-1]
                    for t in targets
                    if (chain := attr_chain(t)) and is_timing_name(chain[-1])
                ]
                if named and scan.expr_tainted(node.value):
                    sink = f"timing assignment to `{named[0]}`"
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                callee_is_timing = bool(chain) and (
                    is_timing_name(chain[-1])
                    or bool(
                        model.resolve_call(fn, node)
                        & facts.timing_functions
                    )
                )
                if callee_is_timing and any(
                    scan.expr_tainted(a) for a in node.args
                ) or (
                    callee_is_timing
                    and any(
                        scan.expr_tainted(kw.value) for kw in node.keywords
                    )
                ):
                    sink = f"argument of timing function `{chain[-1]}`"
            elif isinstance(node, ast.Return) and is_timing_name(fn.name):
                if scan.expr_tainted(node.value):
                    sink = f"return value of timing function `{fn.name}`"
            if sink is not None:
                finding = mod.ctx.finding(
                    _TAINT001,
                    node,
                    "kernel-policy value reaches the {} in `{}`; kernel "
                    "selection must be timing-neutral (docs/KERNELS.md) — "
                    "derive modeled cycles from set sizes, never from how "
                    "the host computed them".format(sink, fn.name),
                )
                if finding is not None:
                    yield finding


_TAINT001 = register_flow_rule(
    FlowRule(
        id="TAINT001",
        severity=Severity.ERROR,
        summary="kernel-policy dataflow into the timing model",
        check=_check_taint001,
    )
)


# ----------------------------------------------------------------------
# KEY001 — config reads escaping a hand-rolled cache key
# ----------------------------------------------------------------------


def _cache_key_is_delegating(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether a ``cache_key`` override routes through the safe helpers."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        chain = attr_chain(sub.func)
        if chain and chain[-1] == "config_signature":
            return True
        func = sub.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "cache_key"
            and isinstance(func.value, ast.Call)
            and attr_chain(func.value.func) == ("super",)
        ):
            return True
    return False


def _mentioned_names(node: ast.AST) -> set[str]:
    """Every identifier a cache-key body could cover a field with."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.keyword) and sub.arg:
            out.add(sub.arg)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _config_class_of(
    model: ProjectModel, cls_qualname: str
) -> str | None:
    """Resolve a backend class's ``config_type`` binding, if any."""
    info = model.classes[cls_qualname]
    mod = model.modules[info.module]
    for stmt in info.node.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if (
            not isinstance(target, ast.Name)
            or target.id != "config_type"
            or value is None
        ):
            continue
        chain = attr_chain(value)
        if not chain:
            return None
        local = model.module_class(info.module, chain[-1])
        if local is not None:
            return local
        origin = mod.imports.from_import(chain[0])
        if origin is not None:
            candidate = f"{origin[0]}.{origin[1]}"
            if candidate in model.classes:
                return candidate
    return None


def _check_key001(
    model: ProjectModel, facts: ProjectFacts
) -> Iterable[Finding]:
    for cls_qualname in sorted(facts.backend_run_reachable):
        info = model.classes[cls_qualname]
        key_qual = info.methods.get("cache_key")
        if key_qual is None:
            continue  # inherits the signature-complete base key
        key_fn = model.functions[key_qual]
        if _cache_key_is_delegating(key_fn.node):
            continue
        config_cls = _config_class_of(model, cls_qualname)
        if config_cls is None:
            continue
        config = model.classes[config_cls]
        if not config.is_dataclass or not config.fields:
            continue
        covered = _mentioned_names(key_fn.node)
        field_set = set(config.fields)
        reads: dict[str, tuple[str, ast.Attribute]] = {}
        for qualname in sorted(facts.backend_run_reachable[cls_qualname]):
            fn = model.functions.get(qualname)
            if fn is None or qualname == key_qual:
                continue
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in field_set
                    and node.attr not in reads
                ):
                    reads[node.attr] = (qualname, node)
        mod = model.modules[key_fn.module]
        for field_name in sorted(reads):
            if field_name in covered:
                continue
            read_at, _node = reads[field_name]
            finding = mod.ctx.finding(
                _KEY001,
                key_fn.node,
                "`{}.cache_key` omits config field `{}` of `{}`, which is "
                "read under the backend's run path (in `{}`); cached "
                "results will be reused across configs that differ in "
                "that field — route through config_signature() "
                "instead".format(
                    info.name, field_name, config.name, read_at
                ),
            )
            if finding is not None:
                yield finding


_KEY001 = register_flow_rule(
    FlowRule(
        id="KEY001",
        severity=Severity.ERROR,
        summary="config field read under run() but missing from cache_key",
        check=_check_key001,
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
