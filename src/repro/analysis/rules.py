"""Tier-A lint rules: the contracts of docs/PARALLELISM.md, mechanized.

Rule catalog (docs/ANALYSIS.md has the long-form rationale):

=========  ========  ==========================================================
DET001     error     unseeded randomness in ``repro.*``
DET002     error     wall-clock reads inside simulation/mining/bench paths
DET003     error     order-sensitive iteration over unordered sets in hot paths
PAR001     error     lambda / nested-function handed to the worker pool
ARCH001    error     simulator entry point imported around the backend registry
PERF001    error     ``np.delete``/``np.append`` inside a loop in a hot path
DTYPE001   warning   copy-inducing dtype conversion fed to a set-op kernel
STORE001   error     result file written around the experiment store
ERR001     error     broad exception swallow on a worker/hot path
HYG001     warning   mutable default argument
=========  ========  ==========================================================

Each rule is registered with the engine at import time; the module is
imported lazily by :func:`repro.analysis.engine.rule_catalog`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutils import (
    ImportMap,
    attr_chain,
    collect_imports,
    is_set_expr,
    iter_scopes,
    set_names_in,
    walk_scope,
)
from repro.analysis.engine import ModuleContext, Rule, register
from repro.analysis.findings import Finding, Severity

__all__ = ["HOT_PATH_PACKAGES", "PERF_HOT_PACKAGES", "SIMULATION_PACKAGES"]

#: Packages whose iteration order reaches merged results (DET003).
HOT_PATH_PACKAGES = (
    "repro.mining",
    "repro.hw",
    "repro.parallel",
    "repro.sw",
    "repro.setops",
    "repro.core",
)

#: Packages where wall-clock reads would leak into modelled results
#: (DET002).  ``repro.bench`` is included; ``repro bench`` times its
#: experiments in :mod:`repro.cli`, outside this scope.
SIMULATION_PACKAGES = HOT_PATH_PACKAGES + ("repro.pattern", "repro.bench")


# ----------------------------------------------------------------------
# DET001 — unseeded randomness
# ----------------------------------------------------------------------

_RANDOM_MODULE_FNS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "randbytes",
}
_NUMPY_GLOBAL_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "bytes",
}


def _call_has_seed(call: ast.Call) -> bool:
    """Whether a RNG-constructor call pins a seed explicitly."""
    if any(
        not isinstance(a, ast.Constant) or a.value is not None
        for a in call.args
    ):
        return True
    for kw in call.keywords:
        if kw.arg in (None, "seed") and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return True
    return False


def _check_det001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    imports = collect_imports(tree)
    random_aliases = imports.aliases_of("random")
    numpy_aliases = imports.aliases_of("numpy")
    numpy_random_aliases = imports.aliases_of("numpy.random")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if not chain:
            continue
        message = None
        # random.shuffle(...), random.Random() without a seed
        if len(chain) == 2 and chain[0] in random_aliases:
            if chain[1] in _RANDOM_MODULE_FNS:
                message = (
                    f"call to the process-global RNG `random.{chain[1]}`; "
                    "pass an explicitly seeded `random.Random(seed)` instead"
                )
            elif chain[1] in ("Random", "SystemRandom") and not _call_has_seed(
                node
            ):
                message = (
                    f"`random.{chain[1]}()` constructed without a seed"
                )
        # bare `shuffle(...)` via `from random import shuffle`
        elif len(chain) == 1:
            origin = imports.from_import(chain[0])
            if origin is not None and origin[0] == "random":
                if origin[1] in _RANDOM_MODULE_FNS:
                    message = (
                        f"call to `random.{origin[1]}` (imported as "
                        f"`{chain[0]}`) uses the process-global RNG"
                    )
                elif origin[1] == "Random" and not _call_has_seed(node):
                    message = "`random.Random()` constructed without a seed"
        # np.random.<fn> legacy global API / unseeded default_rng()
        elif len(chain) == 3 and chain[0] in numpy_aliases and chain[1] == "random":
            if chain[2] in _NUMPY_GLOBAL_FNS:
                message = (
                    f"call to the global `numpy.random.{chain[2]}`; use an "
                    "explicitly seeded `numpy.random.default_rng(seed)`"
                )
            elif chain[2] in ("default_rng", "RandomState") and not _call_has_seed(
                node
            ):
                message = f"`numpy.random.{chain[2]}()` without a seed"
        elif len(chain) == 2 and chain[0] in numpy_random_aliases:
            if chain[1] in _NUMPY_GLOBAL_FNS:
                message = (
                    f"call to the global `numpy.random.{chain[1]}`; use an "
                    "explicitly seeded `numpy.random.default_rng(seed)`"
                )
            elif chain[1] in ("default_rng", "RandomState") and not _call_has_seed(
                node
            ):
                message = f"`numpy.random.{chain[1]}()` without a seed"
        if message is not None:
            found = ctx.finding(DET001, node, message)
            if found is not None:
                yield found


DET001 = register(
    Rule(
        id="DET001",
        severity=Severity.ERROR,
        summary="unseeded randomness (process-global RNG or seedless generator)",
        scope=("repro",),
        check=_check_det001,
    )
)


# ----------------------------------------------------------------------
# DET002 — wall-clock reads in simulation / mining paths
# ----------------------------------------------------------------------

_TIME_FNS = {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns"}
_DATETIME_FNS = {"now", "utcnow", "today"}


def _check_det002(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    imports = collect_imports(tree)
    time_aliases = imports.aliases_of("time")
    datetime_aliases = imports.aliases_of("datetime")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        message = None
        if len(chain) == 2 and chain[0] in time_aliases and chain[1] in _TIME_FNS:
            message = f"wall-clock read `time.{chain[1]}()`"
        elif len(chain) == 1:
            origin = imports.from_import(chain[0])
            if origin is not None and origin[0] == "time" and origin[1] in _TIME_FNS:
                message = f"wall-clock read `time.{origin[1]}()`"
        elif (
            len(chain) >= 2
            and chain[-1] in _DATETIME_FNS
            and (
                chain[0] in datetime_aliases
                or imports.from_import(chain[0]) == ("datetime", "datetime")
                or imports.from_import(chain[0]) == ("datetime", "date")
            )
        ):
            message = f"wall-clock read `{'.'.join(chain)}()`"
        if message is not None:
            found = ctx.finding(
                DET002,
                node,
                message
                + " inside a simulation/mining path; modelled time must come "
                "from the event loop, not the host clock",
            )
            if found is not None:
                yield found


DET002 = register(
    Rule(
        id="DET002",
        severity=Severity.ERROR,
        summary="wall-clock read inside a simulation/mining path",
        scope=SIMULATION_PACKAGES,
        check=_check_det002,
    )
)


# ----------------------------------------------------------------------
# DET003 — order-sensitive iteration over unordered sets
# ----------------------------------------------------------------------

_ORDER_SAFE_WRAPPERS = {
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
}


def _check_det003(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for scope_node, body in iter_scopes(tree):
        sets = set_names_in(body, scope_node)

        def emit(node: ast.AST, what: str) -> Finding | None:
            return ctx.finding(
                DET003,
                node,
                f"{what} over an unordered set — iteration order is not part "
                "of the language contract and can break bit-identical shard "
                "merges; iterate `sorted(...)` or an ordered container",
            )

        # walk_scope keeps nested functions out: they are re-visited as
        # their own scope with their own set-name table.
        for stmt in walk_scope(scope_node):
            if isinstance(stmt, ast.For) and is_set_expr(stmt.iter, sets):
                found = emit(stmt.iter, "`for` loop")
                if found is not None:
                    yield found
            elif isinstance(stmt, ast.Call):
                chain = attr_chain(stmt.func)
                if (
                    len(chain) == 2
                    and chain[1] == "pop"
                    and chain[0] in sets
                    and not stmt.args
                ):
                    found = emit(
                        stmt, "`set.pop()` (removes an *arbitrary* element)"
                    )
                    if found is not None:
                        yield found
                elif (
                    chain in (("list",), ("tuple",))
                    and len(stmt.args) == 1
                    and is_set_expr(stmt.args[0], sets)
                ):
                    found = emit(stmt, f"`{chain[0]}(...)` materialization")
                    if found is not None:
                        yield found


DET003 = register(
    Rule(
        id="DET003",
        severity=Severity.ERROR,
        summary="order-sensitive iteration over an unordered set in a hot path",
        scope=HOT_PATH_PACKAGES,
        check=_check_det003,
    )
)


# ----------------------------------------------------------------------
# PAR001 — unpicklable / state-capturing worker dispatch
# ----------------------------------------------------------------------

_POOL_DISPATCH_FNS = {"run_shards"}
_POOL_METHOD_FNS = {"submit", "map", "apply_async", "imap", "imap_unordered",
                    "starmap"}


def _nested_function_names(tree: ast.Module) -> set[str]:
    nested: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                if child is not node and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(child.name)
    return nested


def _check_par001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    nested = _nested_function_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if not chain:
            continue
        is_pool_call = chain[-1] in _POOL_DISPATCH_FNS
        is_pool_method = len(chain) >= 2 and chain[-1] in _POOL_METHOD_FNS
        if not (is_pool_call or is_pool_method):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Lambda):
                found = ctx.finding(
                    PAR001,
                    arg,
                    f"lambda passed to `{chain[-1]}(...)`: lambdas are "
                    "unpicklable and capture enclosing state; dispatch a "
                    "module-level function (docs/PARALLELISM.md §3)",
                )
                if found is not None:
                    yield found
            elif (
                is_pool_call
                and isinstance(arg, ast.Name)
                and arg.id in nested
            ):
                found = ctx.finding(
                    PAR001,
                    arg,
                    f"nested function `{arg.id}` passed to "
                    f"`{chain[-1]}(...)`: closures are unpicklable and "
                    "capture enclosing state; use a module-level worker",
                )
                if found is not None:
                    yield found


PAR001 = register(
    Rule(
        id="PAR001",
        severity=Severity.ERROR,
        summary="lambda/closure handed to the process pool",
        scope=("repro",),
        check=_check_par001,
    )
)


# ----------------------------------------------------------------------
# ARCH001 — simulator entry points imported around the backend registry
# ----------------------------------------------------------------------

#: Raw executor entry points that must only be reached through
#: ``repro.core.get_backend(...)`` — direct use bypasses the unified
#: result contract, summary formatting, and cache-key derivation.
_GUARDED_ENTRY_POINTS = {"run_chip", "simulate_software", "SoftwareMiner"}

#: Modules allowed to touch the raw entry points: the backend layer
#: itself, and the modules that define them.
_ARCH001_ALLOWED = ("repro.hw.chip", "repro.sw.miner")


def _check_arch001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    module = ctx.module or ""
    if module.startswith("repro.core") or module in _ARCH001_ALLOWED:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # Only repro-internal sources: absolute `repro.*` or any
        # relative import (which always resolves inside the package).
        if node.level == 0 and not (node.module or "").startswith("repro"):
            continue
        for alias in node.names:
            if alias.name not in _GUARDED_ENTRY_POINTS:
                continue
            found = ctx.finding(
                ARCH001,
                node,
                f"direct import of `{alias.name}`: execution must go "
                "through the backend registry "
                "(`repro.core.get_backend(...)`) so results, cache keys, "
                "and merges follow one contract (docs/API.md)",
            )
            if found is not None:
                yield found


ARCH001 = register(
    Rule(
        id="ARCH001",
        severity=Severity.ERROR,
        summary="simulator entry point imported around the backend registry",
        scope=("repro",),
        check=_check_arch001,
    )
)


# ----------------------------------------------------------------------
# PERF001 — array-copy churn inside loops on the hot path
# ----------------------------------------------------------------------

#: numpy routines that reallocate and copy the whole array per call;
#: inside a loop that is O(k·n) where one vectorized mask pass is O(n).
_COPY_CHURN_FNS = {"delete", "append", "insert"}

#: Packages whose set-op / traversal loops dominate runtime.
PERF_HOT_PACKAGES = ("repro.setops", "repro.mining", "repro.hw")


def _check_perf001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    imports = collect_imports(tree)
    numpy_aliases = imports.aliases_of("numpy")

    def churn_name(call: ast.Call) -> str | None:
        chain = attr_chain(call.func)
        if (
            len(chain) == 2
            and chain[0] in numpy_aliases
            and chain[1] in _COPY_CHURN_FNS
        ):
            return chain[1]
        if len(chain) == 1:
            origin = imports.from_import(chain[0])
            if (
                origin is not None
                and origin[0] == "numpy"
                and origin[1] in _COPY_CHURN_FNS
            ):
                return origin[1]
        return None

    seen: set[ast.Call] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call) or inner in seen:
                continue
            name = churn_name(inner)
            if name is None:
                continue
            seen.add(inner)
            found = ctx.finding(
                PERF001,
                inner,
                f"`np.{name}` inside a loop reallocates and copies the "
                "whole array per iteration (O(k·n)); accumulate a boolean "
                "mask or indices and apply one vectorized pass instead "
                "(docs/ANALYSIS.md)",
            )
            if found is not None:
                yield found


PERF001 = register(
    Rule(
        id="PERF001",
        severity=Severity.ERROR,
        summary="np.delete/np.append inside a loop on the hot path",
        scope=PERF_HOT_PACKAGES,
        check=_check_perf001,
    )
)


# ----------------------------------------------------------------------
# DTYPE001 — dtype churn feeding the set-op kernels
# ----------------------------------------------------------------------

_KERNEL_PACKAGE = "repro.setops"

#: Dtypes the kernels take as-is (``np.asarray`` to them copies nothing).
_CLEAN_DTYPES = frozenset({"int32", "intp"})


def _in_kernel_package(module: str) -> bool:
    return module == _KERNEL_PACKAGE or module.startswith(_KERNEL_PACKAGE + ".")


def _is_kernel_call(call: ast.Call, imports: ImportMap) -> bool:
    """Whether the callee resolves, through the file's imports, into
    ``repro.setops`` (``from repro.setops.kernels import f``; ``from
    repro.setops import segmented as sg`` then ``sg.f``; ``import
    repro.setops.kernels`` then ``repro.setops.kernels.f``)."""
    chain = attr_chain(call.func)
    if not chain:
        return False
    origin = imports.from_import(chain[0])
    if len(chain) == 1:
        return origin is not None and _in_kernel_package(origin[0])
    module = imports.module_of(chain[0])
    if module is None and origin is not None:
        module = f"{origin[0]}.{origin[1]}"
    return module is not None and _in_kernel_package(
        ".".join((module, *chain[1:-1]))
    )


def _conversion_label(expr: ast.expr, numpy_aliases: set[str]) -> str | None:
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


def _check_dtype001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    imports = collect_imports(tree)
    numpy_aliases = imports.aliases_of("numpy")
    for scope, _ in iter_scopes(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # A name assigned a conversion anywhere in the function counts
        # as converted (flow-insensitive, like the set-name table).
        converted: dict[str, str] = {}
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign):
                label = _conversion_label(node.value, numpy_aliases)
                if label is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            converted[target.id] = label
        for node in walk_scope(scope):
            if not isinstance(node, ast.Call) or not _is_kernel_call(
                node, imports
            ):
                continue
            for arg in node.args:
                label = _conversion_label(arg, numpy_aliases)
                if label is None and isinstance(arg, ast.Name):
                    label = converted.get(arg.id)
                if label is None:
                    continue
                found = ctx.finding(
                    DTYPE001,
                    node,
                    f"`{scope.name}` feeds a {label} conversion into a "
                    "set-op kernel call; the kernels expect int32 CSR "
                    "slices prepared once at graph build time — per-call "
                    "copies burn the bandwidth the kernels save "
                    "(docs/KERNELS.md)",
                )
                if found is not None:
                    yield found
                break


DTYPE001 = register(
    Rule(
        id="DTYPE001",
        severity=Severity.WARNING,
        summary="copy-inducing dtype conversion feeding a set-op kernel",
        # The kernels themselves may convert internally.
        scope=tuple(p for p in HOT_PATH_PACKAGES if p != _KERNEL_PACKAGE),
        check=_check_dtype001,
    )
)


# ----------------------------------------------------------------------
# STORE001 — result files written around the experiment store
# ----------------------------------------------------------------------

#: Packages whose file writes are benchmark results by construction.
RESULT_WRITER_PACKAGES = ("repro.bench", "repro.experiments")

#: The two modules that own result persistence: the schema'd store and
#: its report writer (docs/BENCHMARKS.md).
_STORE001_ALLOWED = ("repro.experiments.store", "repro.experiments.report")

_WRITE_METHODS = {"write_text", "write_bytes"}


def _open_write_mode(call: ast.Call, *, mode_pos: int) -> str | None:
    """The write-ish mode string of an ``open``-style call, if any."""
    mode = None
    if len(call.args) > mode_pos and isinstance(
        call.args[mode_pos], ast.Constant
    ):
        mode = call.args[mode_pos].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    if isinstance(mode, str) and any(ch in mode for ch in "wax+"):
        return mode
    return None


def _check_store001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    if (ctx.module or "") in _STORE001_ALLOWED:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        message = None
        # Method calls are matched on the attribute name alone: the
        # receiver is often a computed expression (`(dir / name)
        # .write_text(...)`) that no name chain can describe.
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _WRITE_METHODS:
                message = f"`.{node.func.attr}(...)`"
            elif node.func.attr == "open":
                mode = _open_write_mode(node, mode_pos=0)
                if mode is not None:
                    message = f"`.open({mode!r})`"
        elif attr_chain(node.func) == ("open",):
            mode = _open_write_mode(node, mode_pos=1)
            if mode is not None:
                message = f"`open(..., {mode!r})`"
        if message is None:
            continue
        found = ctx.finding(
            STORE001,
            node,
            f"file write {message} in a benchmark/experiment module "
            "bypasses the schema'd result store; append ResultRow records "
            "via repro.experiments.store (or emit through its report "
            "writer) so every number carries provenance "
            "(docs/BENCHMARKS.md)",
        )
        if found is not None:
            yield found


STORE001 = register(
    Rule(
        id="STORE001",
        severity=Severity.ERROR,
        summary="benchmark result written around the experiment store",
        scope=RESULT_WRITER_PACKAGES,
        check=_check_store001,
    )
)


# ----------------------------------------------------------------------
# ERR001 — broad exception swallows on worker/hot paths
# ----------------------------------------------------------------------

#: Packages where a silent `except Exception: pass` can absorb a real
#: defect (a crashed worker, a torn cache entry, a failed cell) and
#: turn it into silently-wrong or silently-missing results.
ERR_SWALLOW_PACKAGES = HOT_PATH_PACKAGES + (
    "repro.cache",
    "repro.experiments",
    "repro.resilience",
)

_BROAD_EXCEPTION_NAMES = {"Exception", "BaseException"}


def _broad_exception_name(type_expr: ast.expr | None) -> str | None:
    """The over-broad class caught by a handler, or None if narrow.

    Bare ``except:`` returns ``""``; tuple handlers are broad when any
    element is.
    """
    if type_expr is None:
        return ""
    candidates = (
        type_expr.elts if isinstance(type_expr, ast.Tuple) else [type_expr]
    )
    for candidate in candidates:
        chain = attr_chain(candidate)
        if chain and chain[-1] in _BROAD_EXCEPTION_NAMES:
            return chain[-1]
    return None


def _is_swallow_body(body: list[ast.stmt]) -> bool:
    """Whether a handler body discards the exception without acting:
    only ``pass``/``continue``/``...`` (docstrings tolerated)."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            # Ellipsis placeholder or a string used as a comment.
            continue
        return False
    return True


def _check_err001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = _broad_exception_name(node.type)
        if caught is None or not _is_swallow_body(node.body):
            continue
        what = (
            "bare `except:`" if caught == "" else f"`except {caught}:`"
        )
        found = ctx.finding(
            ERR001,
            node,
            f"{what} with a pass/continue body silently swallows every "
            "failure on a worker/hot path — a crashed shard or torn "
            "cache entry becomes silently-missing results; catch the "
            "narrowest exceptions the operation can raise, or route "
            "retryables through repro.errors and count the event "
            "(docs/RESILIENCE.md)",
        )
        if found is not None:
            yield found


ERR001 = register(
    Rule(
        id="ERR001",
        severity=Severity.ERROR,
        summary="broad exception swallow on a worker/hot path",
        scope=ERR_SWALLOW_PACKAGES,
        check=_check_err001,
    )
)


# ----------------------------------------------------------------------
# HYG001 — mutable default arguments (the configured ruff does not
# select B006)
# ----------------------------------------------------------------------


def _check_hyg001(tree: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                chain = attr_chain(default.func)
                mutable = chain in (("list",), ("dict",), ("set",))
            if mutable:
                found = ctx.finding(
                    HYG001,
                    default,
                    f"mutable default argument in `{node.name}(...)`; "
                    "default to None and construct inside the function",
                )
                if found is not None:
                    yield found


HYG001 = register(
    Rule(
        id="HYG001",
        severity=Severity.WARNING,
        summary="mutable default argument",
        scope=("repro",),
        check=_check_hyg001,
    )
)
