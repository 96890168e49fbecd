"""Project model and conservative call-graph construction for Tier C.

One :class:`ProjectModel` holds every analyzed module's AST, import
map, and :class:`~repro.analysis.engine.ModuleContext` (source lines,
``noqa`` pragmas), plus three derived tables:

* ``functions`` — every module-level function and class method, keyed
  by dotted qualname (``repro.hw.pe.BasePE._fetch_shared``);
* ``classes`` — every class with its raw base names and method table;
* ``calls`` — the call graph: caller qualname -> callee qualnames.

Resolution is *name-based and conservative* (docs/ANALYSIS.md, "known
soundness limits"):

* bare names resolve through the module's locals and from-imports;
* ``alias.f(...)`` resolves through module aliases;
* ``self.m(...)`` resolves through the class, its project ancestors,
  and — virtual dispatch — every project subclass override of ``m``;
* ``<unknown>.m(...)`` falls back to *method-name matching*: an edge
  to every project class method named ``m`` (never module functions,
  and never the builtin container vocabulary), which over-approximates
  duck-typed dispatch like ``backend.simulate(...)``.

Over-approximation is the right failure mode here: the facts layer
computes *reachability* (runs-in-worker), where a
spurious edge can only add a finding a human then reviews — a missing
edge would silently hide a race.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.analysis.astutils import ImportMap, attr_chain, collect_imports
from repro.analysis.engine import ModuleContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "build_project",
    "reachable",
]

#: Builtin container/str methods never treated as project dispatch in
#: the unknown-receiver fallback (they would wire ``results.append`` to
#: any project method that happens to be called ``append``).
_BUILTIN_METHODS = frozenset({
    "add", "append", "capitalize", "clear", "copy", "count", "decode",
    "difference", "discard", "encode", "endswith", "extend", "format",
    "get", "index", "insert", "intersection", "isdigit", "items", "join",
    "keys", "lower", "lstrip", "pop", "popitem", "read", "readlines",
    "remove", "replace", "reverse", "rstrip", "setdefault", "sort",
    "split", "splitlines", "startswith", "strip", "title", "union",
    "update", "upper", "values", "write",
})


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str
    module: str
    name: str
    #: Qualname of the owning class, or ``None`` for module functions.
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ClassInfo:
    """One analyzed class definition."""

    qualname: str
    module: str
    name: str
    #: Raw base-name chains as written (``("Backend",)``,
    #: ``("abc", "ABC")``); resolved lazily against the project.
    base_chains: tuple[tuple[str, ...], ...]
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analyzed module: AST plus per-file lint context."""

    name: str
    ctx: ModuleContext
    tree: ast.Module
    imports: ImportMap


class ProjectModel:
    """All modules of one analysis run, with derived indices."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: (module, bare name) -> function qualname, module level only.
        self._module_functions: dict[tuple[str, str], str] = {}
        #: (module, bare name) -> class qualname.
        self._module_classes: dict[tuple[str, str], str] = {}
        #: method name -> qualnames of every class method with the name.
        self._methods_named: dict[str, set[str]] = {}
        #: class qualname -> direct project subclasses.
        self._subclasses: dict[str, set[str]] = {}
        self.calls: dict[str, set[str]] = {}
        self._index()
        self._resolve_hierarchy()
        self._build_calls()

    # -- indexing --------------------------------------------------------

    def _index(self) -> None:
        for mod in self.modules.values():
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{mod.name}.{stmt.name}"
                    self.functions[qual] = FunctionInfo(
                        qualname=qual, module=mod.name, name=stmt.name,
                        cls=None, node=stmt,
                    )
                    self._module_functions[(mod.name, stmt.name)] = qual
                elif isinstance(stmt, ast.ClassDef):
                    self._index_class(mod, stmt)

    def _index_class(self, mod: ModuleInfo, cls: ast.ClassDef) -> None:
        cls_qual = f"{mod.name}.{cls.name}"
        chains = tuple(
            chain
            for base in cls.bases
            if (chain := attr_chain(base))
        )
        info = ClassInfo(
            qualname=cls_qual, module=mod.name, name=cls.name,
            base_chains=chains,
        )
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn_qual = f"{cls_qual}.{stmt.name}"
                self.functions[fn_qual] = FunctionInfo(
                    qualname=fn_qual, module=mod.name, name=stmt.name,
                    cls=cls_qual, node=stmt,
                )
                info.methods[stmt.name] = fn_qual
                if stmt.name not in _BUILTIN_METHODS:
                    self._methods_named.setdefault(stmt.name, set()).add(
                        fn_qual
                    )
        self.classes[cls_qual] = info
        self._module_classes[(mod.name, cls.name)] = cls_qual

    def _resolve_hierarchy(self) -> None:
        for info in self.classes.values():
            for chain in info.base_chains:
                base = self._resolve_class_chain(info.module, chain)
                if base is not None:
                    self._subclasses.setdefault(base, set()).add(
                        info.qualname
                    )

    def _resolve_class_chain(
        self, module: str, chain: tuple[str, ...]
    ) -> str | None:
        """A base-class chain -> project class qualname, if resolvable."""
        mod = self.modules[module]
        if len(chain) == 1:
            name = chain[0]
            local = self._module_classes.get((module, name))
            if local is not None:
                return local
            origin = mod.imports.from_import(name)
            if origin is not None:
                qual = f"{origin[0]}.{origin[1]}"
                return qual if qual in self.classes else None
            return None
        root_module = mod.imports.module_of(chain[0])
        if root_module is not None:
            qual = f"{root_module}.{chain[-1]}"
            return qual if qual in self.classes else None
        origin = mod.imports.from_import(chain[0])
        if origin is not None and len(chain) == 2:
            qual = f"{origin[0]}.{origin[1]}.{chain[1]}"
            return qual if qual in self.classes else None
        return None

    # -- public lookups --------------------------------------------------

    def module_function(self, module: str, name: str) -> str | None:
        return self._module_functions.get((module, name))

    def methods_named(self, name: str) -> set[str]:
        return set(self._methods_named.get(name, ()))

    def subclasses_of(self, cls_qual: str) -> set[str]:
        """All transitive project subclasses of ``cls_qual``."""
        out: set[str] = set()
        frontier = [cls_qual]
        while frontier:
            current = frontier.pop()
            for sub in self._subclasses.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    frontier.append(sub)
        return out

    def ancestors_of(self, cls_qual: str) -> list[str]:
        """Project ancestor classes of ``cls_qual``, nearest first."""
        out: list[str] = []
        frontier = [cls_qual]
        while frontier:
            current = frontier.pop(0)
            info = self.classes.get(current)
            if info is None:
                continue
            for chain in info.base_chains:
                base = self._resolve_class_chain(info.module, chain)
                if base is not None and base not in out:
                    out.append(base)
                    frontier.append(base)
        return out

    def resolve_method(self, cls_qual: str, name: str) -> set[str]:
        """``self.name`` targets: own/ancestor def + subclass overrides."""
        targets: set[str] = set()
        for candidate in [cls_qual, *self.ancestors_of(cls_qual)]:
            info = self.classes.get(candidate)
            if info is not None and name in info.methods:
                targets.add(info.methods[name])
                break
        for sub in self.subclasses_of(cls_qual):
            info = self.classes.get(sub)
            if info is not None and name in info.methods:
                targets.add(info.methods[name])
        return targets

    def resolve_function_ref(self, module: str, name: str) -> str | None:
        """A bare name used as a *function value* -> qualname, if known.

        Resolves module locals first, then from-imports.  Used for
        worker-entry detection (``run_shards(worker_fn, ...)``).
        """
        local = self._module_functions.get((module, name))
        if local is not None:
            return local
        mod = self.modules.get(module)
        if mod is None:
            return None
        origin = mod.imports.from_import(name)
        if origin is not None:
            qual = f"{origin[0]}.{origin[1]}"
            if qual in self.functions:
                return qual
        return None

    def iter_calls(
        self, fn: FunctionInfo
    ) -> Iterator[ast.Call]:
        """Every call expression in ``fn`` (including nested defs).

        Nested functions and lambdas are not first-class nodes in the
        project model; their bodies execute on behalf of the enclosing
        function, so their calls count as the encloser's.
        """
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                yield node

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> set[str]:
        """Project functions one call expression may dispatch to."""
        return self._resolve_call(fn, call)

    # -- call-graph construction ----------------------------------------

    def _build_calls(self) -> None:
        for fn in self.functions.values():
            edges: set[str] = set()
            for call in self.iter_calls(fn):
                edges.update(self._resolve_call(fn, call))
            edges.discard(fn.qualname)
            self.calls[fn.qualname] = edges

    def _resolve_call(self, fn: FunctionInfo, call: ast.Call) -> set[str]:
        chain = attr_chain(call.func)
        if not chain:
            return set()
        module = fn.module
        if len(chain) == 1:
            name = chain[0]
            local = self._module_functions.get((module, name))
            if local is not None:
                return {local}
            cls = self._module_classes.get((module, name))
            if cls is None:
                origin = self.modules[module].imports.from_import(name)
                if origin is not None:
                    qual = f"{origin[0]}.{origin[1]}"
                    if qual in self.functions:
                        return {qual}
                    if qual in self.classes:
                        cls = qual
            if cls is not None:
                init = self.classes[cls].methods.get("__init__")
                return {init} if init else set()
            return set()
        root = chain[0]
        if root == "self" and fn.cls is not None and len(chain) == 2:
            targets = self.resolve_method(fn.cls, chain[1])
            if targets:
                return targets
        mod_alias = self.modules[module].imports.module_of(root)
        origin = self.modules[module].imports.from_import(root)
        target_module: str | None = None
        if mod_alias is not None and mod_alias in self.modules:
            target_module = mod_alias
        elif origin is not None:
            candidate = f"{origin[0]}.{origin[1]}"
            if candidate in self.modules:
                target_module = candidate
        if target_module is not None:
            if len(chain) == 2:
                local = self._module_functions.get((target_module, chain[1]))
                if local is not None:
                    return {local}
                cls = self._module_classes.get((target_module, chain[1]))
                if cls is not None:
                    init = self.classes[cls].methods.get("__init__")
                    return {init} if init else set()
                return set()
            if len(chain) == 3:
                cls = self._module_classes.get((target_module, chain[1]))
                if cls is not None:
                    method = self.classes[cls].methods.get(chain[2])
                    return {method} if method else set()
            return set()
        # Unknown receiver: duck-typed method-name matching.
        return self.methods_named(chain[-1])


def build_project(modules: Mapping[str, tuple[str, str]]) -> ProjectModel:
    """Parse ``{module_name: (display_path, source)}`` into one model.

    Files that do not parse are skipped here — Tier A already reports
    SYNTAX findings per file, and a Tier-C run over a broken tree
    should degrade to analyzing the modules it *can* see.
    """
    infos: dict[str, ModuleInfo] = {}
    for name, (path, source) in modules.items():
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        infos[name] = ModuleInfo(
            name=name,
            ctx=ModuleContext(path=path, module=name, source=source),
            tree=tree,
            imports=collect_imports(tree),
        )
    return ProjectModel(infos)


def reachable(
    calls: Mapping[str, set[str]], roots: set[str]
) -> dict[str, tuple[str, ...]]:
    """BFS over the call graph: reached qualname -> witness call chain.

    The witness chain starts at the entry root and ends at the reached
    function (inclusive); roots witness themselves.  BFS order makes
    the witness a *shortest* chain, and processing roots in sorted
    order makes the choice deterministic.
    """
    paths: dict[str, tuple[str, ...]] = {}
    frontier: list[str] = []
    for root in sorted(roots):
        if root not in paths:
            paths[root] = (root,)
            frontier.append(root)
    while frontier:
        nxt: list[str] = []
        for current in frontier:
            for callee in sorted(calls.get(current, ())):
                if callee not in paths:
                    paths[callee] = paths[current] + (callee,)
                    nxt.append(callee)
        frontier = nxt
    return paths
