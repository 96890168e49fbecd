"""Small AST helpers shared by the Tier-A lint rules.

Nothing here is a full type inferencer — the rules only need a few
cheap, conservative facts about a module:

* which local names alias which *modules* (``import numpy as np`` makes
  ``np`` alias ``numpy``), and which names were from-imported from
  which module;
* which names are *set-typed* inside a scope (annotated ``set[...]``,
  or assigned a set literal / comprehension / ``set()`` call), with a
  flow-insensitive "ever a set" approximation;
* attribute-chain rendering (``np.random.default_rng`` ->
  ``("np", "random", "default_rng")``).

The helpers are pure functions over AST nodes plus one
:class:`ImportMap`, so every rule consumes them unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "ImportMap",
    "SetNames",
    "attr_chain",
    "collect_imports",
    "is_set_expr",
    "iter_scopes",
    "set_names_in",
    "walk_scope",
]


def walk_scope(scope_node: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope without descending into nested function bodies.

    Nested functions are their own scopes (with their own set-name
    tables); lambdas and comprehensions stay in the enclosing scope.
    """
    stack: list[ast.AST] = [scope_node]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def attr_chain(node: ast.AST) -> tuple[str, ...]:
    """Dotted name parts of a Name/Attribute chain, or ``()`` if other.

    ``a.b.c`` -> ``("a", "b", "c")``; anything rooted at a call or
    subscript yields ``()`` (the rules treat it as unknown).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


@dataclass
class ImportMap:
    """Name bindings introduced by a module's import statements."""

    #: local alias -> imported module ("np" -> "numpy").
    modules: dict[str, str] = field(default_factory=dict)
    #: from-imported local name -> (module, original name).
    names: dict[str, tuple[str, str]] = field(default_factory=dict)

    def module_of(self, alias: str) -> str | None:
        return self.modules.get(alias)

    def from_import(self, name: str) -> tuple[str, str] | None:
        return self.names.get(name)

    def aliases_of(self, module: str) -> set[str]:
        """All local aliases bound to ``module`` (``import m as a``)."""
        return {a for a, m in self.modules.items() if m == module}


def collect_imports(tree: ast.Module) -> ImportMap:
    """Imports anywhere in the module (including function bodies)."""
    imports = ImportMap()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    imports.modules[a.asname] = a.name
                else:
                    # ``import a.b.c`` binds ``a`` to the package ``a``.
                    top = a.name.split(".")[0]
                    imports.modules[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name != "*":
                    imports.names[a.asname or a.name] = (node.module, a.name)
    return imports


def iter_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    chain = attr_chain(target)
    return bool(chain) and chain[-1] in _SET_ANNOTATIONS


class SetNames:
    """Names known (flow-insensitively) to hold sets within one scope."""

    def __init__(self, names: set[str]) -> None:
        self.names = names

    def __contains__(self, name: str) -> bool:
        return name in self.names


def set_names_in(scope_body: list[ast.stmt], scope_node: ast.AST) -> SetNames:
    """Conservatively collect set-typed names in one scope.

    A name counts as a set if it is ever annotated as one, assigned a
    set literal / set comprehension / ``set()`` / ``frozenset()`` call,
    or is a parameter annotated as a set.  Only statements *directly in*
    this scope are inspected (nested functions are separate scopes).
    """
    names: set[str] = set()
    if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope_node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if _annotation_is_set(arg.annotation):
                names.add(arg.arg)

    def visit(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate scope
            if isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and _annotation_is_set(
                    stmt.annotation
                ):
                    names.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                if _value_is_set(stmt.value, names):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            # recurse into compound statements of the same scope
            for child_body in _sub_bodies(stmt):
                visit(child_body)

    visit(scope_body)
    return SetNames(names)


def _sub_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def _value_is_set(value: ast.expr, known: set[str]) -> bool:
    return is_set_expr(value, SetNames(known))


def is_set_expr(node: ast.expr, sets: SetNames) -> bool:
    """Whether an expression statically evaluates to a ``set``.

    Recognizes set literals, set comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls, names known to be sets, set-producing
    binary operators (``|``, ``&``, ``-``, ``^``) over set expressions,
    and ``.union/.intersection/.difference/...`` method calls on sets.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in sets
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain in (("set",), ("frozenset",)):
            return True
        if (
            len(chain) >= 2
            and chain[-1]
            in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            }
            and isinstance(node.func, ast.Attribute)
            and is_set_expr(node.func.value, sets)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # The left operand decides: ``set - x`` / ``set | x`` are sets,
        # while ``int - int`` never is.
        return is_set_expr(node.left, sets)
    return False
