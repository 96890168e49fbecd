"""Result keys: the recipe that names a result by what made it.

A result is a deterministic function of (model code, graph contents,
workload, configuration, root set, execution model), and its key is a
SHA-256 over exactly those parts (:func:`make_key`), assembled by
:meth:`repro.core.backend.Backend.cache_key`.  The disk cache
(:mod:`repro.cache`) and the experiment store both look results up by
that key.

The model code enters as :func:`model_digest`: a hash of the syntax
trees of every ``repro`` module in the static import closure of
``repro.core.backends``.  This module imports no ``repro`` module, so
it is the only key code inside that closure, and the disk cache is
outside it: an edit to the cache re-keys nothing.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterable

import numpy as np

__all__ = [
    "atomic_write",
    "cache_dir",
    "make_key",
    "model_digest",
    "roots_fingerprint",
]


def cache_dir() -> Path:
    """Resolve the cache directory (without creating it)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def roots_fingerprint(roots: Iterable[int] | None) -> str:
    """Hash of the *entire* root array (``"all"`` for the full-graph
    default).

    Summaries like ``(len, first, last)`` collide between different root
    sets and silently return the wrong memoized result; hashing the full
    array cannot.
    """
    if roots is None:
        return "all"
    arr = np.asarray(list(roots), dtype=np.int64)
    h = hashlib.sha256(arr.tobytes())
    return f"{arr.size}:{h.hexdigest()}"


def make_key(**parts: Any) -> str:
    """Canonical cache key: SHA-256 over sorted ``repr``-rendered parts.

    Every value must render deterministically (strings, numbers, and
    dataclass ``repr``s do).
    """
    canon = [f"{name}={parts[name]!r}" for name in sorted(parts)]
    return hashlib.sha256("\x1f".join(canon).encode("utf-8")).hexdigest()


#: Where :func:`model_digest`'s import walk starts: the module holding
#: the four built-in backends reaches every model module from here.
_MODEL_ROOT = "repro.core.backends"


def _module_path(package: Path, module: str) -> Path | None:
    """Source file of ``module`` under the ``repro`` package directory
    ``package``; ``None`` if it names no module (an imported name that
    is not a submodule)."""
    base = package.joinpath(*module.split(".")[1:])
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _statements(body: list) -> Iterable[ast.AST]:
    """Every statement of ``body`` and of the blocks nested in it.

    Imports and docstrings are statements, never inside an expression,
    so this sees them all while skipping the expression nodes that a
    full ``ast.walk`` would visit.
    """
    for node in body:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from _statements(getattr(node, block, ()))


def _import_specs(tree: ast.Module) -> list[list]:
    """Every ``repro`` import of a tree, at any nesting depth, as
    ``[module, names]``: ``names`` is ``None`` for ``import module``
    and the imported names for ``from module import ...``."""
    def ours(name: str | None) -> bool:
        return (name or "").partition(".")[0] == "repro"

    specs: list[list] = []
    for node in _statements(tree.body):
        if isinstance(node, ast.Import):
            specs += [[a.name, None] for a in node.names if ours(a.name)]
        elif isinstance(node, ast.ImportFrom) and ours(node.module):
            specs.append([node.module, [a.name for a in node.names]])
    return specs


def _repro_imports(package: Path, specs: list[list]) -> list[str]:
    """The modules of ``package`` that :func:`_import_specs` names.

    ``from repro.p import a, b`` names the submodules ``repro.p.a`` and
    ``repro.p.b`` where they exist, and the package ``repro.p`` itself
    only when some imported name is not a submodule.
    """
    found = []
    for module, names in specs:
        if names is None:
            found.append(module)
            continue
        subs = [f"{module}.{a}" for a in names]
        subs = [m for m in subs if _module_path(package, m) is not None]
        if len(subs) < len(names):
            found.append(module)
        found += subs
    return found


#: Per node class, the fields :func:`_canonical` renders, in order.
_FIELDS: dict[type, tuple[str, ...]] = {}


def _canonical(node: ast.AST) -> str:
    """Text of a syntax (sub)tree: node types and field values, without
    source positions.

    The text is the same on every supported Python, where ``ast.dump``
    and ``ast.unparse`` are not: they render one tree differently on
    3.10, 3.11 and 3.12.  ``None`` and empty-list fields are left out
    because newer interpreters add fields that older ones lack
    (``type_params``).
    """
    parts: list[str] = []
    emit = parts.append

    def render(node: ast.AST) -> None:
        cls = node.__class__
        names = _FIELDS.get(cls)
        if names is None:
            names = _FIELDS[cls] = tuple(
                n for n in cls._fields if n not in ("kind", "type_comment")
            )
        emit(cls.__name__ + "(")
        sep = ""
        for name in names:
            value = getattr(node, name, None)
            if value is None or value == []:
                continue
            if value.__class__ is list:
                emit(sep + name + "=[")
                item_sep = ""
                for item in value:
                    emit(item_sep)
                    if isinstance(item, ast.AST):
                        render(item)
                    else:
                        emit(repr(item))
                    item_sep = ", "
                emit("]")
            elif isinstance(value, ast.AST):
                emit(sep + name + "=")
                render(value)
            else:
                emit(sep + name + "=" + repr(value))
            sep = ", "
        emit(")")

    render(node)
    return "".join(parts)


def _normalized(tree: ast.Module) -> str:
    """:func:`_canonical` of ``tree`` without its docstrings: comments,
    docstrings and formatting drop out while every executable token
    stays."""
    for node in [tree, *_statements(tree.body)]:
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:]
    return _canonical(tree)


#: File in the cache directory memoizing each closure module's facts
#: (see :func:`_closure_digest`).  Not an entry: without the ``.pkl``
#: suffix, ``entries``, ``clear`` and ``doctor`` never see it.
_DIGEST_MEMO = "model-digest-memo.json"
_DIGEST_MEMO_FORMAT = 1


def _memo_salt() -> bytes:
    """What a module's facts depend on besides its bytes: the code that
    derives them (this file) and the parser's Python version."""
    version = "{}.{}".format(*sys.version_info[:2]).encode("ascii")
    return hashlib.sha256(version + Path(__file__).read_bytes()).digest()


def _closure_digest(package: Path, memo: dict | None = None) -> str:
    """SHA-256 over the normalized source of every module in the static
    import closure of :data:`_MODEL_ROOT` under ``package``, hashed one
    module at a time and combined in module-name order.

    ``memo`` maps the SHA-256 of a module's bytes (salted by
    :func:`_memo_salt`) to its facts, ``[normalized digest, import
    specs]``; parsing a module is most of the cost, and a memo hit
    skips it.  On return ``memo`` holds exactly the closure's facts.
    """
    salt = _memo_salt()
    known = dict(memo or {})
    used: dict[str, list] = {}
    modules: dict[str, str] = {}
    todo = [_MODEL_ROOT]
    while todo:
        module = todo.pop()
        path = None if module in modules else _module_path(package, module)
        if path is None:
            continue
        data = path.read_bytes()
        key = hashlib.sha256(salt + data).hexdigest()
        facts = used[key] = known.get(key) or _module_facts(data)
        modules[module] = facts[0]
        todo += _repro_imports(package, facts[1])
    if memo is not None:
        memo.clear()
        memo.update(used)
    canon = "".join(f"{m} {h}\n" for m, h in sorted(modules.items()))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _module_facts(data: bytes) -> list:
    """``[normalized digest, import specs]`` of one module's source."""
    tree = ast.parse(data)
    specs = _import_specs(tree)
    text = _normalized(tree).encode("utf-8")
    return [hashlib.sha256(text).hexdigest(), specs]


def _is_digest(value: object) -> bool:
    return (
        isinstance(value, str) and len(value) == 64
        and all(c in "0123456789abcdef" for c in value)
    )


def _is_module_name(value: object) -> bool:
    return isinstance(value, str) and all(
        part.isidentifier() for part in value.split(".")
    )


def _valid_facts(key: object, facts: object) -> bool:
    if not (_is_digest(key) and isinstance(facts, list) and len(facts) == 2):
        return False
    digest, specs = facts
    return _is_digest(digest) and isinstance(specs, list) and all(
        isinstance(spec, list) and len(spec) == 2
        and _is_module_name(spec[0])
        and (spec[1] is None or (
            isinstance(spec[1], list)
            and all(_is_module_name(n) for n in spec[1])
        ))
        for spec in specs
    )


def _read_memo(path: Path) -> dict:
    """The facts memo at ``path``; empty when it is missing or anything
    in it is malformed, so the digest is recomputed, never trusted."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not (
        isinstance(data, dict)
        and data.get("format") == _DIGEST_MEMO_FORMAT
        and isinstance(data.get("modules"), dict)
        and all(_valid_facts(k, v) for k, v in data["modules"].items())
    ):
        return {}
    return data["modules"]


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename, so
    concurrent writers and crashes never publish a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_memo(path: Path, memo: dict) -> None:
    """Publish the memo; a failure only costs the next process a
    recomputation."""
    text = json.dumps(
        {"format": _DIGEST_MEMO_FORMAT, "modules": memo}, sort_keys=True
    )
    try:
        atomic_write(path, text.encode("utf-8"))
    except OSError:
        pass


@functools.cache
def model_digest() -> str:
    """Identity of the model code: the digest of this package's import
    closure of ``repro.core.backends``, computed on first use and once
    per process.

    :meth:`repro.core.backend.Backend.cache_key` mixes it into every
    result key, so an edit to any of those modules re-keys every cached
    result and every store row, while comment, docstring and formatting
    edits do not.  Each module's parse is memoized across processes in
    :data:`_DIGEST_MEMO` under the cache directory.
    """
    path = cache_dir() / _DIGEST_MEMO
    memo = _read_memo(path)
    before = dict(memo)
    digest = _closure_digest(Path(__file__).resolve().parent, memo)
    if memo != before:
        _write_memo(path, memo)
    return digest
