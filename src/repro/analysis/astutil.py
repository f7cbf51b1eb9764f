"""Shared AST plumbing used by the rules.

Capabilities every rule needs and :mod:`ast` does not provide:

* **canonical call names** — resolving ``t()`` / ``np.random.rand()`` /
  ``datetime.now()`` through the module's import aliases to
  ``time.time`` / ``numpy.random.rand`` / ``datetime.datetime.now``;
* **parent links and enclosing scopes** — which function/class a node
  sits in, and which statements follow it in source order.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

# ----------------------------------------------------------------------
# Parent links / scopes
# ----------------------------------------------------------------------

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def attach_parents(tree: ast.AST) -> None:
    """Set ``node.parent`` on every node (the tree is parsed per-run)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> "ast.AST | None":
    return getattr(node, "parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """The node's parents, innermost first."""
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)


def enclosing_function(node: ast.AST) -> "ast.AST | None":
    """The nearest enclosing (async) function def, or ``None``."""
    for anc in ancestors(node):
        if isinstance(anc, _FUNC_NODES):
            return anc
    return None


def enclosing_class(node: ast.AST) -> "ast.ClassDef | None":
    """The nearest enclosing class def, or ``None``."""
    for anc in ancestors(node):
        if isinstance(anc, ast.ClassDef):
            return anc
    return None


def class_method_names(cls: ast.ClassDef) -> "set[str]":
    return {
        stmt.name for stmt in cls.body if isinstance(stmt, _FUNC_NODES)
    }


def function_statements(func: ast.AST) -> "list[ast.stmt]":
    """Every statement inside ``func`` in source order.

    Descends into compound statements (``if``/``try``/``with``/loops)
    but *not* into nested function or class definitions — those are
    separate ownership scopes.
    """
    out: "list[ast.stmt]" = []

    def visit(body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            out.append(stmt)
            if isinstance(stmt, (*_FUNC_NODES, ast.ClassDef)):
                continue
            for field in (
                "body", "orelse", "finalbody",
            ):
                visit(getattr(stmt, field, ()) or ())
            for handler in getattr(stmt, "handlers", ()) or ():
                visit(handler.body)

    visit(func.body)
    return out


def statements_after(func: ast.AST, stmt: ast.stmt) -> "list[ast.stmt]":
    """Statements of ``func`` that follow ``stmt`` in source order."""
    stmts = function_statements(func)
    try:
        idx = stmts.index(stmt)
    except ValueError:
        return []
    return stmts[idx + 1:]


# ----------------------------------------------------------------------
# Import aliases and canonical call names
# ----------------------------------------------------------------------

def import_aliases(tree: ast.Module) -> "dict[str, str]":
    """Map local names to the canonical dotted names they import.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from datetime
    import datetime`` → ``{"datetime": "datetime.datetime"}``; plain
    ``import time`` → ``{"time": "time"}``. Relative imports are
    project-internal and skipped.
    """
    aliases: "dict[str, str]" = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_parts(node: ast.expr) -> "tuple[str, ...] | None":
    """``("np", "random", "rand")`` for ``np.random.rand``; ``None`` when
    the expression is not a plain name/attribute chain."""
    parts: "list[str]" = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return tuple(reversed(parts))


def resolve_call(call: ast.Call, aliases: "dict[str, str]") -> "str | None":
    """Canonical dotted name of the call target, or ``None``.

    Only chains rooted in an imported name resolve (a method call on a
    local object has no canonical module path); the bare builtins
    ``open``/``print``/... resolve to their own name.
    """
    parts = dotted_parts(call.func)
    if parts is None:
        return None
    base, rest = parts[0], parts[1:]
    if base in aliases:
        return ".".join((aliases[base], *rest))
    if not rest:
        return base  # builtin or module-local function call
    return None


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
