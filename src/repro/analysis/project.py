"""Project loading: parse every module under a root, once.

Rules never touch the filesystem themselves — they read parsed
:class:`Module` objects out of an :class:`AnalysisContext`, keyed by
POSIX relpath (``"sweep/report.py"``). That keeps cross-module rules
cheap (RPR011 follows box declarations and owned classes across
modules), and lets the test suite point the whole engine at a fixture
tree that mimics the package layout.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.astutil import attach_parents
from repro.utils.errors import DataError

SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".pytest_cache"})


@dataclass(frozen=True)
class Module:
    """One parsed source file."""

    path: str
    """Absolute filesystem path (for error messages only)."""
    relpath: str
    """POSIX path relative to the scan root — the identity rules use."""
    source: str
    tree: ast.Module = field(repr=False)

    @property
    def lines(self) -> "list[str]":
        return self.source.splitlines()


@dataclass
class AnalysisContext:
    """Everything a rule may look at: the parsed project."""

    root: str
    modules: "dict[str, Module]" = field(default_factory=dict)

    def get(self, relpath: str) -> "Module | None":
        """The module at ``relpath``, or ``None`` when absent.

        Rules that look a module up by path skip it silently when it
        is absent from the scanned tree — that is what lets fixture
        trees exercise one rule at a time.
        """
        return self.modules.get(relpath)

    def walk(self) -> "Iterator[Module]":
        """All modules, sorted by relpath (deterministic rule order)."""
        for relpath in sorted(self.modules):
            yield self.modules[relpath]


def iter_python_files(root: str) -> "Iterator[tuple[str, str]]":
    """Yield ``(abspath, posix relpath)`` for every ``.py`` under root."""
    root = os.path.abspath(root)
    if os.path.isfile(root):
        yield root, os.path.basename(root)
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            yield path, rel


def load_project(root: str) -> AnalysisContext:
    """Parse every Python file under ``root`` into a context.

    A file that does not parse is a :class:`DataError` naming the file
    and the syntax error — an unparseable tree cannot be certified
    clean, so the check must fail loudly, not skip it.
    """
    root = os.path.abspath(root)
    if not os.path.exists(root):
        raise DataError(f"no such path to check: {root!r}")
    ctx = AnalysisContext(root=root)
    for path, relpath in iter_python_files(root):
        with open(path, encoding="utf-8") as f:
            source = f.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise DataError(
                f"cannot parse {relpath}: {exc.msg} (line {exc.lineno})"
            ) from None
        attach_parents(tree)
        ctx.modules[relpath] = Module(
            path=path, relpath=relpath, source=source, tree=tree
        )
    if not ctx.modules:
        raise DataError(f"no Python files found under {root!r}")
    return ctx
