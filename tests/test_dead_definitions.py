"""Every public module-level definition in ``src/repro`` has a caller.

A definition is reached when other code names it: a name, an attribute
or an imported name anywhere in ``src/repro`` outside the definition
itself, or anywhere under ``examples/``, ``benchmarks/`` or
``perfbench/``. Re-exports in a package ``__init__`` do not count, and
neither do mentions in strings or docstrings. Decorated definitions are
skipped, since a decorator may register them. Names are matched
without their owner, so an attribute with the same name hides a
module-level function: a call of a method ``obj.f()`` counts as a
mention of a function ``f``.

A definition that only tests call is dead code unless the tests keep it
as an oracle; those are listed in :data:`TEST_REFERENCES` with the reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY_DIRS = ("examples", "benchmarks", "perfbench")

TEST_REFERENCES = {
    "held_karp_order": "exact tour the vk-TSP heuristics are checked against",
    "tour_length": "scores the exact and heuristic vk-TSP tours against each other",
    "rescan_bound": "the Eq. 9 full-rescan bound the O(1) cursor bound must track",
    "extension_is_valid": "per-edge extension rule the engine's turn table must equal",
    "turn_delta": "per-junction turn rule the engine's turn table must equal",
    "is_simple_stop_sequence": "route_checks re-checks every planned route with it",
    "local_edge_connectivity": "s-t max flow checked against a brute-force min cut",
    "lanczos_expm_quadrature": "single-vector quadrature the batched kernel must match",
    "path_graph_adjacency": "dense path graph the closed-form path spectrum must match",
    "findings_from_sarif": "reads SARIF back for the checker's round-trip test",
}


def _named(node: ast.AST, reexport: bool) -> Iterator[str]:
    """Names ``node`` refers to; ``reexport`` skips ``from ... import``."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        if reexport:
            return
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _named(child, reexport)


def unreached_definitions() -> dict[str, str]:
    """Public, undecorated module-level definitions nothing else names.

    Maps each name to the path of its module, relative to the repository.
    """
    mentions: Counter[str] = Counter()  # top-level statements naming each
    defined: list[tuple[str, Path, set[str]]] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            names = set(_named(stmt, path.name == "__init__.py"))
            mentions.update(names)
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.decorator_list
                and not stmt.name.startswith("_")
            ):
                defined.append((stmt.name, path, names))
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            mentions.update(set(_named(ast.parse(path.read_text(), str(path)), False)))
    return {
        name: path.relative_to(ROOT).as_posix()
        for name, path, own in defined
        if mentions[name] - (name in own) == 0  # no other statement names it
    }


def test_nothing_but_the_test_references_is_unreached():
    unreached = unreached_definitions()
    extra = {name: path for name, path in unreached.items() if name not in TEST_REFERENCES}
    assert extra == {}
    # A reference that gains a caller, or goes, leaves the list with it.
    assert sorted(unreached) == sorted(TEST_REFERENCES)
