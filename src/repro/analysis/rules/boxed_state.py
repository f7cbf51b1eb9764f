"""RPR011: shared state lives in a box, and every region is a leaf.

A class that threads share keeps what it changes after construction in
one :class:`~repro.utils.guarded.Guarded` record, reached only inside
``with self._box as state:`` (a *region*). Outside its constructor, a
class in a module that imports ``threading``, ``socket``, ``queue``,
``http.server`` or ``repro.utils.guarded``, or a class that such a
class constructs onto an attribute, writes nothing through ``self``
but a thread handle: the defect this catches is a field like
``Heartbeat._last_error`` assigned unguarded from a second thread. No
lock is built outside ``utils/guarded.py``. A region enters no other
``with``, calls no project code but its box's ``wait``/``notify_all``,
makes no blocking call, and lets neither its record nor a container
field of it outlive it. A leaf region never holds its lock while other
code runs, so no lock-order cycle or blocking under a lock can arise,
with no call graph.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.astutil import (
    ancestors,
    dotted_parts,
    import_aliases,
    resolve_call,
    walk_calls,
)
from repro.analysis.base import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import AnalysisContext, Module

THREADED_IMPORTS = frozenset({
    "threading", "socket", "queue", "http.server", "repro.utils.guarded",
})
GUARDED = "repro.utils.guarded.Guarded"
GUARDED_MODULE = "utils/guarded.py"
CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})
LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})
#: In-place container mutators: ``self._pending.extend(...)`` writes
#: ``_pending``. Queue ``put`` is not one: a queue synchronizes itself.
MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "pop", "popitem", "clear",
    "remove", "discard", "insert", "setdefault",
})
#: Blocking calls: canonical targets and prefixes, the project's
#: frame-I/O wrappers, and methods that block whatever the receiver
#: (``wait`` on the held box is the one exception).
BLOCKING_CANONICAL = frozenset({
    "time.sleep", "select.select", "socket.create_connection", "os.system",
    "os.wait", "os.waitpid", "subprocess.Popen", "subprocess.run",
    "subprocess.call", "subprocess.check_call", "subprocess.check_output",
})
BLOCKING_PREFIXES = ("numpy.linalg.", "scipy.linalg.", "scipy.sparse.linalg.")
BLOCKING_NAMES = frozenset({
    "send_frame", "recv_frame", "connect_authenticated", "client_handshake",
    "server_handshake", "ping", "recv", "recv_into", "accept", "sendall",
    "makefile", "connect", "wait", "acquire",
})
#: Field annotations a copy of which may outlive its region.
IMMUTABLE_TYPES = frozenset({
    "int", "float", "bool", "str", "bytes", "None", "tuple", "frozenset",
})

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(body: "Iterable[ast.AST]") -> Iterator[ast.AST]:
    """Every node under ``body``, not descending into nested scopes."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _self_attr(node: ast.expr) -> "str | None":
    """``"x"`` for ``self.x``, ``self.x[k]``, ``self.x.y``; else None."""
    attr = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
        node = node.value
    is_self = isinstance(node, ast.Name) and node.id == "self"
    return attr if is_self else None


def _annotation(node: "ast.expr | None") -> "ast.expr | None":
    """``node``, with a string annotation parsed."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ast.parse(node.value, mode="eval").body
    return node


def _immutable(node: "ast.expr | None") -> bool:
    node = _annotation(node)
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _immutable(node.left) and _immutable(node.right)
    if isinstance(node, ast.Constant):
        return node.value is None
    return isinstance(node, ast.Name) and node.id in IMMUTABLE_TYPES


def _imports_threads(module: Module) -> bool:
    return any(
        THREADED_IMPORTS.intersection([a.name for a in node.names])
        if isinstance(node, ast.Import)
        else isinstance(node, ast.ImportFrom) and node.module in THREADED_IMPORTS
        for node in ast.walk(module.tree)
    )


def _constructor_binds(
    cls: ast.ClassDef,
) -> "Iterator[tuple[str, ast.expr, ast.expr | None]]":
    """``(attr, value, annotation)`` per ``self.attr = value`` in the
    class's constructors."""
    for method in cls.body:
        if not (isinstance(method, _DEFS) and method.name in CONSTRUCTORS):
            continue
        for node in _own_nodes(method.body):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            ann = node.annotation if isinstance(node, ast.AnnAssign) else None
            for target in targets:
                direct = isinstance(target, ast.Attribute) and (
                    _self_attr(target) == target.attr
                )
                if direct and node.value is not None:
                    yield target.attr, node.value, ann


class _Project:
    """Classes by name, and the boxes their constructors declare."""

    def __init__(self, ctx: AnalysisContext) -> None:
        self.aliases = {m.relpath: import_aliases(m.tree) for m in ctx.walk()}
        self.pairs = [
            (module, stmt) for module in ctx.walk()
            for stmt in module.tree.body if isinstance(stmt, ast.ClassDef)
        ]
        self.classes: "dict[str, list[tuple[Module, ast.ClassDef]]]" = {}
        for module, cls in self.pairs:
            self.classes.setdefault(cls.name, []).append((module, cls))
        #: (class, box attribute) -> {record field: immutable}, or None
        #: unless the attribute is annotated ``Guarded[<Record>]`` with
        #: the record declared in the same module.
        self.boxes: "dict[tuple[str, str], dict[str, bool] | None]" = {}
        for module, cls in self.pairs:
            local = {
                s.name: s for s in module.tree.body
                if isinstance(s, ast.ClassDef)
            }
            for attr, value, ann in _constructor_binds(cls):
                if self.resolve(module, value) != GUARDED:
                    continue
                ann = _annotation(ann)
                parts = (
                    dotted_parts(ann.slice)
                    if isinstance(ann, ast.Subscript) else None
                )
                record = local.get(parts[-1]) if parts else None
                self.boxes[(cls.name, attr)] = None if record is None else {
                    s.target.id: _immutable(s.annotation)
                    for s in record.body
                    if isinstance(s, ast.AnnAssign)
                    and isinstance(s.target, ast.Name)
                }
        self.box_attrs = {attr for _, attr in self.boxes}

    def resolve(self, module: Module, expr: ast.expr) -> "str | None":
        if not isinstance(expr, ast.Call):
            return None
        return resolve_call(expr, self.aliases[module.relpath])

    def covered(self) -> "list[tuple[Module, ast.ClassDef]]":
        """The classes the write check covers, in source order."""
        todo = [pair for pair in self.pairs if _imports_threads(pair[0])]
        seen: "dict[tuple[str, int], tuple[Module, ast.ClassDef]]" = {}
        while todo:
            module, cls = todo.pop()
            if (module.relpath, cls.lineno) in seen:
                continue
            seen[(module.relpath, cls.lineno)] = (module, cls)
            for _, value, _ in _constructor_binds(cls):
                parts = (
                    dotted_parts(value.func)
                    if isinstance(value, ast.Call) else None
                )
                if parts:
                    todo.extend(self.classes.get(parts[-1], ()))
        return [seen[key] for key in sorted(seen)]


@register_rule
class BoxedStateRule(Rule):
    code = "RPR011"
    name = "boxed-state"
    severity = Severity.ERROR
    summary = (
        "threaded classes change state only inside a Guarded region; "
        "regions are leaves, and locks are built only in utils/guarded.py"
    )

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        project = _Project(ctx)
        for module, cls in project.covered():
            yield from self._writes(module, cls, project)
        for module in ctx.walk():
            if not ("/" + module.relpath).endswith("/" + GUARDED_MODULE):
                for call in walk_calls(module.tree):
                    built = project.resolve(module, call)
                    if built in LOCK_FACTORIES:
                        yield self.finding(
                            module.relpath, call.lineno, call.col_offset,
                            f"'{built}()' builds a lock outside "
                            f"{GUARDED_MODULE}; keep the state it would "
                            "guard in a Guarded box",
                        )
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        box = item.context_expr
                        if (
                            isinstance(box, ast.Attribute)
                            and box.attr in project.box_attrs
                        ):
                            yield from self._region(
                                module, project, node, item, box
                            )

    def _writes(
        self, module: Module, cls: ast.ClassDef, project: _Project
    ) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(method, _DEFS) or method.name in CONSTRUCTORS:
                continue
            for node in ast.walk(method):
                if isinstance(node, (ast.Attribute, ast.Subscript)):
                    if not isinstance(node.ctx, (ast.Store, ast.Del)):
                        continue
                    parent = getattr(node, "parent", None)
                    if (
                        isinstance(parent, (ast.Assign, ast.AnnAssign))
                        and parent.value is not None
                        and project.resolve(module, parent.value)
                        == "threading.Thread"
                    ):
                        continue  # a thread handle
                    target: ast.expr = node
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                ):
                    target = node.func.value
                else:
                    continue
                attr = _self_attr(target)
                if attr is not None:
                    yield self.finding(
                        module.relpath, node.lineno, node.col_offset,
                        f"'{cls.name}.{attr}' is written outside the "
                        "constructor; keep state that changes after "
                        "construction in a Guarded record and change it "
                        "inside a region",
                    )

    def _region(
        self,
        module: Module,
        project: _Project,
        region: "ast.With | ast.AsyncWith",
        item: ast.withitem,
        box: ast.Attribute,
    ) -> Iterator[Finding]:
        label = ast.unparse(box)
        aliases = project.aliases[module.relpath]
        local_defs = {
            s.name for s in module.tree.body if isinstance(s, _DEFS)
        }
        for node in _own_nodes(region.body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                yield self.finding(
                    module.relpath, node.lineno, node.col_offset,
                    f"the region of '{label}' enters another box or "
                    "context manager; a region must be a leaf",
                )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("wait", "notify_all")
                and ast.dump(func.value) == ast.dump(box)
            ):
                continue  # the held box's own condition
            reason = _forbidden_call(node, aliases, local_defs)
            if reason is not None:
                yield self.finding(
                    module.relpath, node.lineno, node.col_offset,
                    f"the region of '{label}' {reason}; do it outside "
                    "the region",
                )
        if not isinstance(item.optional_vars, ast.Name):
            return
        # The record, or a container field of it, must not outlive the
        # region by a return or by an alias used after the region.
        state = item.optional_vars.id
        owner = next(
            (a.name for a in ancestors(region) if isinstance(a, ast.ClassDef)),
            "",
        )
        fields: "dict[str, bool] | None" = None
        if isinstance(box.value, ast.Name) and box.value.id == "self":
            fields = project.boxes.get((owner, box.attr))

        def shares(expr: "ast.expr | None") -> bool:
            if isinstance(expr, ast.Name):
                return expr.id == state
            if isinstance(expr, ast.Attribute) and isinstance(
                expr.value, ast.Name
            ) and expr.value.id == state:
                return not (fields or {}).get(expr.attr, False)
            if isinstance(expr, (ast.Tuple, ast.List)):
                return any(shares(e) for e in expr.elts)
            if isinstance(expr, ast.Dict):
                return any(shares(v) for v in expr.values)
            return False

        names = {state}
        for node in _own_nodes(region.body):
            if isinstance(node, ast.Return):
                if shares(node.value):
                    yield self.finding(
                        module.relpath, node.lineno, node.col_offset,
                        f"the region of '{label}' hands out its record "
                        "or a container of it; copy what the caller "
                        "needs inside the region",
                    )
            elif isinstance(node, ast.Assign) and shares(node.value):
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        scope = next(
            (a for a in ancestors(region) if isinstance(a, _SCOPES)), None
        )
        later = sorted(
            (
                n for n in _own_nodes(getattr(scope, "body", []))
                if isinstance(n, ast.Name) and n.id in names
                and isinstance(n.ctx, ast.Load)
                and n.lineno > (region.end_lineno or region.lineno)
                and not _rebound(n)
            ),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for name in sorted(names):
            use = next((n for n in later if n.id == name), None)
            if use is not None:
                yield self.finding(
                    module.relpath, use.lineno, use.col_offset,
                    f"'{name}' shares the record of '{label}' and is "
                    "used after its region ends",
                )


def _rebound(name: ast.Name) -> bool:
    """Whether ``name`` sits in a later region binding it anew."""
    return any(
        isinstance(item.optional_vars, ast.Name)
        and item.optional_vars.id == name.id
        for anc in ancestors(name) if isinstance(anc, (ast.With, ast.AsyncWith))
        for item in anc.items
    )


def _forbidden_call(
    call: ast.Call, aliases: "dict[str, str]", local_defs: "set[str]"
) -> "str | None":
    """Why a region may not make ``call``, or None."""
    canonical = resolve_call(call, aliases) or ""
    parts = dotted_parts(call.func) or ("",)
    if canonical in BLOCKING_CANONICAL or parts[-1] in BLOCKING_NAMES:
        return f"calls '{canonical or parts[-1]}', which blocks"
    if canonical.startswith(BLOCKING_PREFIXES):
        return f"runs dense linear algebra '{canonical}'"
    target = aliases.get(parts[0], "") + "."
    if parts[0] in local_defs | {"self"} or target.startswith("repro."):
        return f"calls '{'.'.join(parts)}', which is project code"
    return None
