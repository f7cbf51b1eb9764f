"""Thread-entry map: which functions run on which thread.

The lock-discipline rule (RPR006) needs to know, for every function
in the project, the set of *entry identities* it may execute under. An
entry is either ``("main", "")`` — reachable by calling public API from
the importing thread — or ``("thread"|"pool", "<relpath>:<qualname>")``
— reachable because that function is (transitively called from) a
``threading.Thread(target=...)`` target or an ``executor.submit``
callable.

Resolution is deliberately name-and-annotation based, not a real type
system: ``self.m()`` resolves through the class hierarchy (bases *and*
subclasses, so ``FrameServer._handle → handle`` finds every
override), ``x.m()`` resolves only when ``x`` is a parameter annotated
with a project class, a local constructed from one, or a ``self``
attribute assigned from an annotated ``__init__`` parameter. Calls on
unannotated receivers stay unresolved — silence, not guessing, keeps
the map free of false edges.

The model is computed once per :class:`AnalysisContext` and memoised on
it, since every flow rule consumes it: RPR006 for the runs-on sets,
RPR007 and RPR010 for its call resolution and class relations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.astutil import dotted_parts, import_aliases
from repro.analysis.project import AnalysisContext, Module

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

MAIN_ENTRY: "tuple[str, str]" = ("main", "")

#: Constructors whose writes are exempt from lock discipline: the
#: object is not yet shared while they run.
CONSTRUCTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})

#: Attribute types that are themselves synchronization primitives or
#: thread-safe containers; assigning/consuming them is not "shared
#: mutable state" in the RPR006 sense.
SYNC_FACTORY_SUFFIXES = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier", "Queue", "SimpleQueue",
    "LifoQueue", "PriorityQueue",
})

#: The subset that acquires a lock when used as ``with obj:``.
LOCKLIKE_SUFFIXES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                               "BoundedSemaphore"})


@dataclass
class FunctionInfo:
    """One function or method in the scanned project."""

    relpath: str
    qualname: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_name: "str | None"

    @property
    def key(self) -> "tuple[str, str]":
        return (self.relpath, self.qualname)

    @property
    def label(self) -> str:
        return f"{self.relpath}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_public(self) -> bool:
        """Callable as project API from the importing (main) thread."""
        if "<locals>" in self.qualname:
            return False
        name = self.node.name
        if name in CONSTRUCTOR_NAMES:
            return False
        return not name.startswith("_") or (
            name.startswith("__") and name.endswith("__")
        )


@dataclass
class ThreadModel:
    """Functions, call edges, spawn entries, and the runs-on fixpoint."""

    functions: "dict[tuple[str, str], FunctionInfo]" = field(
        default_factory=dict
    )
    #: caller key -> callee keys (project-internal edges only).
    calls: "dict[tuple[str, str], set[tuple[str, str]]]" = field(
        default_factory=dict
    )
    #: function key -> entry identities attached directly (spawn target
    #: or public API).
    direct_entries: "dict[tuple[str, str], set[tuple[str, str]]]" = field(
        default_factory=dict
    )
    #: function key -> full runs-on set after propagation.
    runs_on: "dict[tuple[str, str], frozenset[tuple[str, str]]]" = field(
        default_factory=dict
    )
    #: class name -> related class names ({self} ∪ bases* ∪ subs*).
    related_classes: "dict[str, frozenset[str]]" = field(
        default_factory=dict
    )
    #: (relpath, class name) -> attrs holding lock-like objects.
    lock_attrs: "dict[tuple[str, str], set[str]]" = field(
        default_factory=dict
    )
    #: (relpath, class name) -> attrs holding any sync primitive.
    sync_attrs: "dict[tuple[str, str], set[str]]" = field(
        default_factory=dict
    )
    #: Class names whose *instances* cross thread boundaries: a spawn
    #: target is a bound method, an instance travels in spawn args, or
    #: the class declares a lock-like attribute. Methods of other
    #: classes may *run* on several threads (a worker thread builds its
    #: own TransitNetwork), but their instances are thread-local, so
    #: lock discipline does not apply to them.
    shared_classes: "set[str]" = field(default_factory=set)

    def function_for_node(
        self, relpath: str, node: ast.AST
    ) -> "FunctionInfo | None":
        index = getattr(self, "_by_node", None)
        if index is None:
            index = {
                id(info.node): info for info in self.functions.values()
            }
            self._by_node = index  # type: ignore[attr-defined]
        info = index.get(id(node))
        if info is not None and info.relpath == relpath:
            return info
        return None

    def entries_for(
        self, key: "tuple[str, str]"
    ) -> "frozenset[tuple[str, str]]":
        return self.runs_on.get(key, frozenset())


def thread_model(ctx: AnalysisContext) -> ThreadModel:
    """The (memoised) thread model of the scanned project."""
    cached = getattr(ctx, "_thread_model", None)
    if cached is not None:
        return cached
    model = _build(ctx)
    ctx._thread_model = model  # type: ignore[attr-defined]
    return model


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def _qualname(node: ast.AST) -> str:
    parts: "list[str]" = [node.name]  # type: ignore[attr-defined]
    parent = getattr(node, "parent", None)
    while parent is not None:
        if isinstance(parent, ast.ClassDef):
            parts.append(parent.name)
        elif isinstance(parent, _FUNC_NODES):
            parts.append("<locals>")
            parts.append(parent.name)
        parent = getattr(parent, "parent", None)
    return ".".join(reversed(parts))


def _base_name(expr: ast.expr) -> "str | None":
    parts = dotted_parts(expr)
    return parts[-1] if parts else None


def _annotation_class(annotation: "ast.expr | None") -> "str | None":
    """The class name an annotation pins, if it is a plain reference.

    Handles ``Foo``, ``mod.Foo``, string annotations (including
    ``"Foo | None"``), and ``Optional[Foo]``-style subscripts.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        text = annotation.value.split("|")[0].strip()
        text = text.split("[")[0].strip()
        return text.rsplit(".", 1)[-1] or None
    if isinstance(annotation, ast.Subscript):
        # Optional[Foo] / "Foo | None" — look at the first argument.
        inner = annotation.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_class(inner)
    if isinstance(annotation, ast.BinOp):  # Foo | None
        return _annotation_class(annotation.left)
    return _base_name(annotation)


def _walk_own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``func``'s body excluding nested def/class bodies
    (lambdas belong to the enclosing function and are included)."""
    stack: "list[ast.AST]" = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_FUNC_NODES, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _ModuleScan:
    """Per-module symbol tables feeding the project-wide model."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.aliases = import_aliases(module.tree)
        self.functions: "list[ast.FunctionDef | ast.AsyncFunctionDef]" = []
        self.classes: "list[ast.ClassDef]" = []
        for node in ast.walk(module.tree):
            if isinstance(node, _FUNC_NODES):
                self.functions.append(node)
            elif isinstance(node, ast.ClassDef):
                self.classes.append(node)
        self.module_level = {
            stmt.name: stmt
            for stmt in module.tree.body
            if isinstance(stmt, _FUNC_NODES)
        }


class _Resolver:
    """Shared name → FunctionInfo resolution for calls and spawns."""

    def __init__(
        self,
        model: ThreadModel,
        scans: "dict[str, _ModuleScan]",
        dotted_to_relpath: "dict[str, str]",
    ) -> None:
        self.model = model
        self.scans = scans
        self.dotted_to_relpath = dotted_to_relpath
        #: class name -> [(relpath, class node)]
        self.classes_by_name: "dict[str, list[tuple[str, ast.ClassDef]]]" = {}
        for relpath, scan in scans.items():
            for cls in scan.classes:
                self.classes_by_name.setdefault(cls.name, []).append(
                    (relpath, cls)
                )
        #: per-function local var -> class name (annotated params,
        #: constructor-call locals); consulted through the lexical chain.
        self.local_types: "dict[tuple[str, str], dict[str, str]]" = {}
        #: (relpath, class) -> attr -> class name.
        self.attr_types: "dict[tuple[str, str], dict[str, str]]" = {}

    # -- class hierarchy -------------------------------------------------
    def compute_hierarchy(self) -> None:
        bases: "dict[str, set[str]]" = {}
        for name, entries in self.classes_by_name.items():
            bases.setdefault(name, set())
            for _, cls in entries:
                for base in cls.bases:
                    base_name = _base_name(base)
                    if base_name is not None:
                        bases[name].add(base_name)
        children: "dict[str, set[str]]" = {}
        for name, parents in bases.items():
            for parent in parents:
                children.setdefault(parent, set()).add(name)

        def closure(
            start: str, edges: "dict[str, set[str]]"
        ) -> "set[str]":
            out: "set[str]" = set()
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for nxt in edges.get(current, ()):
                    if nxt not in out:
                        out.add(nxt)
                        frontier.append(nxt)
            return out

        for name in self.classes_by_name:
            related = {name}
            related |= closure(name, bases)
            related |= closure(name, children)
            self.model.related_classes[name] = frozenset(related)

    def related(self, class_name: str) -> "frozenset[str]":
        return self.model.related_classes.get(
            class_name, frozenset({class_name})
        )

    # -- function lookup -------------------------------------------------
    def methods_named(
        self, class_name: str, method: str
    ) -> "list[FunctionInfo]":
        out: "list[FunctionInfo]" = []
        for related_name in sorted(self.related(class_name)):
            for info in self.model.functions.values():
                if (
                    info.class_name == related_name
                    and info.name == method
                ):
                    out.append(info)
        return out

    def module_function(
        self, relpath: str, name: str
    ) -> "FunctionInfo | None":
        scan = self.scans.get(relpath)
        if scan is None or name not in scan.module_level:
            return None
        return self.model.functions.get((relpath, name))

    def canonical_function(
        self, canonical: str
    ) -> "FunctionInfo | None":
        """``repro.sweep.remote.recv_frame`` → its FunctionInfo."""
        if "." not in canonical:
            return None
        module_dotted, name = canonical.rsplit(".", 1)
        relpath = self._relpath_for(module_dotted)
        if relpath is None:
            return None
        return self.module_function(relpath, name)

    def canonical_class(self, canonical: str) -> "str | None":
        if "." not in canonical:
            return canonical if canonical in self.classes_by_name else None
        module_dotted, name = canonical.rsplit(".", 1)
        if self._relpath_for(module_dotted) is None:
            return None
        return name if name in self.classes_by_name else None

    def _relpath_for(self, module_dotted: str) -> "str | None":
        direct = self.dotted_to_relpath.get(module_dotted)
        if direct is not None:
            return direct
        # The scan root usually sits below the package root, so the
        # canonical name carries extra leading components: match the
        # relpath-derived dotted name as a suffix.
        for dotted, relpath in self.dotted_to_relpath.items():
            if module_dotted.endswith("." + dotted):
                return relpath
        return None

    # -- local/attr types ------------------------------------------------
    def scan_types(self) -> None:
        for info in self.model.functions.values():
            types: "dict[str, str]" = {}
            args = info.node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
            ):
                cls = _annotation_class(arg.annotation)
                if cls is not None and cls in self.classes_by_name:
                    types[arg.arg] = cls
            scan = self.scans[info.relpath]
            for node in _walk_own_body(info.node):
                target: "ast.expr | None" = None
                value: "ast.expr | None" = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                    cls = _annotation_class(node.annotation)
                    if (
                        isinstance(target, ast.Name)
                        and cls is not None
                        and cls in self.classes_by_name
                    ):
                        types[target.id] = cls
                    continue
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Call):
                    cls = self._constructed_class(value, scan)
                    if cls is not None:
                        types[target.id] = cls
            self.local_types[info.key] = types
        # Instance attribute types from constructor assignments.
        for info in self.model.functions.values():
            if (
                info.class_name is None
                or info.name not in CONSTRUCTOR_NAMES
            ):
                continue
            attr_key = (info.relpath, info.class_name)
            attrs = self.attr_types.setdefault(attr_key, {})
            own_types = self.local_types.get(info.key, {})
            scan = self.scans[info.relpath]
            for node in _walk_own_body(info.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                ):
                    continue
                target = node.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if isinstance(node.value, ast.Name):
                    cls = own_types.get(node.value.id)
                elif isinstance(node.value, ast.Call):
                    cls = self._constructed_class(node.value, scan)
                else:
                    cls = None
                if cls is not None:
                    attrs[target.attr] = cls

    def _constructed_class(
        self, call: ast.Call, scan: _ModuleScan
    ) -> "str | None":
        parts = dotted_parts(call.func)
        if parts is None:
            return None
        if len(parts) == 1:
            name = parts[0]
            if name in self.classes_by_name:
                return name
            canonical = scan.aliases.get(name)
            if canonical is not None:
                return self.canonical_class(canonical)
            return None
        base, rest = parts[0], parts[1:]
        if base in scan.aliases:
            canonical = ".".join((scan.aliases[base], *rest))
            return self.canonical_class(canonical)
        return None

    # -- callable expression resolution ---------------------------------
    def enclosing_chain(
        self, info: FunctionInfo
    ) -> "list[FunctionInfo]":
        """``info`` then its lexically enclosing functions, inner first."""
        chain = [info]
        node = getattr(info.node, "parent", None)
        while node is not None:
            if isinstance(node, _FUNC_NODES):
                outer = self.model.function_for_node(info.relpath, node)
                if outer is not None:
                    chain.append(outer)
            node = getattr(node, "parent", None)
        return chain

    def local_type_of(
        self, info: FunctionInfo, name: str
    ) -> "str | None":
        for scope in self.enclosing_chain(info):
            cls = self.local_types.get(scope.key, {}).get(name)
            if cls is not None:
                return cls
        return None

    def enclosing_class_name(self, info: FunctionInfo) -> "str | None":
        node = getattr(info.node, "parent", None)
        while node is not None:
            if isinstance(node, ast.ClassDef):
                return node.name
            node = getattr(node, "parent", None)
        return None

    def resolve_callable(
        self, expr: ast.expr, info: FunctionInfo
    ) -> "list[FunctionInfo]":
        """Functions a callable expression may refer to (empty = unknown)."""
        scan = self.scans[info.relpath]
        if isinstance(expr, ast.Name):
            name = expr.id
            # A def nested directly in this function or an enclosing one.
            for scope in self.enclosing_chain(info):
                for node in _walk_own_body(scope.node):
                    if isinstance(node, _FUNC_NODES) and node.name == name:
                        found = self.model.function_for_node(
                            info.relpath, node
                        )
                        if found is not None:
                            return [found]
            local = self.module_function(info.relpath, name)
            if local is not None:
                return [local]
            canonical = scan.aliases.get(name)
            if canonical is not None:
                cross = self.canonical_function(canonical)
                if cross is not None:
                    return [cross]
                cls = self.canonical_class(canonical)
                if cls is not None:
                    return self.constructors_of(cls)
            if name in self.classes_by_name:
                return self.constructors_of(name)
            return []
        if isinstance(expr, ast.Attribute):
            value = expr.value
            if isinstance(value, ast.Name):
                if value.id == "self":
                    cls = self.enclosing_class_name(info)
                    if cls is not None:
                        return self.methods_named(cls, expr.attr)
                    return []
                typed = self.local_type_of(info, value.id)
                if typed is not None:
                    return self.methods_named(typed, expr.attr)
                canonical = scan.aliases.get(value.id)
                if canonical is not None:
                    target = self.canonical_function(
                        f"{canonical}.{expr.attr}"
                    )
                    if target is not None:
                        return [target]
                return []
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                cls = self.enclosing_class_name(info)
                if cls is None:
                    return []
                for related_name in sorted(self.related(cls)):
                    for relpath_cls, attrs in self.attr_types.items():
                        if relpath_cls[1] != related_name:
                            continue
                        attr_cls = attrs.get(value.attr)
                        if attr_cls is not None:
                            return self.methods_named(
                                attr_cls, expr.attr
                            )
            return []
        return []

    def constructors_of(self, class_name: str) -> "list[FunctionInfo]":
        out: "list[FunctionInfo]" = []
        for related_name in sorted(self.related(class_name)):
            for info in self.model.functions.values():
                if (
                    info.class_name == related_name
                    and info.name in CONSTRUCTOR_NAMES
                ):
                    out.append(info)
        return out


def _is_sync_factory(value: ast.expr) -> "str | None":
    """The sync-primitive suffix a ``threading.Lock()``-style call makes."""
    if not isinstance(value, ast.Call):
        return None
    parts = dotted_parts(value.func)
    if parts is None:
        return None
    suffix = parts[-1]
    if suffix in SYNC_FACTORY_SUFFIXES:
        return suffix
    return None


def _build(ctx: AnalysisContext) -> ThreadModel:
    model = ThreadModel()
    scans: "dict[str, _ModuleScan]" = {}
    dotted_to_relpath: "dict[str, str]" = {}
    for module in ctx.walk():
        scan = _ModuleScan(module)
        scans[module.relpath] = scan
        dotted = module.relpath[:-3].replace("/", ".")
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        dotted_to_relpath[dotted] = module.relpath
        for func in scan.functions:
            qualname = _qualname(func)
            class_parent = getattr(func, "parent", None)
            class_name = (
                class_parent.name
                if isinstance(class_parent, ast.ClassDef)
                else None
            )
            info = FunctionInfo(
                relpath=module.relpath,
                qualname=qualname,
                node=func,
                class_name=class_name,
            )
            model.functions[info.key] = info

    resolver = _Resolver(model, scans, dotted_to_relpath)
    resolver.compute_hierarchy()
    resolver.scan_types()
    model._resolver = resolver  # type: ignore[attr-defined]

    # Sync-primitive attributes per class (from any method's
    # ``self.X = threading.Lock()``-style assignment).
    for info in model.functions.values():
        if info.class_name is None:
            continue
        key = (info.relpath, info.class_name)
        for node in _walk_own_body(info.node):
            if not (
                isinstance(node, ast.Assign) and len(node.targets) == 1
            ):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            suffix = _is_sync_factory(node.value)
            if suffix is None:
                continue
            model.sync_attrs.setdefault(key, set()).add(target.attr)
            if suffix in LOCKLIKE_SUFFIXES:
                model.lock_attrs.setdefault(key, set()).add(target.attr)

    # Direct entries and call edges.
    for info in model.functions.values():
        entries = model.direct_entries.setdefault(info.key, set())
        if info.is_public:
            entries.add(MAIN_ENTRY)
        edges = model.calls.setdefault(info.key, set())
        scan = scans[info.relpath]
        for node in _walk_own_body(info.node):
            if not isinstance(node, ast.Call):
                continue
            targets = _spawn_targets(node, scan, resolver, info)
            if targets is not None:
                kind, callables = targets
                for target in callables:
                    model.direct_entries.setdefault(
                        target.key, set()
                    ).add((kind, target.label))
                    if target.class_name is not None:
                        model.shared_classes.add(target.class_name)
                for cls_name in _spawn_arg_classes(
                    node, resolver, info
                ):
                    model.shared_classes.add(cls_name)
                continue
            for callee in resolver.resolve_callable(node.func, info):
                edges.add(callee.key)

    # Fixpoint: a function runs wherever its direct entries say, plus
    # wherever any caller runs.
    callers: "dict[tuple[str, str], set[tuple[str, str]]]" = {}
    for caller, callees in model.calls.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(caller)
    states: "dict[tuple[str, str], set[tuple[str, str]]]" = {
        key: set(model.direct_entries.get(key, ()))
        for key in model.functions
    }
    changed = True
    while changed:
        changed = False
        for key in model.functions:
            state = states[key]
            before = len(state)
            for caller in callers.get(key, ()):
                state |= states.get(caller, set())
            if len(state) != before:
                changed = True
    for key, state in states.items():
        model.runs_on[key] = frozenset(state)

    # A declared lock is the author saying "instances of this are
    # concurrent" — that opts the class into sharing by itself.
    for (rel, cls_name), attrs in model.lock_attrs.items():
        if attrs:
            model.shared_classes.add(cls_name)
    # Sharing extends through the hierarchy: a base spawning
    # ``self._handle`` threads shares every subclass's instances too.
    expanded: "set[str]" = set()
    for cls_name in model.shared_classes:
        expanded |= model.related_classes.get(
            cls_name, frozenset({cls_name})
        )
    model.shared_classes = expanded
    return model


def _spawn_arg_classes(
    call: ast.Call, resolver: "_Resolver", info: FunctionInfo
) -> "set[str]":
    """Project classes whose instances are handed to the spawned
    callable (``Thread(args=(..., work, ...))`` / ``submit(fn, work)``)."""
    candidates: "list[ast.expr]" = []
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "submit"
    ):
        candidates.extend(call.args[1:])
        candidates.extend(kw.value for kw in call.keywords)
    else:
        for kw in call.keywords:
            if kw.arg in ("args", "kwargs") and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                candidates.extend(kw.value.elts)
    classes: "set[str]" = set()
    for expr in candidates:
        cls_name: "str | None" = None
        if isinstance(expr, ast.Name):
            cls_name = resolver.local_type_of(info, expr.id)
            if expr.id == "self":
                cls_name = resolver.enclosing_class_name(info)
        elif (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            enclosing = resolver.enclosing_class_name(info)
            if enclosing is not None:
                for related in sorted(resolver.related(enclosing)):
                    for (rel, cls), attrs in (
                        resolver.attr_types.items()
                    ):
                        if cls == related and expr.attr in attrs:
                            cls_name = attrs[expr.attr]
        if cls_name is not None:
            classes.add(cls_name)
    return classes


def _spawn_targets(
    call: ast.Call,
    scan: _ModuleScan,
    resolver: _Resolver,
    info: FunctionInfo,
) -> "tuple[str, list[FunctionInfo]] | None":
    """``("thread"|"pool", targets)`` when ``call`` spawns, else None."""
    from repro.analysis.astutil import resolve_call

    canonical = resolve_call(call, scan.aliases)
    if canonical is not None and canonical.endswith("threading.Thread"):
        target_expr: "ast.expr | None" = None
        for kw in call.keywords:
            if kw.arg == "target":
                target_expr = kw.value
        if target_expr is None and call.args:
            target_expr = call.args[0]
        if target_expr is None:
            return ("thread", [])
        return ("thread", resolver.resolve_callable(target_expr, info))
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "submit"
        and call.args
    ):
        return ("pool", resolver.resolve_callable(call.args[0], info))
    return None


def resolver_for(model: ThreadModel) -> _Resolver:
    """The resolver built alongside ``model`` (for rule reuse)."""
    return model._resolver  # type: ignore[attr-defined]


def describe_entries(
    entries: "frozenset[tuple[str, str]]",
) -> str:
    """Stable human rendering of an entry set for messages."""
    rendered = []
    for kind, label in sorted(entries):
        rendered.append(kind if not label else f"{kind}:{label}")
    return ", ".join(rendered)


def enclosing_info(
    model: ThreadModel, relpath: str, node: ast.AST
) -> "Optional[FunctionInfo]":
    """The FunctionInfo owning ``node`` (innermost enclosing def)."""
    current = getattr(node, "parent", None)
    while current is not None:
        if isinstance(current, _FUNC_NODES):
            return model.function_for_node(relpath, current)
        current = getattr(current, "parent", None)
    return None
