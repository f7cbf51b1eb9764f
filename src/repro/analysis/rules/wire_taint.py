"""RPR008: wire input must be validated before it touches anything real.

Frames off the socket (``recv_frame`` results, the ``frame`` parameter
of :class:`FrameServer` handlers) are attacker-controlled bytes that
happened to parse as JSON. Before such data reaches a filesystem path,
a subprocess, scenario execution, or a cache key, it must go through
``from_wire`` — the codec that decodes a declared record and rejects a
missing, unknown or mistyped field — or through one of the validators
of the fields ``from_wire`` leaves opaque (``scenario_from_spec``,
``PlannerConfig(...)``), or a scalar coercion (``int``/``float``).

The check is the label-based taint analysis from
:mod:`repro.analysis.dataflow`, run per function: sources seed the
taint, validator calls cut it, and any sink call still reachable by a
tainted expression is a finding.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator

from repro.analysis.astutil import import_aliases, resolve_call
from repro.analysis.base import Rule, register_rule
from repro.analysis.dataflow import TaintSpec, taint_findings
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import AnalysisContext, Module
from repro.analysis.threads import FunctionInfo, thread_model

WIRE_TAINT_SPEC = TaintSpec(
    source_calls=frozenset({"recv_frame"}),
    source_params=frozenset({"frame"}),
    sanitizers=frozenset({
        "from_wire",
        "scenario_from_spec",
        "PlannerConfig",
        "int",
        "float",
        "bool",
        "len",
    }),
    sink_calls=frozenset({
        "open",
        "eval",
        "exec",
        "os.fdopen",
        "os.open",
        "os.system",
        "os.makedirs",
        "os.mkdir",
        "os.remove",
        "os.unlink",
        "os.replace",
        "os.rename",
        "os.rmdir",
        "os.listdir",
        "os.path.join",
        "pathlib.Path",
        "pathlib.PurePath",
        "shutil.rmtree",
        "shutil.copy",
        "shutil.copytree",
        "shutil.move",
        "subprocess.Popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }),
    sink_locals=frozenset({"execute_scenario", "execute_shard"}),
    sink_methods=frozenset({"key_for"}),
)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _handler_classes(ctx: AnalysisContext) -> "frozenset[str]":
    """Classes related to a class named ``FrameServer`` — only their
    methods treat a ``frame`` parameter as wire input."""
    model = thread_model(ctx)
    return model.related_classes.get("FrameServer", frozenset())


@register_rule
class WireTaintRule(Rule):
    code = "RPR008"
    name = "wire-input-taint"
    severity = Severity.ERROR
    summary = (
        "data from recv_frame/handler frames must pass a sanctioned "
        "validator before filesystem, execution, or cache-key sinks"
    )

    def check(self, ctx: AnalysisContext) -> Iterable[Finding]:
        handler_classes = _handler_classes(ctx)
        model = thread_model(ctx)
        for module in ctx.walk():
            aliases = import_aliases(module.tree)

            def resolve(call: ast.Call) -> "str | None":
                return resolve_call(call, aliases)

            for info in sorted(
                (
                    i for i in model.functions.values()
                    if i.relpath == module.relpath
                ),
                key=lambda i: i.qualname,
            ):
                yield from self._check_function(
                    info, module, resolve, handler_classes
                )

    def _check_function(
        self,
        info: FunctionInfo,
        module: Module,
        resolve: "Callable[[ast.Call], str | None]",
        handler_classes: "frozenset[str]",
    ) -> Iterator[Finding]:
        entry: "set[str]" = set()
        if info.class_name in handler_classes:
            args = info.node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg in WIRE_TAINT_SPEC.source_params:
                    entry.add(arg.arg)
        for hit in taint_findings(
            info.node,
            WIRE_TAINT_SPEC,
            resolve,
            entry_tainted=frozenset(entry),
        ):
            names = ", ".join(hit.tainted_names)
            yield self.finding(
                module.relpath,
                hit.line,
                hit.col,
                f"wire-tainted data ({names}) reaches sink "
                f"'{hit.sink}' in '{info.qualname}'; validate it "
                "first (from_wire / scenario_from_spec / PlannerConfig "
                "/ int / float)",
            )
