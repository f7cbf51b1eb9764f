"""Wire records: declare a record once, derive both directions from it.

Every record and frame that crosses a process boundary is a dataclass
whose fields give the wire keys (in declaration order), their types and
their defaults. A frame also names its op as a class attribute
(``op: ClassVar[str] = "welcome"``), which travels as the first key.
:func:`to_wire` emits every declared field and :func:`from_wire`
consumes every declared field, so writer and reader cannot drift.

Decoding is the validator: a missing field (one without a default), an
unknown key, a mistyped value, another op, or a value the record's own
constructor refuses with a ``ValueError`` raises :class:`DataError`
naming the field. Values are never coerced; a ``bool`` is not an
``int``, but an ``int`` is a ``float``. The shapes understood are the
ones on the wire: ``int``, ``float``, ``str``, ``bool``, ``None``,
``X | None``, nested records, ``list[X]``, ``tuple[X, ...]``,
fixed-length tuples, ``frozenset[X]`` (a sorted list on the wire), and
``dict``, a JSON object passed through whole: a scenario's config
overrides, which :meth:`~repro.sweep.scenario.Scenario.planner_config`
validates, and an outcome record's write-only copies of a scenario's
overrides and constraints.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, TypeVar

from repro.utils.errors import DataError

T = TypeVar("T")

_NONE = type(None)
_MISSING = dataclasses.MISSING


@functools.cache
def _fields(cls: Any) -> "tuple[tuple[str, Any, bool], ...]":
    """``(name, type, required)`` per field, string annotations evaluated."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is _MISSING and f.default_factory is _MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def to_wire(record: Any) -> dict:
    """``record`` as a JSON-safe dict: ``op`` first, then every field."""
    op = getattr(type(record), "op", None)
    doc: dict = {} if op is None else {"op": op}
    for name, _, _ in _fields(type(record)):
        doc[name] = _encode(getattr(record, name))
    return doc


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_wire(value)
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(_encode(item) for item in value)
    return value


def from_wire(cls: "type[T]", doc: Any) -> T:
    """Decode ``doc`` into a ``cls`` record, validating every field."""
    return _decode(cls, doc, cls.__name__, "")


def _decode(tp: Any, value: Any, top: str, path: str) -> Any:
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise _error(top, path, f"must be a mapping, got {_kind(value)}")
        op = getattr(tp, "op", None)
        if op is not None and value.get("op") != op:
            got = value.get("op")
            raise _error(top, path, f"expects op {op!r}, got {got!r}")
        fields = _fields(tp)
        names = {name for name, _, _ in fields} | ({"op"} if op else set())
        unknown = value.keys() - names
        if unknown:
            raise _error(top, path, f"has unknown keys {sorted(unknown)}")
        values = {}
        for name, field_tp, required in fields:
            sub = f"{path}.{name}" if path else name
            if name in value:
                values[name] = _decode(field_tp, value[name], top, sub)
            elif required:
                raise DataError(f"{top} is missing field {sub!r}")
        try:
            return tp(**values)
        except ValueError as exc:  # the record's own validation
            raise _error(top, path, f"is invalid: {exc}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        if value is None and _NONE in args:
            return None
        (inner,) = [arg for arg in args if arg is not _NONE]
        return _decode(inner, value, top, path)
    if origin in (list, tuple, frozenset):
        if not isinstance(value, (list, tuple)):
            raise _error(top, path, f"must be a list, got {_kind(value)}")
        if origin is not tuple or args[-1:] == (Ellipsis,):
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise _error(
                top, path, f"must have {len(args)} items, got {len(value)}"
            )
        item = f"{path}[]"
        items = [_decode(a, v, top, item) for a, v in zip(args, value)]
        if origin is list:
            return items
        return tuple(items) if origin is tuple else frozenset(items)
    if tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise _error(top, path, f"must be {tp.__name__}, got {_kind(value)}")
    return value


def _kind(value: Any) -> str:
    return f"{type(value).__name__} {value!r:.60}"


def _error(top: str, path: str, problem: str) -> DataError:
    where = f"{top} field {path!r}" if path else top
    return DataError(f"{where} {problem}")
