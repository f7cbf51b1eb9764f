"""Wire records: declare a record once, check it where it is built.

Every record and frame that crosses a process boundary is a dataclass
deriving from :class:`Record`. Its fields give the wire keys (in
declaration order), their types and their defaults; a frame also names
its op as a class attribute (``op: ClassVar[str] = "welcome"``), which
travels as the first key. :func:`to_wire` emits and :func:`from_wire`
consumes every declared field, so writer and reader cannot drift.

Construction is the validator: built in-process or decoded, a record
refuses a mistyped field with a :class:`ValidationError` naming it.
Nothing is coerced. A numpy scalar is stored as the Python value it
holds, a list or tuple (or a set, for a frozenset) as the declared
container; a ``bool`` is not an ``int``, but an ``int`` is a ``float``.
The shapes understood are those of JSON: ``int``, ``float``, ``str``,
``bool``, ``None``, ``X | None``, nested records, ``list[X]``,
``tuple[X, ...]``, fixed-length tuples, ``frozenset[X]`` (a sorted
list), and ``dict``, an object passed through whole with numpy values
unwrapped one level deep. Decoding adds the wire's refusals (not a
mapping, another op, an unknown key, a missing field) and raises every
refusal as a :class:`DataError` naming the field by its full path.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Callable, TypeVar

import numpy as np

from repro.utils.errors import DataError, ValidationError

T = TypeVar("T")

_NONE = type(None)
_MISSING = dataclasses.MISSING


class Record:
    """Base of every wire record: each field is checked on construction.

    A subclass with its own ``__post_init__`` calls this one first, so
    its range and cross-field rules see checked values.
    """

    def __post_init__(self) -> None:
        top = type(self).__name__
        for name, check, _ in _fields(type(self), False):
            value = getattr(self, name)
            checked = check(value, top, name)
            if checked is not value:
                object.__setattr__(self, name, checked)


@functools.cache
def _fields(cls: Any, wire: bool) -> tuple:
    """``(name, check, required)`` per field. A ``wire`` check decodes a
    nested record from its mapping; otherwise it must be one."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            _checker(hints[f.name], wire),
            f.default is _MISSING and f.default_factory is _MISSING,
        )
        for f in dataclasses.fields(cls)
    )


@functools.cache
def _checker(tp: Any, wire: bool) -> Callable[[Any, str, str], Any]:
    """The check of declared type ``tp``, built once: ``check(value, top,
    path)`` returns the value to store or refuses ``path`` in ``top``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        (inner,) = [arg for arg in args if arg is not _NONE]
        check = _checker(inner, wire)
        return lambda value, *at: None if value is None else check(value, *at)
    if origin in (list, tuple, frozenset):
        fixed = origin is tuple and args[-1:] != (Ellipsis,)
        checks = [_checker(arg, wire) for arg in args if arg is not Ellipsis]
        sets: tuple = (set, frozenset) if origin is frozenset else ()

        def check_items(value: Any, top: str, path: str) -> Any:
            if not isinstance(value, (list, tuple, *sets)):
                raise _error(top, path, f"must be a list, got {_kind(value)}")
            if fixed and len(value) != len(checks):
                raise _error(
                    top, path, f"must have {len(checks)} items, got {len(value)}"
                )
            item = f"{path}[]"
            if fixed:
                return origin([c(v, top, item) for c, v in zip(checks, value)])
            return origin([checks[0](v, top, item) for v in value])

        return check_items
    if tp is dict:
        return _dict
    if wire and issubclass(tp, Record):
        return functools.partial(_decode, tp)
    kinds = (int, float) if tp is float else (tp,)

    def check_value(value: Any, top: str, path: str) -> Any:
        if type(value) in kinds:
            return value
        if isinstance(value, np.generic) and type(value := value.item()) in kinds:
            return value
        raise _error(top, path, f"must be {tp.__name__}, got {_kind(value)}")

    return check_value


def _dict(value: Any, top: str, path: str) -> dict:
    if not isinstance(value, dict):
        raise _error(top, path, f"must be dict, got {_kind(value)}")
    return {
        key: item.item() if isinstance(item, np.generic) else item
        for key, item in value.items()
    }


def to_wire(record: Any) -> dict:
    """``record`` as a JSON-safe dict: ``op`` first, then every field."""
    op = getattr(type(record), "op", None)
    doc: dict = {} if op is None else {"op": op}
    for name, _, _ in _fields(type(record), False):
        doc[name] = _encode(getattr(record, name))
    return doc


def _encode(value: Any) -> Any:
    if isinstance(value, Record):
        return to_wire(value)
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(_encode(item) for item in value)
    return value


def from_wire(cls: "type[T]", doc: Any) -> T:
    """Decode ``doc`` into a ``cls`` record, validating every field."""
    if not issubclass(cls, Record):
        raise TypeError(f"{cls.__name__} is not a wire record")
    try:
        return _decode(cls, doc, cls.__name__, "")
    except ValidationError as exc:
        raise DataError(str(exc)) from None


def _decode(cls: Any, doc: Any, top: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise _error(top, path, f"must be a mapping, got {_kind(doc)}")
    op = getattr(cls, "op", None)
    if op is not None and doc.get("op") != op:
        raise _error(top, path, f"expects op {op!r}, got {doc.get('op')!r}")
    fields = _fields(cls, True)
    names = {name for name, _, _ in fields} | ({"op"} if op else set())
    unknown = doc.keys() - names
    if unknown:
        raise _error(top, path, f"has unknown keys {sorted(unknown)}")
    values = {}
    for name, check, required in fields:
        sub = f"{path}.{name}" if path else name
        if name in doc:
            values[name] = check(doc[name], top, sub)
        elif required:
            raise ValidationError(f"{top} is missing field {sub!r}")
    try:
        return cls(**values)
    except ValueError as exc:  # the record's own rules
        raise _error(top, path, f"is invalid: {exc}") from None


def _kind(value: Any) -> str:
    return f"{type(value).__name__} {value!r:.60}"


def _error(top: str, path: str, problem: str) -> ValidationError:
    where = f"{top} field {path!r}" if path else top
    return ValidationError(f"{where} {problem}")
