"""Type algebra for answer and parameter shapes.

Schemas describe the JSON values a task may produce or consume. They do two
jobs: render to the type-expression text embedded in prompts, and validate
decoded JSON values so answers can be extracted mechanically.

The algebra is deliberately small: integer, float, boolean, text, scalar
literals, lists, records with fixed fields, and unions. No `any`, no dates,
no recursion.

One walk (`_mismatch`) checks values for `validate` and for `coerce`'s
unions. A value that conforms builds no report and no path text, and a
scalar whose type is exactly int, float, bool or str passes on an identity
test. Only a mismatch, or a union member that fails, builds its texts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union as TUnion

from .errors import SchemaError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

ScalarValue = TUnion[int, float, bool, str]


class TypeSchema:
    """Base class; concrete schemas are frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Integer(TypeSchema):
    pass


@dataclass(frozen=True)
class Float(TypeSchema):
    pass


@dataclass(frozen=True)
class Boolean(TypeSchema):
    pass


@dataclass(frozen=True)
class Text(TypeSchema):
    pass


@dataclass(frozen=True)
class Literal(TypeSchema):
    value: ScalarValue

    def __post_init__(self):
        if not isinstance(self.value, (int, float, bool, str)):
            raise SchemaError(f"literal values must be scalars, got {type(self.value).__name__}")


@dataclass(frozen=True)
class ListOf(TypeSchema):
    element: TypeSchema

    def __post_init__(self):
        if not isinstance(self.element, TypeSchema):
            raise SchemaError("list element must be a TypeSchema")


@dataclass(frozen=True)
class Record(TypeSchema):
    fields: tuple[tuple[str, TypeSchema], ...]

    def __post_init__(self):
        names = [name for name, _ in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate record field names: {names}")
        for name, schema in self.fields:
            if not IDENT_RE.match(name):
                raise SchemaError(f"record field name {name!r} is not a valid identifier")
            if not isinstance(schema, TypeSchema):
                raise SchemaError(f"field {name!r} schema must be a TypeSchema")


@dataclass(frozen=True)
class UnionOf(TypeSchema):
    members: tuple[TypeSchema, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise SchemaError("a union needs at least 2 members")
        for member in self.members:
            if not isinstance(member, TypeSchema):
                raise SchemaError("union members must be TypeSchemas")


class VoidType:
    """Marker for functions that produce no value (code generation only)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Void"


VOID = VoidType()

# Shorthand constructors mirroring how schemas read in task files.
INT = Integer()
FLOAT = Float()
BOOL = Boolean()
STR = Text()


def literal(value: ScalarValue) -> Literal:
    return Literal(value)


def list_of(element: TypeSchema) -> ListOf:
    return ListOf(element)


def record(fields: Mapping[str, TypeSchema] | Iterable[tuple[str, TypeSchema]]) -> Record:
    if isinstance(fields, Mapping):
        items = tuple(fields.items())
    else:
        items = tuple(fields)
    return Record(items)


def union(*members: TypeSchema) -> UnionOf:
    return UnionOf(tuple(members))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a value against a schema.

    ok=True implies path/expected/found are empty. `path` locates the first
    mismatch (e.g. ``answer[2].year``), `expected` is the rendered schema
    fragment there, `found` a short description of the offending value.
    """

    ok: bool
    path: str = ""
    expected: str = ""
    found: str = ""

    @classmethod
    def mismatch(cls, path: str, expected: str, found: str) -> "ValidationReport":
        return cls(ok=False, path=path, expected=expected, found=found)


def render(schema: TypeSchema | VoidType) -> str:
    """Render a schema to its type-expression text.

    Void renders as ``void``. Integer and Float both render as ``number``;
    integrality is enforced by validation instead. Records use ``; ``
    separators with one space inside the braces; union members join with
    `` | ``; union elements of a list are parenthesized. Deterministic and
    order-preserving.
    """
    if isinstance(schema, (Integer, Float)):
        return "number"
    if isinstance(schema, Boolean):
        return "boolean"
    if isinstance(schema, Text):
        return "string"
    if isinstance(schema, Literal):
        return _render_literal(schema.value)
    if isinstance(schema, ListOf):
        inner = render(schema.element)
        if isinstance(schema.element, UnionOf):
            inner = f"({inner})"
        return inner + "[]"
    if isinstance(schema, Record):
        if not schema.fields:
            return "{}"
        body = "; ".join(f"{name}: {render(sub)}" for name, sub in schema.fields)
        return "{ " + body + " }"
    if isinstance(schema, UnionOf):
        return " | ".join(render(member) for member in schema.members)
    if isinstance(schema, VoidType):
        return "void"
    raise SchemaError(f"cannot render {schema!r}")


def _render_literal(value: ScalarValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def wrap_response(answer: TypeSchema) -> Record:
    """Wrap an answer schema in the fixed {reason, answer} envelope."""
    return Record((("reason", Text()), ("answer", answer)))


def validate(schema: TypeSchema, value: Any, path: str = "value") -> ValidationReport:
    """Check a decoded JSON value against a schema.

    Mismatches are reported, never raised. Records are strict: extra keys
    fail, missing keys fail. Integer accepts JSON numbers with zero
    fractional part; Float accepts any JSON number. Union tries members in
    order and succeeds on the first match.
    """
    miss = _mismatch(schema, value)
    return _SUCCESS if miss is None else ValidationReport.mismatch(path + miss[0], *miss[1:])


def coerce(schema: TypeSchema, value: Any) -> Any:
    """Normalize a value that already validated against `schema`.

    The only transformations are integrality ones: integral floats become
    ints where the schema says Integer, and literal positions collapse to the
    literal's own value. Nothing else is cast.
    """
    if isinstance(schema, Integer):
        return int(value) if isinstance(value, float) else value
    if isinstance(schema, Literal):
        return schema.value
    if isinstance(schema, ListOf):
        exact = _EXACT.get(type(schema.element), ())  # what coerce keeps as it is
        return [item if type(item) in exact else coerce(schema.element, item) for item in value]
    if isinstance(schema, Record):
        return {name: coerce(sub, value[name]) for name, sub in schema.fields}
    if isinstance(schema, UnionOf):
        for member in schema.members:
            if _mismatch(member, value) is None:
                return coerce(member, value)
    return value


_SUCCESS = ValidationReport(ok=True)
# The exact types of JSON values that conform to a scalar schema with no closer look.
_EXACT = {Integer: (int,), Float: (int, float), Boolean: (bool,), Text: (str,)}


def _mismatch(schema: TypeSchema, value: Any) -> tuple[str, str, str] | None:
    """The one walk behind validate and coerce: None if `value` conforms,
    else its first mismatch as (path suffix, expected, found)."""
    if type(value) in _EXACT.get(type(schema), ()):
        return None
    if isinstance(schema, (Integer, Float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return "", "number", _describe(value)
        if isinstance(schema, Integer) and isinstance(value, float) and not value.is_integer():
            return "", "number", "non-integral number"
        return None
    if isinstance(schema, Boolean):
        return None if isinstance(value, bool) else ("", "boolean", _describe(value))
    if isinstance(schema, Text):
        return None if isinstance(value, str) else ("", "string", _describe(value))
    if isinstance(schema, Literal):
        return None if _literal_matches(schema.value, value) else ("", render(schema), _describe(value, reveal=True))
    if isinstance(schema, ListOf):
        if not isinstance(value, list):
            return "", render(schema), _describe(value)
        element, exact = schema.element, _EXACT.get(type(schema.element), ())
        for index, item in enumerate(value):
            if type(item) not in exact and (miss := _mismatch(element, item)):
                return f"[{index}]{miss[0]}", miss[1], miss[2]
        return None
    if isinstance(schema, Record):
        if not isinstance(value, dict):
            return "", render(schema), _describe(value)
        for name, sub in schema.fields:
            if name not in value:
                return f".{name}", render(sub), "missing field"
            if miss := _mismatch(sub, value[name]):
                return f".{name}{miss[0]}", miss[1], miss[2]
        if len(value) > len(schema.fields):  # every declared field is there, and something else
            key = next(key for key in value if key not in dict(schema.fields))
            return f".{key}", "no declared field", _describe(value[key])
        return None
    if isinstance(schema, UnionOf):
        for member in schema.members:
            if _mismatch(member, value) is None:
                return None
        return "", render(schema), _describe(value, reveal=True)
    raise SchemaError(f"cannot validate against {schema!r}")


def _literal_matches(expected: ScalarValue, value: Any) -> bool:
    if isinstance(expected, bool):
        return isinstance(value, bool) and value is expected
    if isinstance(expected, (int, float)):
        return not isinstance(value, bool) and isinstance(value, (int, float)) and value == expected
    return isinstance(value, str) and value == expected


def _describe(value: Any, reveal: bool = False) -> str:
    """Short description of a JSON value for mismatch reports."""
    if value is None:
        return "null"
    if isinstance(value, (list, dict)):
        return "array" if isinstance(value, list) else "object"
    if not isinstance(value, (int, float, str)):  # bool is an int
        return type(value).__name__
    if reveal:
        shown = json.dumps(value, ensure_ascii=False)
        return shown if len(shown) <= 40 else shown[:37] + "..."
    return "boolean" if isinstance(value, bool) else "string" if isinstance(value, str) else "number"
